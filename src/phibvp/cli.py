"""Command-line front end.

Subcommands:

* ``solve``  -- run the fixed-point solver on a problem file, write
  ``<stem>.solution.csv`` and ``<stem>.report.txt``;
* ``check``  -- evaluate the existence certificate matching the problem
  class, write ``<stem>.certificate.txt``;
* ``qphi``   -- compute the mean-zeroing shift for a given forcing
  profile, write ``<stem>.qphi.txt``;
* ``degree`` -- winding number of the planar boundary map on a circle,
  write ``<stem>.degree.txt``.

Problem files are flat ``key = value`` text; expressions are quoted.
Outputs are deterministic: same input file, same bytes out.

Exit codes: 0 success; 2 certificate not granted / degree zero or
undefined; 3 solver did not converge; 4 malformed input, problem
definition or a grid too large to allocate; 5 a domain or admissibility
guard tripped.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .certificates import (BoundaryZero, InconsistentDerivative, Verdict,
                           _report_text, brouwer_degree, check_growth,
                           check_signs, eval_profile)
# eval_many is unused here, but bench/tracing.py patches this name
from .expr import ParseError, eval_many, parse_expr, variables  # noqa: F401
from .function_space import DEFAULT_N, Grid
from .homeomorphism import parse_phi_config
from .operators import (AdmissibilityViolation, BoundedPreconditionError,
                        NoSignChangeError, q_phi)
from .solver import (NonConvergence, ProblemClass, ProblemSpec,
                     ode_residual_samples, solve)

EXIT_OK = 0
EXIT_UNCERTIFIED = 2
EXIT_NO_CONVERGENCE = 3
EXIT_BAD_INPUT = 4
EXIT_GUARD = 5

KNOWN_KEYS = frozenset({
    "problem", "phi", "T", "f", "grid_n", "h", "n", "dn", "c",
    "m1", "m2", "rho", "lambda_step", "tol",
})

_EXPR_VARS = {
    "f": frozenset({"t", "u", "v"}),
    "h": frozenset({"t"}),
    "n": frozenset({"u"}),
    "dn": frozenset({"u"}),
    "c": frozenset({"t"}),
}

_PROBLEM_NAMES = {p.value: p for p in ProblemClass}


class ProblemFileError(ValueError):
    """Malformed problem file; carries the 1-based line number."""

    def __init__(self, path, line_no: int, message: str):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


def _strip_comment(line: str) -> str:
    # '#' starts a comment unless it sits inside double quotes
    in_quotes = False
    for i, ch in enumerate(line):
        if ch == '"':
            in_quotes = not in_quotes
        elif ch == "#" and not in_quotes:
            return line[:i]
    return line


def parse_problem_file(path) -> dict[str, str]:
    """Read ``key = value`` lines into a dict of raw strings.

    Values may be wrapped in double quotes (required when they contain
    '#' or significant whitespace); quotes are stripped here.  Unknown
    and duplicate keys are rejected with their line number.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ProblemFileError(path, 0, f"cannot read file: {exc}") from exc
    entries: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise ProblemFileError(path, line_no,
                                   f"expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KNOWN_KEYS:
            known = ", ".join(sorted(KNOWN_KEYS))
            raise ProblemFileError(path, line_no,
                                   f"unknown key {key!r} (known keys: {known})")
        if key in entries:
            raise ProblemFileError(path, line_no, f"duplicate key {key!r}")
        if len(value) >= 2 and value[0] == '"' and value[-1] == '"':
            value = value[1:-1]
        elif '"' in value:
            raise ProblemFileError(path, line_no,
                                   f"unbalanced quotes in value for {key!r}")
        if not value:
            raise ProblemFileError(path, line_no, f"empty value for {key!r}")
        entries[key] = value
    return entries


class _Problem:
    """Validated view of a problem file, converting fields on demand."""

    def __init__(self, path):
        self.path = Path(path)
        self.raw = parse_problem_file(path)

    def require(self, *keys: str) -> None:
        missing = [k for k in keys if k not in self.raw]
        if missing:
            raise ProblemFileError(self.path, 0,
                                   "missing required key(s): " + ", ".join(missing))

    def expr(self, key: str):
        src = self.raw[key]
        try:
            e = parse_expr(src)
        except ParseError as exc:
            raise ProblemFileError(self.path, 0, f"{key}: {exc}") from exc
        allowed = _EXPR_VARS[key]
        used = variables(e)
        if not used <= allowed:
            extra = ", ".join(sorted(used - allowed))
            raise ProblemFileError(
                self.path, 0,
                f"{key} may only depend on {sorted(allowed)}, uses {extra}")
        return e

    def number(self, key: str, default: float | None = None) -> float:
        if key not in self.raw:
            return default
        try:
            return float(self.raw[key])
        except ValueError:
            raise ProblemFileError(
                self.path, 0,
                f"{key}: expected a number, got {self.raw[key]!r}") from None

    def integer(self, key: str, default: int) -> int:
        if key not in self.raw:
            return default
        try:
            return int(self.raw[key])
        except ValueError:
            raise ProblemFileError(
                self.path, 0,
                f"{key}: expected an integer, got {self.raw[key]!r}") from None

    def phi(self):
        try:
            return parse_phi_config(self.raw["phi"])
        except ValueError as exc:
            raise ProblemFileError(self.path, 0, f"phi: {exc}") from exc

    def problem_class(self) -> ProblemClass:
        name = self.raw["problem"]
        try:
            return _PROBLEM_NAMES[name]
        except KeyError:
            known = ", ".join(sorted(_PROBLEM_NAMES))
            raise ProblemFileError(
                self.path, 0,
                f"unknown problem class {name!r} (known: {known})") from None


def _out_base(path: Path, out_dir: str | None) -> Path:
    stem = path.stem
    base = Path(out_dir) if out_dir else path.parent
    base.mkdir(parents=True, exist_ok=True)
    return base / stem


def _out_path(base: Path, kind: str) -> Path:
    # not with_suffix: stems containing dots must survive intact
    return base.parent / (base.name + kind)


def _write(path: Path, text: str) -> None:
    path.write_text(text)
    print(f"wrote {path}")


def _solution_csv(spec: ProblemSpec, report) -> str:
    w = report.solution
    phi_du = np.asarray(spec.phi.forward(w.du), dtype=float)
    res = ode_residual_samples(spec.phi, spec.f, w)
    rows = ["t,u,du,phi_du,residual"]
    for i in range(w.grid.n):
        rows.append(f"{w.grid.nodes[i]:.17g},{w.u[i]:.17g},{w.du[i]:.17g},"
                    f"{phi_du[i]:.17g},{res[i]:.17g}")
    return "\n".join(rows) + "\n"


def cmd_solve(args) -> int:
    prob = _Problem(args.problem_file)
    prob.require("problem", "phi", "T", "f")
    spec = ProblemSpec(
        problem=prob.problem_class(),
        phi=prob.phi(),
        f=prob.expr("f"),
        T=prob.number("T"),
        grid_n=prob.integer("grid_n", DEFAULT_N),
        tol_fp=prob.number("tol", ProblemSpec.tol_fp),
        lambda_step=prob.number("lambda_step", ProblemSpec.lambda_step),
    )
    base = _out_base(prob.path, args.out_dir)
    try:
        report = solve(spec)
    except NonConvergence as exc:
        _write(_out_path(base, ".report.txt"), exc.report.report_text())
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    _write(_out_path(base, ".solution.csv"), _solution_csv(spec, report))
    _write(_out_path(base, ".report.txt"), report.report_text())
    print(f"converged={str(report.converged).lower()} method={report.method} "
          f"ode_residual={report.ode_residual:.3e} "
          f"bc_residual={report.bc_residual:.3e}")
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def cmd_check(args) -> int:
    prob = _Problem(args.problem_file)
    prob.require("problem", "phi", "T", "f")
    cls = prob.problem_class()
    phi = prob.phi()
    f = prob.expr("f")
    T = prob.number("T")
    base = _out_base(prob.path, args.out_dir)

    if cls is ProblemClass.THREEPOINT_SINGULAR:
        # singular-range phi needs no side conditions: the map is
        # self-confining, so there is nothing to check
        text = _report_text("none", Verdict(
            "unconditional",
            detail="singular-range phi confines the derivative by itself"), (), None)
        _write(_out_path(base, ".certificate.txt"), text)
        print("unconditional: no hypotheses to check for this class")
        return EXIT_OK

    if cls is ProblemClass.DIRICHLET_BOUNDED:
        prob.require("h", "n", "dn")
        cert = check_growth(phi, f, prob.expr("h"), prob.expr("n"),
                            prob.expr("dn"), T)
        text = cert.report_text()
        winding_ok = True
    else:
        prob.require("c", "m1", "m2")
        # rho <= 0 (the default) means: use the certificate's rho_min
        rho = prob.number("rho", 0.0)
        if not np.isfinite(rho):
            raise ProblemFileError(prob.path, 0, f"rho must be finite, got {rho!r}")
        cert = check_signs(phi, f, prob.number("m1"), prob.number("m2"),
                           prob.expr("c"), T)
        text = cert.report_text()
        winding_ok = True
        if cert.verdict.passed:
            # the sign bounds only certify existence together with a
            # nonzero degree of the planar map on the derived disk
            rho = max(rho, cert.rho_min)
            try:
                deg = brouwer_degree(f, T, rho)
            except BoundaryZero as exc:
                text += exc.report_text()
                winding_ok = False
                print(f"degree undefined: {exc}", file=sys.stderr)
            else:
                text += deg.report_text()
                winding_ok = deg.winding != 0
                print(f"winding: {deg.winding}")
    _write(_out_path(base, ".certificate.txt"), text)
    print(f"verdict: {cert.verdict.status}")
    if cert.verdict.detail:
        print(f"detail: {cert.verdict.detail}")
    if cert.verdict.witness is not None:
        print(f"witness: {cert.verdict.witness}")
    return EXIT_OK if (cert.verdict.passed and winding_ok) else EXIT_UNCERTIFIED


def cmd_qphi(args) -> int:
    prob = _Problem(args.problem_file)
    prob.require("phi", "T", "h")
    phi = prob.phi()
    T = prob.number("T")
    grid = Grid(T, prob.integer("grid_n", DEFAULT_N))
    h_expr = prob.expr("h")
    h_vals = eval_profile("h", h_expr, "t", grid.nodes)
    result = q_phi(phi, grid, h_vals)
    text = (f"s={result.s!r}\n"
            f"residual={result.residual!r}\n"
            f"iterations={result.iterations}\n")
    base = _out_base(prob.path, args.out_dir)
    _write(_out_path(base, ".qphi.txt"), text)
    print(f"s = {result.s!r}")
    return EXIT_OK


def cmd_degree(args) -> int:
    prob = _Problem(args.problem_file)
    prob.require("f", "T", "rho")
    f = prob.expr("f")
    T = prob.number("T")
    rho = prob.number("rho")
    if not (rho > 0 and np.isfinite(rho)):
        raise ProblemFileError(prob.path, 0,
                               f"rho must be positive and finite, got {rho!r}")
    base = _out_base(prob.path, args.out_dir)
    try:
        result = brouwer_degree(f, T, rho)
    except BoundaryZero as exc:
        text = (exc.report_text()
                + "detail=map vanishes on the circle, pick another radius\n")
        _write(_out_path(base, ".degree.txt"), text)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNCERTIFIED
    _write(_out_path(base, ".degree.txt"), result.report_text())
    print(f"winding = {result.winding}  "
          f"min_boundary_norm = {result.min_boundary_norm!r}")
    return EXIT_OK if result.winding != 0 else EXIT_UNCERTIFIED


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="phibvp",
        description="solve and certify one-dimensional phi-Laplacian "
                    "boundary value problems")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("problem_file", help="path to a key = value problem file")
        p.add_argument("--out-dir", default=None,
                       help="directory for output files "
                            "(default: alongside the problem file)")
        p.set_defaults(fn=fn)
        return p

    add("solve", cmd_solve, "run the fixed-point solver")
    add("check", cmd_check, "evaluate the existence certificate")
    add("qphi", cmd_qphi, "compute the mean-zeroing shift for a forcing profile")
    add("degree", cmd_degree, "winding number of the planar boundary map")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (AdmissibilityViolation, BoundedPreconditionError,
            NoSignChangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, InconsistentDerivative, MemoryError) as exc:
        # malformed file or expression, domain fault while evaluating an
        # expression, bad problem definition (wrong phi kind, bad T) or a
        # grid too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
