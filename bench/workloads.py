"""The four benchmark workloads.

A workload is a fixed batch of operations made from the seed.  Each
operation is one call into a public entry point of phibvp (``cli.main``,
``solve``, ``shooting_oracle``, ``check_growth``, ``check_signs``,
``brouwer_degree`` or ``newton_sign_sum``) plus the checks its output
must pass.  The runner times the call and runs the checks outside the
timed region.  Every workload is a closed loop with one caller: the next
operation starts when the previous one has returned.

The seed only moves parameters inside ranges where every draw stays
solvable and keeps its expected verdict, so no operation is expected to
fail; a check that does fail is a defect, never a reason to redraw.
"""

from __future__ import annotations

import hashlib
import io
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

# Tolerances of the acceptance gate in tests/test_acceptance.py.
BC_TOL = 1e-8
ODE_TOL = 1e-4
ORACLE_GAP_TOL = 1e-4
EXACT_TOL = 1e-6
QPHI_TOL = 1e-12  # documented bound on |G(s)| / T of the mean-zero shift


@dataclass
class Outcome:
    """What the checks of one operation found."""

    problems: list[str] = field(default_factory=list)
    digest: str = ""
    gap: float | None = None
    err: float | None = None
    counts: dict[str, int] = field(default_factory=dict)

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


@dataclass
class Op:
    """One timed call (``call``) and the checks on its result (``check``).

    ``phase`` names the end-to-end figure the call's time adds to and
    ``span`` the root span it opens in a traced run.  ``check`` receives
    a dict shared by the operations of one pass, so a later operation can
    compare against an earlier one's result.
    """

    name: str
    phase: str
    span: str
    call: Callable[[], Any]
    check: Callable[[Any, dict], Outcome]
    prepare: Callable[[], None] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[..., list[Op]]


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray)
                 else str(p).encode())
    return h.hexdigest()


def _draw(rng: random.Random, nominal: float, spread: float) -> float:
    """nominal scaled by a factor in [1 - spread, 1 + spread], 4 decimals."""
    return round(nominal * (1.0 + rng.uniform(-spread, spread)), 4)


def _residual_checks(out: Outcome, converged, bc, ode) -> None:
    out.require(converged, "solve did not converge")
    out.require(bc <= BC_TOL, f"bc_residual {bc!r} > {BC_TOL}")
    out.require(ode <= ODE_TOL, f"ode_residual {ode!r} > {ODE_TOL}")


# ------------------------------------------------------------ library ops

def _spec(api, problem: str, phi: tuple, f: str, T: float, **knobs):
    solver = api.solver
    return solver.ProblemSpec(
        problem=solver.ProblemClass(problem),
        phi=api.homeomorphism.make_homeomorphism(*phi),
        f=api.expr.parse_expr(f),
        T=T, **knobs)


def solve_op(api, label: str, spec) -> Op:
    def check(report, state):
        w = report.solution
        out = Outcome(digest=_digest(w.u, w.du, report.report_text()))
        _residual_checks(out, report.converged, report.bc_residual,
                         report.ode_residual)
        out.counts["solver.lambda_stages"] = len(report.lambda_path)
        state[label] = w
        return out

    return Op(f"{label}/solve", "solve", "solver.solve",
              lambda: api.solver.solve(spec), check)


def oracle_op(api, label: str, spec) -> Op:
    def check(traj, state):
        out = Outcome(digest=_digest(traj.u, traj.du))
        solved = state.get(label)
        out.require(solved is not None, "no solve result to compare against")
        if solved is not None:
            out.gap = float(np.max(np.abs(solved.u - traj.u)))
            out.require(out.gap <= ORACLE_GAP_TOL,
                        f"oracle gap {out.gap!r} > {ORACLE_GAP_TOL}")
        return out

    return Op(f"{label}/oracle", "oracle", "solver.oracle",
              lambda: api.solver.shooting_oracle(spec), check)


# The acceptance battery's six families, two per boundary-condition
# class: (label, class, phi, f with a seeded parameter p, T, nominal p).
# The classic families are damped (df/dv < 0), so Picard converges there
# without a Newton-Krylov handoff.
BATTERY = (
    ("dirichlet-a", "dirichlet", ("mean_curvature", 1.0), "u - {p}", 0.1, 2.0),
    ("dirichlet-b", "dirichlet", ("mean_curvature", 2.0), "cos({p}*t) + u/2",
     0.5, 2.0),
    ("singular-a", "threepoint_singular", ("relativistic", 1.0), "t - {p}*u",
     1.0, 1.0),
    ("singular-b", "threepoint_singular", ("relativistic", 1.5),
     "sin(t) + u/{p}", 0.8, 2.0),
    ("classic-a", "threepoint_classic", ("power", 4.0), "-v/{p} + cos(t)/4",
     1.0, 2.0),
    ("classic-b", "threepoint_classic", ("identity",), "-v/2 + t/{p}", 1.0, 4.0),
)
# A 1% spread keeps the oracle's Newton and brentq step counts the same on
# every seed (at 5% the power-law classic family needs 12 or 13 RK4 sweeps
# depending on the draw), so timing differences between seeds come from
# the machine rather than from the draw.
SPREAD = 0.01


# The acceptance gate solves the battery at tol_fp 1e-13, but at that
# tolerance some draws never converge: relativistic 1.5, f = sin(t) + u/1.9882,
# T = 0.8 stalls with the Picard residual at 2.6e-13 and raises NonConvergence
# after 11,778 iterations.  1e-12 converges on every seed tried (1 to 40).
TOL_FP = 1e-12


def _battery_specs(api, seed: int, classes: tuple[str, ...], **knobs):
    rng = random.Random(seed)
    for label, problem, phi, f, T, p in BATTERY:
        f_src = f.format(p=_draw(rng, p, SPREAD))
        if problem in classes:
            yield label, _spec(api, problem, phi, f_src, T, **knobs)


def build_crosscheck(api, seed: int, tmp: Path, tiny: bool = False) -> list[Op]:
    classes = ("dirichlet",) if tiny else (
        "dirichlet", "threepoint_singular", "threepoint_classic")
    ops = []
    for label, spec in _battery_specs(api, seed, classes, tol_fp=TOL_FP,
                                      grid_n=101 if tiny else 1001):
        ops += [solve_op(api, label, spec), oracle_op(api, label, spec)]
        if tiny:
            break
    return ops


def build_fine_grid(api, seed: int, tmp: Path, tiny: bool = False) -> list[Op]:
    ops = []
    for label, spec in _battery_specs(api, seed,
                                      ("dirichlet", "threepoint_singular"),
                                      tol_fp=TOL_FP,
                                      grid_n=201 if tiny else 20001):
        ops.append(solve_op(api, label, spec))
        if tiny:
            break
    return ops


# ----------------------------------------------------------- certificates

def _growth_op(api, label, phi, f, h, T, expect) -> Op:
    c, e = api.certificates, api.expr
    args = (api.homeomorphism.make_homeomorphism(*phi), e.parse_expr(f),
            e.parse_expr(h), e.parse_expr("u"), e.parse_expr("1"), T)

    def check(cert, state):
        out = Outcome(digest=_digest(cert.report_text()))
        out.require(cert.verdict.status == expect,
                    f"growth verdict {cert.verdict.status!r}, expected {expect!r}")
        return out

    return Op(f"{label}/growth", "certify", "certificates.growth",
              lambda: c.check_growth(*args), check)


def _signs_op(api, label, f, T, expect, rho_min) -> Op:
    c, e = api.certificates, api.expr
    args = (api.homeomorphism.make_homeomorphism("power", 4.0), e.parse_expr(f),
            -1.0, 1.0, e.parse_expr("-1"), T)

    def check(cert, state):
        out = Outcome(digest=_digest(cert.report_text()))
        out.require(cert.verdict.status == expect,
                    f"sign verdict {cert.verdict.status!r}, expected {expect!r}")
        if expect == "checked_on_grid" and cert.rho_min is not None:
            out.require(abs(cert.rho_min - rho_min) <= 1e-12 * rho_min,
                        f"rho_min {cert.rho_min!r}, expected {rho_min!r}")
        return out

    return Op(f"{label}/signs", "certify", "certificates.signs",
              lambda: c.check_signs(*args), check)


def _degree_ops(api, label, f, T, rho, degree, starts) -> list[Op]:
    c = api.certificates
    fe = api.expr.parse_expr(f)

    def check_winding(res, state):
        out = Outcome(digest=_digest(res.report_text()))
        out.require(res.winding == degree,
                    f"winding {res.winding}, expected {degree}")
        state[label] = res.winding
        return out

    def check_sum(res, state):
        sign_sum, zeros, trusted = res
        out = Outcome(digest=_digest(sign_sum, trusted, *zeros))
        out.require(trusted, "Newton sign sum is not trustworthy")
        out.require(sign_sum == state.get(label),
                    f"sign sum {sign_sum} != winding {state.get(label)}")
        return out

    return [
        Op(f"{label}/degree", "certify", "certificates.winding",
           lambda: c.brouwer_degree(fe, T, rho), check_winding),
        Op(f"{label}/sign-sum", "certify", "certificates.newton_sign_sum",
           lambda: c.newton_sign_sum(fe, T, rho, starts_per_axis=starts),
           check_sum),
    ]


# The certificate families keep their verdicts for any spread well past
# this one, and their work does not depend on where the draw lands.
VERDICT_SPREAD = 0.05
# Sign-sum starts per axis: 8 keeps the Newton multistart from dwarfing the
# box sweeps in the pass while still finding the single zero from every
# start inside the disk.
SIGN_SUM_STARTS = 8


def build_certify(api, seed: int, tmp: Path, tiny: bool = False) -> list[Op]:
    """Families whose verdicts hold by construction.

    Growth, f = u - k with n = u, dn = 1: the bound |f| <= f*n + h reduces to
    (x - k)(x + 1) + h >= 0, whose minimum is h - ((k + 1)/2)^2.  So
    h = ((k + 1)/2)^2 + 1 passes (the sweep scans the whole box),
    h = ((k + 1)/2)^2 - 1/2 fails at a witness in the first t-slice, and
    doubling T pushes the integral of h past a/2 (not applicable).

    Signs and degree, f = +-(exp(v)/A - 1) with A < e and the cubic law:
    the planar map has the single zero (0, ln A) with Jacobian determinant
    -+1, so the degree is -1 for the + family (which passes the sign
    conditions) and +1 for the - family (which fails them).  With c = -1,
    m1 = -1, m2 = 1 the certificate's radius is rho_min = (1+2T)^(1/3)(2+T).
    """
    rng = random.Random(seed)
    ops = []
    for i in range(2):
        a, k = _draw(rng, 1.0, VERDICT_SPREAD), _draw(rng, 2.0, VERDICT_SPREAD)
        base = ((k + 1.0) / 2.0) ** 2
        phi = ("mean_curvature", a)
        f = f"u - {k!r}"
        ops.append(_growth_op(api, f"growth-pass-{i}", phi, f,
                              repr(round(base + 1.0, 4)), 0.1, "checked_on_grid"))
        if i == 0:
            ops.append(_growth_op(api, "growth-fail", phi, f,
                                  repr(round(base - 0.5, 4)), 0.1, "failed_at"))
            ops.append(_growth_op(api, "growth-n/a", phi, f,
                                  repr(round(base + 1.0, 4)), 0.2,
                                  "not_applicable"))
    if tiny:
        return ops[1:2]
    A, T = _draw(rng, 2.0, VERDICT_SPREAD), _draw(rng, 1.0, 2 * VERDICT_SPREAD)
    widen = rng.uniform(1.0, 1.2)
    rho_min = (1.0 + 2.0 * T) ** (1.0 / 3.0) * (2.0 + T)
    for label, f, verdict, degree in (
            ("exp-up", f"exp(v)/{A!r} - 1", "checked_on_grid", -1),
            ("exp-down", f"1 - exp(v)/{A!r}", "failed_at", 1)):
        ops.append(_signs_op(api, label, f, T, verdict, rho_min))
        ops += _degree_ops(api, label, f, T, rho_min * widen, degree,
                           SIGN_SUM_STARTS)
    return ops


# -------------------------------------------------------------------- CLI

# (problem file, subcommand): every shipped file under every subcommand
# that accepts it.
CLI_BATCH = (
    ("classic_cubic.txt", "solve"),
    ("classic_cubic.txt", "check"),
    ("degree_cubic.txt", "degree"),
    ("dirichlet_short.txt", "solve"),
    ("dirichlet_short.txt", "check"),
    ("qphi_profile.txt", "qphi"),
    ("singular_constant.txt", "solve"),
    ("singular_constant.txt", "check"),
)
PROBLEMS = Path(__file__).resolve().parents[1] / "problems"
CLI_PHASE = {"solve": "solve", "check": "certify", "degree": "certify",
             "qphi": "qphi"}


def _closed_form(stem: str):
    """Exact solutions the shipped problem files document."""
    if stem == "classic_cubic":
        return lambda t: math.log(2.0) * t
    if stem == "singular_constant":
        c = 0.5 / math.sqrt(1.25) - math.sqrt(1.25)
        return lambda t: np.sqrt(1.0 + (t - 0.5) ** 2) + c
    return None


def _key_values(path: Path) -> dict[str, str]:
    return dict(line.split("=", 1) for line in path.read_text().splitlines())


def _cli_check(stem: str, sub: str, out_dir: Path):
    base = out_dir / stem

    def check(code, state):
        files = sorted(out_dir.iterdir())
        out = Outcome(digest=_digest(code, *(p.name + p.read_text()
                                             for p in files)))
        out.counts["cli.bytes_written"] = sum(p.stat().st_size for p in files)
        out.require(code == 0, f"exit code {code}, expected 0")
        if code != 0:
            return out
        if sub == "solve":
            rep = _key_values(Path(f"{base}.report.txt"))
            _residual_checks(out, rep["converged"] == "true",
                             float(rep["bc_residual"]), float(rep["ode_residual"]))
            out.counts["solver.lambda_stages"] = len(rep["lambda_path"].split(","))
            exact = _closed_form(stem)
            if exact is not None:
                t, u = np.loadtxt(f"{base}.solution.csv", delimiter=",",
                                  skiprows=1, usecols=(0, 1), unpack=True)
                out.err = float(np.max(np.abs(u - exact(t))))
                out.require(out.err <= EXACT_TOL,
                            f"closed-form error {out.err!r} > {EXACT_TOL}")
        elif sub == "check":
            cert = _key_values(Path(f"{base}.certificate.txt"))
            want = "unconditional" if stem == "singular_constant" \
                else "checked_on_grid"
            out.require(cert["verdict"] == want,
                        f"verdict {cert['verdict']!r}, expected {want!r}")
            if stem == "classic_cubic":
                out.require(cert.get("winding") == "-1",
                            f"winding {cert.get('winding')!r}, expected -1")
        elif sub == "degree":
            deg = _key_values(Path(f"{base}.degree.txt"))
            out.require(deg["winding"] == "-1",
                        f"winding {deg['winding']!r}, expected -1")
        else:
            q = _key_values(Path(f"{base}.qphi.txt"))
            out.require(abs(float(q["residual"])) <= QPHI_TOL,
                        f"qphi residual {q['residual']} > {QPHI_TOL}")
        return out

    return check


def cli_op(api, tmp: Path, index: int, problem: str, sub: str) -> Op:
    stem = Path(problem).stem
    out_dir = tmp / f"{index}-{sub}-{stem}"
    argv = [sub, str(PROBLEMS / problem), "--out-dir", str(out_dir)]

    def prepare():
        out_dir.mkdir(parents=True, exist_ok=True)
        for p in out_dir.iterdir():
            p.unlink()

    def call():
        # terminal I/O stays out of the timed region
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return api.cli.main(argv)

    return Op(f"cli {sub} {problem}", CLI_PHASE[sub], "cli.main", call,
              _cli_check(stem, sub, out_dir), prepare)


def build_cli_shipped(api, seed: int, tmp: Path, tiny: bool = False) -> list[Op]:
    batch = [("qphi_profile.txt", "qphi")] if tiny else list(CLI_BATCH)
    random.Random(seed).shuffle(batch)
    return [cli_op(api, tmp, i, problem, sub)
            for i, (problem, sub) in enumerate(batch)]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "cli-shipped",
            "the user entry point: cli.main on every shipped problem file "
            "(8 invocations, seeded order); dominated by the classic_cubic "
            "Picard stall, so solver-loop and GridFunction changes show here",
            build_cli_shipped),
        Workload(
            "crosscheck",
            "the six acceptance-battery families, seeded, solved at grid_n "
            "1001 and re-solved by shooting_oracle; bound by eval_many "
            "overhead on many tiny arrays, no Newton-Krylov handoff",
            build_crosscheck),
        Workload(
            "fine-grid",
            "seeded Dirichlet and singular families at grid_n 20001: "
            "q_phi bisection applying phi.inverse to 160 KB arrays, so "
            "per-element work dominates and per-call overhead does not",
            build_fine_grid),
        Workload(
            "certify",
            "seeded growth and sign certificates (passing sweeps scan the "
            "whole box, failing ones stop at the witness), winding numbers "
            "at radii >= rho_min and Newton sign sums; certificates only",
            build_certify),
    )
}
