"""Boundary value solver: damped fixed-point iteration plus an independent
collocation oracle.

``solve`` iterates the class-appropriate integral map with adaptive
damping and (for the Dirichlet and classic classes) a homotopy parameter
continued from 0 to 1.  Each damped step is Anderson-mixed (type II,
Walker & Ni, "Anderson acceleration for fixed-point iterations", SIAM J.
Numer. Anal. 49, 2011): it extrapolates from the last ``_ANDERSON_DEPTH``
= 3 steps of the stacked state (u, du), and this history is cleared
whenever the gap rises.  Where plain iteration provably cannot converge
(the classic map has expanding directions whenever df/du' > 0 along the
solution), a Newton-Krylov pass on the fixed-point residual takes over.
The handoff happens as soon as a stage stalls, when its best residual has
not halved (``_STALL_FACTOR``) in ``_STALL_WINDOW`` = 50 iterations, not
after the whole ``MAX_ITER`` budget.  It is reported in
``SolveReport.method`` and logged with its reason; it never happens
silently.  A stage that diverges or meets a domain fault ends the solve
without one: its iterate is not near a fixed point.

``shooting_oracle`` solves the same problem by a genuinely different
discretization: scipy's ``solve_bvp``, fourth-order collocation of the
first-order system in (u, phi(u')) on its own adaptive mesh, from the
first of a fixed list of candidate starts that converges.  Tests compare
the two routes; they share no discretization code.

Each problem class is one ``_Rules`` record in ``_RULES``, the one place
where this module tells the classes apart.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
import scipy.optimize

# eval_many is unused here, but bench/tracing.py patches this name
from .expr import EvalDomainError, Expr, eval_many, kernel  # noqa: F401
from .function_space import (
    DEFAULT_N,
    Grid,
    GridFunction,
    cumulative_integral_from_0,
    l1_norm,
    zero_function,
)
from .homeomorphism import EPS_DOM, Homeomorphism, Kind
from .operators import (
    AdmissibilityViolation,
    classic_threepoint_map,
    dirichlet_map,
    nemytskii,
    singular_threepoint_map,
)

log = logging.getLogger(__name__)

BC_RESIDUAL_TOL = 1e-8
# iteration budget of one Picard stage
MAX_ITER = 10_000
_LAMBDA_STEP_MIN = 1e-3
_THETA_MIN = 1e-3
# a Picard stage has stalled when its best residual has not dropped to
# _STALL_FACTOR times the last marked best within _STALL_WINDOW iterations
_STALL_WINDOW = 50
_STALL_FACTOR = 0.5
_DIVERGENCE_CAP = 1e8
# differences of past iterates an Anderson step mixes in
_ANDERSON_DEPTH = 3


class ProblemClass(enum.Enum):
    DIRICHLET_BOUNDED = "dirichlet"
    THREEPOINT_SINGULAR = "threepoint_singular"
    THREEPOINT_CLASSIC = "threepoint_classic"


@dataclass(frozen=True)
class _Rules:
    """A class's phi kind, map(phi, f, w, lam), whether lambda is continued,
    signed boundary residuals bc(u(0), u(T), u'(0), u'(T)) for the report and
    the oracle, and the oracle's candidate starts(phi, T), each (u(0),
    phi(u'(0)))."""

    kind: Kind
    map: Callable[[Homeomorphism, Expr, GridFunction, float], GridFunction]
    homotopy: bool
    bc: Callable[..., list]
    starts: Callable[[Homeomorphism, float], list[tuple[float, float]]]


_RULES = {
    ProblemClass.DIRICHLET_BOUNDED: _Rules(
        Kind.BOUNDED, dirichlet_map, True,
        lambda u0, uT, v0, vT: [u0, uT],
        # 41 levels strictly inside phi's range (-a, a)
        lambda phi, T: [(0.0, w) for w in np.linspace(-phi.a, phi.a, 43)[1:-1]]),
    ProblemClass.THREEPOINT_SINGULAR: _Rules(
        Kind.SINGULAR, lambda phi, f, w, lam: singular_threepoint_map(phi, f, w), False,
        lambda u0, uT, v0, vT: [uT - u0, vT - u0],
        lambda phi, T: [(c * phi.a, float(phi.forward(c * phi.a * 0.9)))
                        for c in (0.0, 0.3, -0.3, 0.6, -0.6)]),
    ProblemClass.THREEPOINT_CLASSIC: _Rules(
        Kind.CLASSIC, classic_threepoint_map, True,
        lambda u0, uT, v0, vT: [vT - v0, uT - v0],
        lambda phi, T: [(s * (1.0 - T), float(phi.forward(s)))
                        for s in (0.5, -0.5, 0.0, 1.0, -1.0, 2.0, -2.0, 0.25, -0.25)]),
}


@dataclass(frozen=True)
class ProblemSpec:
    """A boundary value problem instance plus the solver settings that
    callers vary: grid size, tolerance and the first homotopy step."""

    problem: ProblemClass
    phi: Homeomorphism
    f: Expr
    T: float
    grid_n: int = DEFAULT_N
    tol_fp: float = 1e-10
    lambda_step: float = 0.1

    def __post_init__(self) -> None:
        need = _RULES[self.problem].kind
        if self.phi.kind is not need:
            raise ValueError(
                f"{self.problem.value} needs a {need.value} homeomorphism, "
                f"got {self.phi.name} ({self.phi.kind.value})")
        if not (self.T > 0 and np.isfinite(self.T)):
            raise ValueError(f"T must be positive, got {self.T}")
        # ode_residual needs an interior node
        if self.grid_n < 3:
            raise ValueError(f"grid_n must be at least 3, got {self.grid_n}")
        if not (self.tol_fp > 0 and np.isfinite(self.tol_fp)):
            raise ValueError(f"tol must be positive and finite, got {self.tol_fp}")
        if not _LAMBDA_STEP_MIN <= self.lambda_step <= 1.0:
            raise ValueError(f"lambda_step must lie in [{_LAMBDA_STEP_MIN:g}, 1], "
                             f"got {self.lambda_step!r}")


@dataclass
class SolveReport:
    """Solve outcome and diagnostics.

    fp_residual is the integral norm of u - M(u) at the final iterate
    (undamped map gap, not the damped step size); ode_residual the sup of
    the centered-difference defect over interior nodes; omega_margin the
    slack a - EPS_DOM - osc g of q_phi's test on the load g, else None.
    """

    solution: GridFunction
    converged: bool
    fp_residual: float
    ode_residual: float
    bc_residual: float
    omega_margin: float | None
    lambda_path: tuple[tuple[float, int], ...]
    method: str
    iterations: int

    def report_text(self) -> str:
        lines = [
            f"converged={str(self.converged).lower()}",
            f"method={self.method}",
            f"fp_residual={self.fp_residual!r}",
            f"ode_residual={self.ode_residual!r}",
            f"bc_residual={self.bc_residual!r}",
            f"omega_margin={'n/a' if self.omega_margin is None else repr(self.omega_margin)}",
            f"iterations={self.iterations}",
            "lambda_path=" + ",".join(f"{lam!r}:{it}" for lam, it in self.lambda_path),
        ]
        return "\n".join(lines) + "\n"


class NonConvergence(Exception):
    """A stage converged neither by iteration nor by Newton-Krylov.
    Existence is not disproved; the attached report carries the best
    iterate and its diagnostics."""

    def __init__(self, best_residual: float, iterations: int, report: SolveReport):
        self.best_residual = best_residual
        self.iterations = iterations
        self.report = report
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(best residual {best_residual!r})")


class OracleFailure(Exception):
    """No candidate start of the shooting oracle converged."""


def apply_fixed_point_map(spec: ProblemSpec, w: GridFunction,
                          lam: float = 1.0) -> GridFunction:
    return _RULES[spec.problem].map(spec.phi, spec.f, w, lam)


def _fp_gap(spec: ProblemSpec, w: GridFunction,
            lam: float) -> tuple[np.ndarray, float, bool]:
    """The one fixed-point residual and convergence test: F = M_lam(w) - w
    stacked on (u, du), the integral norm r of F's u-part, and whether r
    meets tol_fp * (1 + integral norm of w.u)."""
    mw = apply_fixed_point_map(spec, w, lam)
    F = np.concatenate([mw.u - w.u, mw.du - w.du])
    r = l1_norm(w.grid, F[:w.grid.n])
    return F, r, r <= spec.tol_fp * (1.0 + l1_norm(w.grid, w.u))


@dataclass
class _StageResult:
    u: GridFunction
    iterations: int
    converged: bool
    best_residual: float
    # why the stage ended: converged, stalled, budget, diverged or
    # domain_fault (Picard); converged or failed (Newton-Krylov)
    reason: str


def _picard_stage(spec: ProblemSpec, lam: float, u: GridFunction) -> _StageResult:
    """Anderson-mixed Picard iteration on the stacked state z = (u, du).

    With the residual f = M(z) - z from _fp_gap and the differences dZ, dF
    of the last _ANDERSON_DEPTH successive z and f, the step is z + theta *
    f - gamma @ (dZ + theta * dF), where gamma solves the normal equations
    of min |f - gamma @ dF| with a Tikhonov term 1e-12 * |f|^2.  The history
    is cleared at the start of the stage and whenever the gap rises, and
    a step without history is the damped step (1 - theta) * z + theta * M(z).
    """
    grid = u.grid
    n = grid.n
    theta = 1.0
    prev_r = np.inf
    best_r = np.inf
    best_u = u
    # best residual at the last halving, and the iteration it happened in
    mark_r = np.inf
    mark_k = 0
    step = np.empty(2 * n)
    # history rows [0, depth), the oldest overwritten first, and their
    # Gram matrix dF @ dF.T; between a step and the next gap, row `slot`
    # holds that step and -f, and the next f completes its dF
    dZ = np.empty((_ANDERSON_DEPTH, 2 * n))
    dF = np.empty((_ANDERSON_DEPTH, 2 * n))
    gram = np.empty((_ANDERSON_DEPTH, _ANDERSON_DEPTH))
    depth = 0
    slot = 0
    for k in range(1, MAX_ITER + 1):
        try:
            f, r, ok = _fp_gap(spec, u, lam)
        except EvalDomainError:
            if k == 1:
                # a problem-definition fault; a later stage starts where f,
                # which lam does not enter, was evaluated without one
                raise
            return _StageResult(best_u, k, False, best_r, "domain_fault")
        if ok:
            return _StageResult(u, k, True, r, "converged")
        if r < best_r:
            best_r = r
            best_u = u
        if best_r <= _STALL_FACTOR * mark_r:
            mark_r, mark_k = best_r, k
        if not np.isfinite(r) or r > _DIVERGENCE_CAP:
            return _StageResult(best_u, k, False, best_r, "diverged")
        if k - mark_k >= _STALL_WINDOW:
            return _StageResult(best_u, k, False, best_r, "stalled")
        if r > prev_r:
            theta = max(theta / 2.0, _THETA_MIN)
            depth = slot = 0
        else:
            theta = min(theta * 1.2, 1.0)
            if k > 1:
                dF[slot] += f
                depth = min(depth + 1, _ANDERSON_DEPTH)
                gram[slot, :depth] = gram[:depth, slot] = dF[:depth] @ dF[slot]
                slot = (slot + 1) % _ANDERSON_DEPTH
        prev_r = r
        np.multiply(f, theta, out=step)
        if depth:
            a = gram[:depth, :depth] + 1e-12 * (f @ f) * np.eye(depth)
            gamma = np.linalg.solve(a, dF[:depth] @ f)
            step -= gamma @ dZ[:depth]
            step -= theta * (gamma @ dF[:depth])
        dZ[slot] = step
        np.negative(f, out=dF[slot])
        u = GridFunction(grid, u.u + step[:n], u.du + step[n:])
    return _StageResult(best_u, MAX_ITER, False, best_r, "budget")


def _newton_stage(spec: ProblemSpec, lam: float, u: GridFunction) -> _StageResult:
    """Newton-Krylov on z - M(z) = -F(z), F the residual of _fp_gap."""
    grid = u.grid
    n = grid.n
    evals = 0

    def residual(z: np.ndarray) -> np.ndarray:
        nonlocal evals
        evals += 1
        return -_fp_gap(spec, GridFunction(grid, z[:n], z[n:]), lam)[0]

    z0 = np.concatenate([u.u, u.du])
    f_tol = 0.25 * spec.tol_fp / max(1.0, spec.T)
    try:
        z = scipy.optimize.newton_krylov(residual, z0, f_tol=f_tol, maxiter=100)
    except (scipy.optimize.NoConvergence, ValueError, AdmissibilityViolation):
        # EvalDomainError is a ValueError; any of these means the pass failed
        return _StageResult(u, evals, False, np.inf, "failed")
    out = GridFunction(grid, z[:n], z[n:])
    _, r, ok = _fp_gap(spec, out, lam)
    return _StageResult(out, evals, ok, r, "converged" if ok else "failed")


def ode_residual_samples(phi: Homeomorphism, f: Expr, w: GridFunction) -> np.ndarray:
    """Per-node defect of (phi(w'))' = f(t, w, w').

    Centered differences of phi(w') at interior nodes, one-sided at the
    two endpoints.
    """
    grid = w.grid
    pw = np.asarray(phi.forward(w.du), dtype=float)
    fv = nemytskii(f, w)
    out = np.empty(grid.n)
    h = grid.h
    out[1:-1] = (pw[2:] - pw[:-2]) / (2.0 * h) - fv[1:-1]
    out[0] = (pw[1] - pw[0]) / h - fv[0]
    out[-1] = (pw[-1] - pw[-2]) / h - fv[-1]
    return out


def ode_residual(phi: Homeomorphism, f: Expr, w: GridFunction) -> float:
    """Sup over interior nodes of the centered-difference defect."""
    return float(np.max(np.abs(ode_residual_samples(phi, f, w)[1:-1])))


def _build_report(spec: ProblemSpec, u: GridFunction, path: list[tuple[float, int]],
                  method: str, fp_res: float, fp_ok: bool) -> SolveReport:
    margin, ode_res = None, np.inf
    try:
        if spec.phi.kind is Kind.BOUNDED:
            g = cumulative_integral_from_0(u.grid, nemytskii(spec.f, u))
            margin = spec.phi.a - EPS_DOM - float(np.ptp(g))
        ode_res = ode_residual(spec.phi, spec.f, u)
    except EvalDomainError:
        pass
    bc = _RULES[spec.problem].bc(float(u.u[0]), float(u.u[-1]),
                                 float(u.du[0]), float(u.du[-1]))
    bc_res = max(abs(r) for r in bc)
    return SolveReport(
        solution=u,
        converged=fp_ok and bc_res <= BC_RESIDUAL_TOL,
        fp_residual=fp_res,
        ode_residual=ode_res,
        bc_residual=bc_res,
        omega_margin=margin,
        lambda_path=tuple(path),
        method=method,
        iterations=sum(it for _, it in path),
    )


def _exit_reason(st: _StageResult, lam: float) -> str:
    """Why a Picard stage ended unconverged, for the log."""
    if st.reason == "stalled":
        return (f"stalled at lambda={lam:g} (best residual {st.best_residual:g} "
                f"not halved in {_STALL_WINDOW} iterations)")
    return (f"stopped at lambda={lam:g} ({st.reason} after {st.iterations} "
            f"iterations, best residual {st.best_residual:g})")


def solve(spec: ProblemSpec) -> SolveReport:
    """Iterate the fixed-point map to tolerance and return diagnostics.

    One continuation loop from lambda = 0 to 1 (Allgower & Georg,
    "Introduction to Numerical Continuation Methods", SIAM 2003): the step
    starts at lambda_step and doubles after each stage Picard meets on its
    own.  It halves where a stage leaves the Dirichlet map's admissible
    set, and a stage that fails after it grew runs again at lambda_step;
    either way it never grows again, lest a stiff load alternate refused
    and accepted steps.  The singular class takes a step of 1: one stage.

    Raises NonConvergence (with the diagnostic report attached) when a
    stage converges neither by iteration nor by Newton-Krylov, or diverges
    or meets a domain fault, and AdmissibilityViolation when even the
    smallest homotopy step leaves the Dirichlet map's admissible set.
    """
    grid = Grid(spec.T, spec.grid_n)
    u = zero_function(grid)
    path: list[tuple[float, int]] = []
    method = "picard"
    # exact rational arithmetic on the step as written, so that lambda is
    # a sum of steps rounded once (0.3, not 0.30000000000000004), doubling
    # and halving stay exact and the last stage is exactly 1
    first = lam_step = Fraction(str(float(spec.lambda_step))
                                if _RULES[spec.problem].homotopy else 1)
    lam_done = Fraction(0)
    grow = True
    while lam_done < 1:
        lam = float(min(1, lam_done + lam_step))
        try:
            st = _picard_stage(spec, lam, u)
        except AdmissibilityViolation:
            if lam_step / 2 >= _LAMBDA_STEP_MIN:
                lam_step, grow = lam_step / 2, False
                continue
            raise
        iterations, best = st.iterations, st.best_residual
        factor = 2 if grow and st.converged else 1  # Picard met tol alone
        if not st.converged:
            # only a stalled or used-up stage is near a fixed point for
            # Newton-Krylov to polish; a divergence or a domain fault is not
            handoff = st.reason in ("stalled", "budget")
            log.warning("fixed-point iteration %s; %s", _exit_reason(st, lam),
                        "switching to Newton-Krylov" if handoff else
                        "no Newton-Krylov handoff after a divergence or a domain fault")
            if handoff:
                st = _newton_stage(spec, lam, st.u)
                iterations += st.iterations
                method = "picard+newton"
        if not st.converged and grow and lam_step > first:
            log.warning("retrying from lambda=%g at the first step", float(lam_done))
            lam_step, grow = first, False
            continue
        path.append((lam, iterations))
        u = st.u
        if not st.converged:
            try:
                _, fp_res, fp_ok = _fp_gap(spec, u, 1.0)
            except (AdmissibilityViolation, EvalDomainError):
                fp_res, fp_ok = np.inf, False
            report = _build_report(spec, u, path, method, fp_res, fp_ok)
            raise NonConvergence(min(best, st.best_residual), report.iterations, report)
        # a sum of steps that rounds to lambda = 1.0 ends the path as 1 does
        lam_done = lam_done + lam_step if lam < 1.0 else Fraction(1)
        lam_step *= factor

    # a converged stage's best residual is the lambda = 1 gap of u
    report = _build_report(spec, u, path, method, st.best_residual, True)
    if not report.converged:
        # the per-stage criterion passed but the final diagnostics did not
        raise NonConvergence(report.fp_residual, report.iterations, report)
    return report


# ------------------------------------------------------------------ oracle

# solve_bvp's residual tolerance, boundary tolerance, initial mesh size
# and node cap, which the requested grid's size does not enter
_BVP_TOL = 1e-8
_BVP_BC_TOL = 1e-10
_BVP_MESH = 11
_BVP_MAX_NODES = 100_000


def shooting_oracle(spec: ProblemSpec) -> GridFunction:
    """Solve the problem by collocation: scipy's ``solve_bvp`` (Kierzenka &
    Shampine, ACM TOMS 27, 2001) on u' = phi^{-1}(w), w' = f(t, u,
    phi^{-1}(w)) in (u, w = phi(u')), w clipped to (-a, a) less EPS_DOM
    for a bounded phi, with the class's boundary rows.

    Each of the class's candidate starts (u(0), w(0)), nearest w = 0
    first, seeds the initial mesh with w = w(0), u = u(0) + phi^{-1}(w(0))
    t; the first that converges gives the answer, sampled on the grid.
    solve_bvp is fourth-order collocation on its own adaptive mesh, so
    this route shares no discretization code with ``solve``: intended for
    cross-validation, not as the primary solver.  The name predates the
    collocation; the benchmark, the tests and README call it.

    Raises OracleFailure when no start converges.
    """
    import scipy.integrate  # about 3 MB of modules that only this needs

    grid = Grid(spec.T, spec.grid_n)
    phi = spec.phi
    rules = _RULES[spec.problem]
    f = kernel(spec.f, lenient=True)
    cap = (phi.a - EPS_DOM) if phi.kind is Kind.BOUNDED else np.inf

    def slope(w: np.ndarray) -> np.ndarray:
        return np.asarray(phi.inverse(np.clip(w, -cap, cap)), dtype=float)

    def rhs(t: np.ndarray, y: np.ndarray) -> np.ndarray:
        v = slope(y[1])
        return np.stack([v, np.broadcast_to(f(t, y[0], v), v.shape)])

    def bc(ya: np.ndarray, yb: np.ndarray) -> np.ndarray:
        v0, vT = slope(np.array([ya[1], yb[1]]))
        return np.array(rules.bc(ya[0], yb[0], v0, vT))

    mesh = np.linspace(0.0, spec.T, _BVP_MESH)
    for u0, w0 in sorted(rules.starts(phi, spec.T), key=lambda s: abs(s[1])):
        guess = np.stack([u0 + slope(w0) * mesh, np.full(_BVP_MESH, w0)])
        # a diverging trial iterate is data: solve_bvp reports its status
        with np.errstate(all="ignore"):
            sol = scipy.integrate.solve_bvp(
                rhs, bc, mesh, guess, tol=_BVP_TOL, bc_tol=_BVP_BC_TOL,
                max_nodes=_BVP_MAX_NODES)
        # solve_bvp's own test lets a nan residual pass (nan > tol is false)
        if sol.success and (sol.rms_residuals <= _BVP_TOL).all():
            u, w = sol.sol(grid.nodes)
            return GridFunction(grid, u, slope(w))
    raise OracleFailure("no start converged in the collocation oracle")
