"""Boundary value solver: damped fixed-point iteration plus an independent
shooting oracle.

``solve`` iterates the class-appropriate integral map with adaptive
damping and (for the Dirichlet and classic classes) a homotopy parameter
continued from 0 to 1.  Where plain iteration provably cannot converge
(the classic map has expanding directions whenever df/du' > 0 along the
solution), a Newton-Krylov pass on the fixed-point residual takes over.
The handoff happens as soon as a stage stalls, when its best residual has
not halved (``_STALL_FACTOR``) in ``_STALL_WINDOW`` = 50 iterations, not
after the whole ``MAX_ITER`` budget.  It is reported in
``SolveReport.method`` and logged with its reason; it never happens
silently.

``shooting_oracle`` solves the same problem by a genuinely different
discretization: RK4 time stepping of the first-order system in
(u, phi(u')) with scalar or two-parameter root finding on the initial
data.  Tests compare the two routes; they share no discretization code.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.optimize

# eval_many is unused here, but bench/tracing.py patches this name
from .expr import EvalDomainError, Expr, eval_many, kernel  # noqa: F401
from .function_space import (
    Grid,
    GridFunction,
    cumulative_integral_from_0,
    l1_norm,
    sup_norm,
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


class ProblemClass(enum.Enum):
    DIRICHLET_BOUNDED = "dirichlet"
    THREEPOINT_SINGULAR = "threepoint_singular"
    THREEPOINT_CLASSIC = "threepoint_classic"


_REQUIRED_KIND = {
    ProblemClass.DIRICHLET_BOUNDED: Kind.BOUNDED,
    ProblemClass.THREEPOINT_SINGULAR: Kind.SINGULAR,
    ProblemClass.THREEPOINT_CLASSIC: Kind.CLASSIC,
}


@dataclass(frozen=True)
class ProblemSpec:
    """A boundary value problem instance plus the solver settings that
    callers vary: grid size, tolerance, homotopy step and method.

    method: "auto" runs damped fixed-point iteration and falls back to
    Newton-Krylov on the residual if a homotopy stage stalls (its best
    residual does not halve in 50 iterations) or fails; "picard" disables
    the fallback, spends the whole MAX_ITER budget on every stage and
    reports non-convergence instead.
    """

    problem: ProblemClass
    phi: Homeomorphism
    f: Expr
    T: float
    grid_n: int = 1001
    tol_fp: float = 1e-10
    lambda_step: float = 0.1
    method: str = "auto"

    def __post_init__(self) -> None:
        need = _REQUIRED_KIND[self.problem]
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
        if self.method not in ("auto", "picard"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass
class SolveReport:
    """Solve outcome and diagnostics.

    fp_residual is the integral norm of u - M(u) at the final iterate
    (undamped map gap, not the damped step size); ode_residual the sup of
    the centered-difference defect over interior nodes; omega_margin the
    slack of the bounded-class admissibility bound, None elsewhere.
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
    """The shooting oracle could not bracket or polish a root."""


def apply_fixed_point_map(spec: ProblemSpec, w: GridFunction,
                          lam: float = 1.0) -> GridFunction:
    if spec.problem is ProblemClass.DIRICHLET_BOUNDED:
        return dirichlet_map(spec.phi, spec.f, w, lam)
    if spec.problem is ProblemClass.THREEPOINT_SINGULAR:
        return singular_threepoint_map(spec.phi, spec.f, w)
    return classic_threepoint_map(spec.phi, spec.f, w, lam)


def _fp_gap(spec: ProblemSpec, w: GridFunction,
            lam: float) -> tuple[GridFunction, float, bool]:
    """The one convergence test: M_lam(w), the integral norm of the
    u-component gap w.u - M_lam(w).u, and whether that gap meets
    tol_fp * (1 + integral norm of w.u)."""
    mw = apply_fixed_point_map(spec, w, lam)
    r = l1_norm(w.grid, w.u - mw.u)
    return mw, r, r <= spec.tol_fp * (1.0 + l1_norm(w.grid, w.u))


def _blend(aw: GridFunction, bw: GridFunction, theta: float) -> GridFunction:
    return GridFunction(aw.grid,
                        (1.0 - theta) * aw.u + theta * bw.u,
                        (1.0 - theta) * aw.du + theta * bw.du)


@dataclass
class _StageResult:
    u: GridFunction
    iterations: int
    converged: bool
    best_residual: float
    # why the stage ended: converged, stalled, budget, diverged or
    # domain_fault (Picard); converged or failed (Newton-Krylov)
    reason: str


def _picard_stage(spec: ProblemSpec, lam: float, u: GridFunction,
                  first_stage: bool) -> _StageResult:
    theta = 1.0
    prev_r = np.inf
    best_r = np.inf
    best_u = u
    # best residual at the last halving, and the iteration it happened in
    mark_r = np.inf
    mark_k = 0
    for k in range(1, MAX_ITER + 1):
        try:
            w, r, ok = _fp_gap(spec, u, lam)
        except EvalDomainError:
            if first_stage and k == 1:
                raise  # a fault at the start point is a problem-definition fault
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
        if spec.method == "auto" and k - mark_k >= _STALL_WINDOW:
            return _StageResult(best_u, k, False, best_r, "stalled")
        theta = max(theta / 2.0, _THETA_MIN) if r > prev_r \
            else min(theta * 1.2, 1.0)
        prev_r = r
        u = _blend(u, w, theta)
    return _StageResult(best_u, MAX_ITER, False, best_r, "budget")


def _newton_stage(spec: ProblemSpec, lam: float, u: GridFunction) -> _StageResult:
    """Newton-Krylov on z - M(z) in the stacked (u, du) representation."""
    grid = u.grid
    n = grid.n
    evals = 0

    def residual(z: np.ndarray) -> np.ndarray:
        nonlocal evals
        evals += 1
        w = GridFunction(grid, z[:n], z[n:])
        mw = apply_fixed_point_map(spec, w, lam)
        return z - np.concatenate([mw.u, mw.du])

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


def bc_residual(problem: ProblemClass, w: GridFunction) -> float:
    u0 = float(w.u[0])
    uT = float(w.u[-1])
    du0 = float(w.du[0])
    duT = float(w.du[-1])
    if problem is ProblemClass.DIRICHLET_BOUNDED:
        return max(abs(u0), abs(uT))
    if problem is ProblemClass.THREEPOINT_SINGULAR:
        return max(abs(uT - u0), abs(duT - u0))
    return max(abs(uT - du0), abs(duT - du0))


def omega_margin(spec: ProblemSpec, w: GridFunction) -> float | None:
    """a/2 minus the sup-norm of the Dirichlet map's inner integral at
    lam = 1; None for the other classes."""
    if spec.problem is not ProblemClass.DIRICHLET_BOUNDED:
        return None
    g = cumulative_integral_from_0(w.grid, nemytskii(spec.f, w))
    return spec.phi.a / 2.0 - sup_norm(g)


def _build_report(spec: ProblemSpec, u: GridFunction,
                  path: list[tuple[float, int]], method: str) -> SolveReport:
    try:
        _, fp_res, fp_ok = _fp_gap(spec, u, 1.0)
    except (AdmissibilityViolation, EvalDomainError):
        fp_res, fp_ok = np.inf, False
    try:
        margin = omega_margin(spec, u)
    except EvalDomainError:
        margin = None
    try:
        ode_res = ode_residual(spec.phi, spec.f, u)
    except EvalDomainError:
        ode_res = np.inf
    bc_res = bc_residual(spec.problem, u)
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


def _handoff_reason(st: _StageResult, lam: float) -> str:
    """Why a Picard stage handed off to Newton-Krylov, for the log."""
    if st.reason == "stalled":
        return (f"stalled at lambda={lam:g} (best residual {st.best_residual:g} "
                f"not halved in {_STALL_WINDOW} iterations)")
    return (f"stopped at lambda={lam:g} ({st.reason} after {st.iterations} "
            f"iterations, best residual {st.best_residual:g})")


def solve(spec: ProblemSpec) -> SolveReport:
    """Iterate the fixed-point map to tolerance and return diagnostics.

    Raises NonConvergence (with the diagnostic report attached) when a
    stage converges neither by iteration nor by Newton-Krylov, and
    AdmissibilityViolation when even the smallest homotopy step leaves the
    Dirichlet map's admissible set.
    """
    grid = Grid(spec.T, spec.grid_n)
    u = zero_function(grid)
    path: list[tuple[float, int]] = []
    method = "picard"
    # exact rational arithmetic on the step as written, so that lambda is
    # k * step rounded once (0.3, not 0.30000000000000004), halving stays
    # exact and the last stage is exactly 1
    lam_step = Fraction(str(float(spec.lambda_step)))
    lam_done = Fraction(0)
    first = True
    single_pass = spec.problem is ProblemClass.THREEPOINT_SINGULAR
    while True:
        lam = 1.0 if single_pass else float(min(1, lam_done + lam_step))
        try:
            st = _picard_stage(spec, lam, u, first)
        except AdmissibilityViolation:
            if not single_pass and lam_step / 2 >= _LAMBDA_STEP_MIN:
                lam_step /= 2
                continue
            raise
        first = False
        if not st.converged and spec.method == "auto":
            log.warning("fixed-point iteration %s; switching to Newton-Krylov",
                        _handoff_reason(st, lam))
            nst = _newton_stage(spec, lam, st.u)
            st = _StageResult(nst.u, st.iterations + nst.iterations,
                              nst.converged, min(st.best_residual, nst.best_residual),
                              nst.reason)
            method = "picard+newton"
        path.append((lam, st.iterations))
        u = st.u
        if not st.converged:
            report = _build_report(spec, u, path, method)
            raise NonConvergence(st.best_residual, report.iterations, report)
        if single_pass or lam == 1.0:
            break
        lam_done += lam_step

    report = _build_report(spec, u, path, method)
    if not report.converged:
        # the per-stage criterion passed but the final diagnostics did not
        raise NonConvergence(report.fp_residual, report.iterations, report)
    return report


# ------------------------------------------------------------------ shooting

_SHOOT_SCAN = 41
_FD_STEP = 1e-6
_NEWTON_STEPS = 60


def _rk4_batch(spec: ProblemSpec, grid: Grid, u0: np.ndarray,
               w0: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate u' = phi^{-1}(w), w' = f(t, u, phi^{-1}(w)) for a batch of
    initial states.  Returns (U, W, invalid): trajectories of shape
    (n, m) and a mask of runs whose w left phi's range (bounded phi only)
    or overflowed; invalid runs are nan-filled.

    The state y = (u, w) is stacked in a (2, m) array, and each stage
    writes its slope (v, dw) into one of four (2, m) buffers.  t reaches
    f's lenient kernel as a 0-d array, as eval_many passes it: numpy's
    power of two numpy floats can round differently from its array power.
    """
    inverse = spec.phi.inverse
    f = kernel(spec.f, lenient=True)
    nodes = grid.nodes
    n = grid.n
    h = grid.h
    half = 0.5 * h
    sixth = h / 6.0
    bounded = spec.phi.kind is Kind.BOUNDED
    cap = (spec.phi.a - EPS_DOM) if bounded else np.inf

    m = len(u0)
    Y = np.empty((n, 2, m))
    Y[0, 0] = u0
    Y[0, 1] = w0
    k1, k2, k3, k4 = np.empty((4, 2, m))
    invalid = np.zeros(m, dtype=bool)

    def rhs(t: np.ndarray, y: np.ndarray, k: np.ndarray) -> None:
        w = y[1]
        if bounded:
            np.logical_or(invalid, np.abs(w) > cap, out=invalid)
            w = np.minimum(np.maximum(w, -cap), cap)
        k[0] = inverse(w)
        k[1] = f(t, y[0], k[0])

    # a diverging trial trajectory is data: its overflow flags the column
    with np.errstate(all="ignore"):
        for i in range(n - 1):
            y = Y[i]
            t = nodes[i]
            tm = np.asarray(t + half)
            rhs(np.asarray(t), y, k1)
            rhs(tm, y + half * k1, k2)
            rhs(tm, y + half * k2, k3)
            rhs(np.asarray(t + h), y + h * k3, k4)
            np.add(y, sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4), out=Y[i + 1])

    U, W = Y[:, 0], Y[:, 1]
    invalid |= ~np.isfinite(U[-1]) | ~np.isfinite(W[-1])
    Y[:, :, invalid] = np.nan
    return U, W, invalid


def _trajectory_function(spec: ProblemSpec, grid: Grid, column: tuple) -> GridFunction:
    """The shooting answer from the (U, W, invalid) column that integrated
    it; W is made contiguous for phi.inverse, so that du does not depend on
    the batch the column came from."""
    U, W, bad = column
    if bad:
        raise OracleFailure("final shooting trajectory left the admissible range")
    du = np.asarray(spec.phi.inverse(np.ascontiguousarray(W)), dtype=float)
    return GridFunction(grid, U, du)


def _shoot_dirichlet(spec: ProblemSpec, grid: Grid) -> GridFunction:
    """Scan w0 over phi's range, then brentq on u(T) in the first bracket.
    ``seen`` keeps this call's integrated columns by w0, so neither bracket
    end nor the root is integrated twice.  It starts from copies of the two
    bracket columns, since views would keep the 41-column scan alive."""
    a = spec.phi.a
    margin = 1e-6 * a
    cands = np.linspace(-a + margin, a - margin, _SHOOT_SCAN)
    U, W, bad = _rk4_batch(spec, grid, np.zeros(_SHOOT_SCAN), cands)
    end = U[-1]
    bracket = None
    for i in range(_SHOOT_SCAN - 1):
        if bad[i] or bad[i + 1]:
            continue
        if end[i] == 0.0:
            return _trajectory_function(spec, grid, (U[:, i], W[:, i], bad[i]))
        if end[i] * end[i + 1] <= 0.0:
            bracket = (float(cands[i]), float(cands[i + 1]))
            break
    if bracket is None:
        raise OracleFailure("no sign change of u(T) over the shooting scan")
    seen = {float(cands[j]): (U[:, j].copy(), W[:, j].copy(), bad[j])
            for j in (i, i + 1)}
    del U, W, end

    def end_value(w0: float) -> float:
        if w0 not in seen:
            Us, Ws, b = _rk4_batch(spec, grid, np.zeros(1), np.array([w0]))
            seen[w0] = Us[:, 0], Ws[:, 0], b[0]
        Us, _, b = seen[w0]
        if b:
            raise OracleFailure(f"trajectory at w0={w0!r} left the admissible range")
        return float(Us[-1])

    root = scipy.optimize.brentq(end_value, bracket[0], bracket[1],
                                 xtol=1e-13, rtol=4 * np.finfo(float).eps,
                                 maxiter=200)
    end_value(root)  # brentq returns a point it evaluated; else one sweep
    return _trajectory_function(spec, grid, seen[root])


def _shoot_two_point_newton(spec: ProblemSpec, grid: Grid,
                            starts: list[tuple[float, float]]) -> GridFunction:
    """Damped Newton (FD Jacobian, step 1e-6) on the two initial values.

    Residual for the classic class: (u'(T) - u'(0), u(T) - u'(0));
    for the singular class: (u(T) - u(0), u'(T) - u(0)).  Each iterate and
    trial is integrated with its two FD neighbours in one sweep, so an
    accepted trial already carries its next Jacobian and its trajectory.
    """
    phi = spec.phi
    classic = spec.problem is ProblemClass.THREEPOINT_CLASSIC

    def sweep(p: np.ndarray) -> tuple[np.ndarray, tuple]:
        points = np.array([p, p + [_FD_STEP, 0.0], p + [0.0, _FD_STEP]])
        U, W, bad = _rk4_batch(spec, grid, points[:, 0], points[:, 1])
        with np.errstate(all="ignore"):
            v0 = np.asarray(phi.inverse(W[0]), dtype=float)
            vT = np.asarray(phi.inverse(W[-1]), dtype=float)
        if classic:
            out = np.stack([vT - v0, U[-1] - v0], axis=1)
        else:
            out = np.stack([U[-1] - U[0], vT - U[0]], axis=1)
        out[bad] = np.nan
        return out, (U[:, 0], W[:, 0], bad[0])

    for start in starts:
        p = np.array(start, dtype=float)
        R, column = sweep(p)
        ok = False
        for _ in range(_NEWTON_STEPS):
            if not np.all(np.isfinite(R[0])):
                break
            r0 = R[0]
            nr0 = float(np.max(np.abs(r0)))
            if nr0 <= 1e-11 * (1.0 + float(np.max(np.abs(p)))):
                ok = True
                break
            J = np.stack([(R[1] - r0) / _FD_STEP, (R[2] - r0) / _FD_STEP], axis=1)
            try:
                step = np.linalg.solve(J, -r0)
            except np.linalg.LinAlgError:
                break
            alpha = 1.0
            improved = False
            while alpha >= 2.0 ** -20:
                trial = p + alpha * step
                Rt, trial_column = sweep(trial)
                if np.all(np.isfinite(Rt[0])) and np.max(np.abs(Rt[0])) < nr0:
                    p, R, column = trial, Rt, trial_column
                    improved = True
                    break
                alpha /= 2.0
            if not improved:
                break
        if ok:
            return _trajectory_function(spec, grid, column)
    raise OracleFailure("no Newton start converged in the shooting oracle")


def shooting_oracle(spec: ProblemSpec) -> GridFunction:
    """Solve the problem by RK4 shooting on the same grid.

    Completely independent of the fixed-point route: different
    discretization family, different unknowns.  Intended for
    cross-validation, not as the primary solver.
    """
    grid = Grid(spec.T, spec.grid_n)
    if spec.problem is ProblemClass.DIRICHLET_BOUNDED:
        return _shoot_dirichlet(spec, grid)

    if spec.problem is ProblemClass.THREEPOINT_CLASSIC:
        slopes = (0.5, -0.5, 0.0, 1.0, -1.0, 2.0, -2.0, 0.25, -0.25)
        starts = [(s * (1.0 - spec.T), float(spec.phi.forward(s))) for s in slopes]
    else:
        a = spec.phi.a
        levels = (0.0, 0.3, -0.3, 0.6, -0.6)
        starts = [(c * a, float(spec.phi.forward(c * a * 0.9))) for c in levels]
    return _shoot_two_point_newton(spec, grid, starts)
