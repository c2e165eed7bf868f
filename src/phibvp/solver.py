"""Boundary value solver: damped fixed-point iteration plus an independent
shooting oracle.

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
discretization: RK4 time stepping of the first-order system in
(u, phi(u')), with damped Newton on the initial data from the best of a
fixed list of candidate starts, all scored in one sweep.  The search runs
on a coarse grid first and its root is polished on the requested one.
Tests compare the two routes; they share no discretization code.
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
    DEFAULT_N,
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
# differences of past iterates an Anderson step mixes in
_ANDERSON_DEPTH = 3


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
    callers vary: grid size, tolerance and homotopy step."""

    problem: ProblemClass
    phi: Homeomorphism
    f: Expr
    T: float
    grid_n: int = DEFAULT_N
    tol_fp: float = 1e-10
    lambda_step: float = 0.1

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
    """No candidate start of the shooting oracle converged."""


def apply_fixed_point_map(spec: ProblemSpec, w: GridFunction,
                          lam: float = 1.0) -> GridFunction:
    if spec.problem is ProblemClass.DIRICHLET_BOUNDED:
        return dirichlet_map(spec.phi, spec.f, w, lam)
    if spec.problem is ProblemClass.THREEPOINT_SINGULAR:
        return singular_threepoint_map(spec.phi, spec.f, w)
    return classic_threepoint_map(spec.phi, spec.f, w, lam)


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


def _picard_stage(spec: ProblemSpec, lam: float, u: GridFunction,
                  first_stage: bool) -> _StageResult:
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


def _build_report(spec: ProblemSpec, u: GridFunction, path: list[tuple[float, int]],
                  method: str, fp_res: float, fp_ok: bool) -> SolveReport:
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


def _exit_reason(st: _StageResult, lam: float) -> str:
    """Why a Picard stage ended unconverged, for the log."""
    if st.reason == "stalled":
        return (f"stalled at lambda={lam:g} (best residual {st.best_residual:g} "
                f"not halved in {_STALL_WINDOW} iterations)")
    return (f"stopped at lambda={lam:g} ({st.reason} after {st.iterations} "
            f"iterations, best residual {st.best_residual:g})")


def solve(spec: ProblemSpec) -> SolveReport:
    """Iterate the fixed-point map to tolerance and return diagnostics.

    One continuation loop: a stage at each lambda = k * lambda_step up to
    1, the step halved where a stage leaves the Dirichlet map's admissible
    set.  The singular map takes no lambda: its step is 1, one stage.

    Raises NonConvergence (with the diagnostic report attached) when a
    stage converges neither by iteration nor by Newton-Krylov, or diverges
    or meets a domain fault, and
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
    lam_step = Fraction(1 if spec.problem is ProblemClass.THREEPOINT_SINGULAR
                        else str(float(spec.lambda_step)))
    lam_done = Fraction(0)
    while lam_done < 1:
        lam = float(min(1, lam_done + lam_step))
        try:
            st = _picard_stage(spec, lam, u, not path)
        except AdmissibilityViolation:
            if lam_step / 2 >= _LAMBDA_STEP_MIN:
                lam_step /= 2
                continue
            raise
        iterations, best = st.iterations, st.best_residual
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
        path.append((lam, iterations))
        u = st.u
        if not st.converged:
            try:
                _, fp_res, fp_ok = _fp_gap(spec, u, 1.0)
            except (AdmissibilityViolation, EvalDomainError):
                fp_res, fp_ok = np.inf, False
            report = _build_report(spec, u, path, method, fp_res, fp_ok)
            raise NonConvergence(min(best, st.best_residual), report.iterations, report)
        # a k * step that rounds to lambda = 1.0 ends the path as 1 does
        lam_done = lam_done + lam_step if lam < 1.0 else Fraction(1)

    # a converged stage's best residual is the lambda = 1 gap of u
    report = _build_report(spec, u, path, method, st.best_residual, True)
    if not report.converged:
        # the per-stage criterion passed but the final diagnostics did not
        raise NonConvergence(report.fp_residual, report.iterations, report)
    return report


# ------------------------------------------------------------------ shooting

_SHOOT_SCAN = 41
_FD_STEP = 1e-6
_NEWTON_STEPS = 60
_NEWTON_STALL_STEPS = 5
# nodes of the grid the oracle searches on before it polishes the root
_COARSE_N = 101


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


def _trajectory_function(spec: ProblemSpec, grid: Grid, batch: tuple,
                         c: int) -> GridFunction:
    """The shooting answer from column c of the (U, W, invalid) batch that
    integrated it; W is made contiguous for phi.inverse, so that du does not
    depend on the batch the column came from."""
    U, W, _ = batch
    du = np.asarray(spec.phi.inverse(np.ascontiguousarray(W[:, c])), dtype=float)
    return GridFunction(grid, U[:, c], du)


def _shoot(spec: ProblemSpec, grid: Grid,
           candidates: np.ndarray) -> tuple[GridFunction, np.ndarray]:
    """Damped Newton (FD Jacobian, step 1e-6) on the initial data, from the
    candidate starts in order of score.  Returns the trajectory and its
    initial data, the root p.

    A candidate row is (w0,) for the Dirichlet class, whose u(0) = 0 is
    fixed, and (u0, w0) otherwise.  Residuals: u(T) for the Dirichlet class;
    (u'(T) - u'(0), u(T) - u'(0)) for the classic class; (u(T) - u(0),
    u'(T) - u(0)) for the singular class.  Every point is integrated in one
    sweep with its FD neighbours, so one sweep scores all candidates (max |R|
    over a point and its neighbours, nan if _rk4_batch nan-filled any run)
    and gives each its Jacobian, and an accepted trial already carries its
    next Jacobian and its trajectory.  A candidate that already meets the
    tolerance is the answer as it stands.  A start whose max |R| has not
    halved in _NEWTON_STALL_STEPS steps is abandoned, by Picard's stall rule.
    """
    phi = spec.phi
    d = candidates.shape[1]
    offsets = _FD_STEP * np.eye(d + 1, d, -1)

    def sweep(P: np.ndarray) -> tuple[np.ndarray, tuple]:
        X = (P[:, None, :] + offsets).reshape(-1, d)
        u0 = np.zeros(len(X)) if d == 1 else X[:, 0]
        U, W, bad = _rk4_batch(spec, grid, u0, X[:, -1])
        if spec.problem is ProblemClass.DIRICHLET_BOUNDED:
            out = U[-1, :, None].copy()
        else:
            with np.errstate(all="ignore"):
                v0 = np.asarray(phi.inverse(W[0]), dtype=float)
                vT = np.asarray(phi.inverse(W[-1]), dtype=float)
            if spec.problem is ProblemClass.THREEPOINT_CLASSIC:
                out = np.stack([vT - v0, U[-1] - v0], axis=1)
            else:
                out = np.stack([U[-1] - U[0], vT - U[0]], axis=1)
        return out.reshape(len(P), d + 1, d), (U, W, bad)

    def converged(p: np.ndarray, r0: np.ndarray) -> bool:
        return float(np.max(np.abs(r0))) <= 1e-11 * (1.0 + float(np.max(np.abs(p))))

    R, batch = sweep(candidates)
    score = np.max(np.abs(R), axis=(1, 2))
    order = [j for j in np.argsort(score, kind="stable") if np.isfinite(score[j])]
    for j in order:
        if converged(candidates[j], R[j, 0]):
            return (_trajectory_function(spec, grid, batch, j * (d + 1)),
                    candidates[j])
    # Newton needs only R from the candidate sweep; its trajectories (82
    # columns for the Dirichlet class) need not stay alive meanwhile
    del batch

    for j in order:
        p, Rp = candidates[j], R[j]
        mark_r, mark_k = np.inf, 0
        for k in range(_NEWTON_STEPS):
            r0 = Rp[0]
            nr0 = float(np.max(np.abs(r0)))
            if nr0 <= _STALL_FACTOR * mark_r:
                mark_r, mark_k = nr0, k
            elif k - mark_k >= _NEWTON_STALL_STEPS:
                break
            try:
                step = np.linalg.solve((Rp[1:] - r0).T / _FD_STEP, -r0)
            except np.linalg.LinAlgError:
                break
            alpha = 1.0
            while alpha >= 2.0 ** -20:
                trial = p + alpha * step
                Rt, batch = sweep(trial[None])
                if np.all(np.isfinite(Rt)) and np.max(np.abs(Rt[0, 0])) < nr0:
                    break
                alpha /= 2.0
            else:  # no trial improved on p
                break
            p, Rp = trial, Rt[0]
            if converged(p, Rp[0]):
                return _trajectory_function(spec, grid, batch, 0), p
    raise OracleFailure("no Newton start converged in the shooting oracle")


def shooting_oracle(spec: ProblemSpec) -> GridFunction:
    """Solve the problem by RK4 shooting on the same grid.

    Completely independent of the fixed-point route: different
    discretization family, different unknowns.  Intended for
    cross-validation, not as the primary solver.

    On a grid of more than _COARSE_N nodes the candidate search runs on
    _COARSE_N nodes, where a sweep is about n / _COARSE_N times cheaper,
    and its root is the one candidate of the search on the requested grid.
    RK4 is fourth order, so that root usually meets the tolerance there
    already, or after a Newton step.  If either level fails, the search
    runs on the requested grid from the candidate starts.
    """
    grid = Grid(spec.T, spec.grid_n)
    phi = spec.phi
    if spec.problem is ProblemClass.DIRICHLET_BOUNDED:
        # keeps the top candidate's FD neighbour w0 + _FD_STEP inside (-a, a)
        margin = 1e-6 * phi.a + _FD_STEP
        starts = np.linspace(-phi.a + margin, phi.a - margin, _SHOOT_SCAN)[:, None]
    elif spec.problem is ProblemClass.THREEPOINT_CLASSIC:
        slopes = (0.5, -0.5, 0.0, 1.0, -1.0, 2.0, -2.0, 0.25, -0.25)
        starts = [(s * (1.0 - spec.T), float(phi.forward(s))) for s in slopes]
    else:
        levels = (0.0, 0.3, -0.3, 0.6, -0.6)
        starts = [(c * phi.a, float(phi.forward(c * phi.a * 0.9))) for c in levels]
    starts = np.array(starts, dtype=float)
    if spec.grid_n > _COARSE_N:
        try:
            _, p = _shoot(spec, Grid(spec.T, _COARSE_N), starts)
            return _shoot(spec, grid, p[None])[0]
        except OracleFailure:
            pass
    return _shoot(spec, grid, starts)[0]
