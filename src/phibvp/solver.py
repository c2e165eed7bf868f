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
(u, phi(u')), by multiple shooting from the best of a fixed list of
candidate starts: segments of at most ``_SEGMENT_STEPS`` = 10 steps,
every candidate's in one sweep, and a sparse Newton solve for their
starts.  Tests compare the two routes; they share no discretization code.

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
import scipy.sparse.linalg

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
_SHOOT_SCAN = 41
_FD_STEP = 1e-6


class ProblemClass(enum.Enum):
    DIRICHLET_BOUNDED = "dirichlet"
    THREEPOINT_SINGULAR = "threepoint_singular"
    THREEPOINT_CLASSIC = "threepoint_classic"


@dataclass(frozen=True)
class _Rules:
    """A class's phi kind, map(phi, f, w, lam), whether lambda is continued,
    signed boundary residuals bc(u(0), u(T), u'(0), u'(T)) for the report and
    the oracle, the first `pinned` of which fix a shooting unknown outright,
    and the oracle's candidate starts(phi, T), each (u(0), phi(u'(0)))."""

    kind: Kind
    map: Callable[[Homeomorphism, Expr, GridFunction, float], GridFunction]
    homotopy: bool
    bc: Callable[..., list]
    pinned: int
    starts: Callable[[Homeomorphism, float], list[tuple[float, float]]]


def _dirichlet_starts(phi: Homeomorphism, T: float) -> list[tuple[float, float]]:
    # keeps the top candidate's FD neighbour w0 + _FD_STEP inside (-a, a)
    margin = 1e-6 * phi.a + _FD_STEP
    return [(0.0, w) for w in np.linspace(-phi.a + margin, phi.a - margin, _SHOOT_SCAN)]


_RULES = {
    ProblemClass.DIRICHLET_BOUNDED: _Rules(
        Kind.BOUNDED, dirichlet_map, True,
        lambda u0, uT, v0, vT: [u0, uT], 1, _dirichlet_starts),
    ProblemClass.THREEPOINT_SINGULAR: _Rules(
        Kind.SINGULAR, lambda phi, f, w, lam: singular_threepoint_map(phi, f, w), False,
        lambda u0, uT, v0, vT: [uT - u0, vT - u0], 0,
        lambda phi, T: [(c * phi.a, float(phi.forward(c * phi.a * 0.9)))
                        for c in (0.0, 0.3, -0.3, 0.6, -0.6)]),
    ProblemClass.THREEPOINT_CLASSIC: _Rules(
        Kind.CLASSIC, classic_threepoint_map, True,
        lambda u0, uT, v0, vT: [vT - v0, uT - v0], 0,
        lambda phi, T: [(s * (1.0 - T), float(phi.forward(s)))
                        for s in (0.5, -0.5, 0.0, 1.0, -1.0, 2.0, -2.0, 0.25, -0.25)]),
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
    slack of the admissibility bound where phi is bounded, None elsewhere.
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
            margin = spec.phi.a / 2.0 - sup_norm(g)
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

    One continuation loop: a stage at each lambda = k * lambda_step up to
    1, the step halved where a stage leaves the Dirichlet map's admissible
    set.  A class without homotopy (the singular one) takes a step of 1:
    one stage.

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
    lam_step = Fraction(str(float(spec.lambda_step))
                        if _RULES[spec.problem].homotopy else 1)
    lam_done = Fraction(0)
    while lam_done < 1:
        lam = float(min(1, lam_done + lam_step))
        try:
            st = _picard_stage(spec, lam, u)
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

_NEWTON_STEPS = 60
_NEWTON_STALL_STEPS = 5
# the most RK4 steps a shooting segment takes
_SEGMENT_STEPS = 10


def _rk4_batch(spec: ProblemSpec, grid: Grid, start: np.ndarray,
               steps: np.ndarray, u0: np.ndarray, w0: np.ndarray,
               keep: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate u' = phi^{-1}(w), w' = f(t, u, phi^{-1}(w)) for a batch of
    initial states, column c from node start[c] for steps[c] steps, its
    time at step i nodes[start[c] + i] for every i < max(steps).  Returns
    (U, W, invalid): with keep, trajectories of shape (max(steps) + 1, m),
    column c ending at row steps[c]; else the ends alone.  invalid masks
    the runs whose w left phi's range (bounded phi only) or overflowed
    within their own steps; invalid runs are nan-filled.
    """
    inverse = spec.phi.inverse
    f = kernel(spec.f, lenient=True)
    nodes = grid.nodes
    h = grid.h
    half = 0.5 * h
    sixth = h / 6.0
    bounded = spec.phi.kind is Kind.BOUNDED
    cap = (spec.phi.a - EPS_DOM) if bounded else np.inf

    m = len(u0)
    ending = {s: steps == s for s in np.unique(steps).tolist()}
    Y = np.empty((max(ending) + 1 if keep else 1, 2, m))
    Y[0] = u0, w0
    y, end = Y[0], Y[0].copy()
    k1, k2, k3, k4 = np.empty((4, 2, m))
    # invalid as each step leaves it, and as each column's last step did
    invalid, bad = np.zeros((2, m), dtype=bool)

    def rhs(t: np.ndarray, y: np.ndarray, k: np.ndarray) -> None:
        w = y[1]
        if bounded:
            np.logical_or(invalid, np.abs(w) > cap, out=invalid)
            w = np.minimum(np.maximum(w, -cap), cap)
        k[0] = inverse(w)
        k[1] = f(t, y[0], k[0])

    # a diverging trial trajectory is data: its overflow flags the column
    with np.errstate(all="ignore"):
        for i in range(max(ending)):
            t = nodes[start + i]
            tm = t + half
            rhs(t, y, k1)
            rhs(tm, y + half * k1, k2)
            rhs(tm, y + half * k2, k3)
            rhs(t + h, y + h * k3, k4)
            y = np.add(y, sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4),
                       out=Y[i + 1] if keep else y)
            if (done := ending.get(i + 1)) is not None:
                end[:, done] = y[:, done]
                bad[done] = invalid[done]

    bad |= ~np.isfinite(end).all(axis=0)
    out = Y if keep else end
    out[..., bad] = np.nan
    return out[..., 0, :], out[..., 1, :], bad


def _residual(rules: _Rules, inverse: Callable, S: np.ndarray,
              E: np.ndarray) -> np.ndarray:
    """Shooting residuals from segment starts S and ends E, both (..., K, 2):
    the continuity gaps, then the class's unpinned boundary residuals."""
    gaps = (E[..., :-1, :] - S[..., 1:, :]).reshape(*S.shape[:-2], -1)
    u0, uT = S[..., 0, 0], E[..., -1, 0]
    with np.errstate(all="ignore"):
        v0 = np.asarray(inverse(S[..., 0, 1]), dtype=float)
        vT = np.asarray(inverse(E[..., -1, 1]), dtype=float)
    bc = rules.bc(u0, uT, v0, vT)[rules.pinned:]
    return np.concatenate([gaps, np.stack(bc, axis=-1)], axis=-1)


def _jacobian(rules: _Rules, inverse: Callable, x: np.ndarray, e: np.ndarray,
              r: np.ndarray) -> scipy.sparse.csc_matrix:
    """The FD Jacobian of _residual at the point with residual r, segment
    starts x[:K] and ends e[:K], assembled from its blocks in O(K): x[K + i]
    moves unknown i, of segment s, by _FD_STEP and ends at e[K + i].  The
    column holds the change of s's end in s's two gap rows, the change of
    its own start (-1 up to rounding) in a gap row of s - 1 and, for the
    first and last segments alone, the change of the boundary rows; each
    entry is the one the FD difference of the whole residual gives."""
    K = (len(r) + rules.pinned) // 2
    free = np.arange(rules.pinned, 2 * K)
    s, col, xn, en = free // 2, np.arange(len(free)), x[K:], e[K:]
    own, prev, edge = s < K - 1, s > 0, (s == 0) | (s == K - 1)
    # the boundary rows are those of one segment from x[0] to e[K - 1]
    S0 = np.where((s[edge] == 0)[:, None], xn[edge], x[0])
    EK = np.where((s[edge] == K - 1)[:, None], en[edge], e[K - 1])
    bc = _residual(rules, inverse, S0[:, None], EK[:, None]) - r[2 * K - 2:]
    vals = [en[own] - e[s[own]], (x[s[prev]] - xn[prev]).sum(axis=1), bc]
    rows = [(2 * s[own])[:, None] + [0, 1], free[prev] - 2,
            np.broadcast_to(np.arange(2 * K - 2, len(r)), bc.shape)]
    cols = [np.repeat(col[own], 2), col[prev], np.repeat(col[edge], bc.shape[1])]
    v, i, j = (np.concatenate([a.ravel() for a in p]) for p in (vals, rows, cols))
    return scipy.sparse.csc_matrix((v / _FD_STEP, (i, j)), shape=(len(r), len(r)))


def _shoot(spec: ProblemSpec, starts: np.ndarray) -> GridFunction:
    """Multiple shooting (Stoer & Bulirsch, Introduction to Numerical
    Analysis, 7.3.5) by damped Newton from the starts (u(0), w(0)), in
    order of max |R|, nan where _rk4_batch nan-filled a run.

    [0, T] splits at grid nodes into K = ceil((n - 1) / _SEGMENT_STEPS)
    segments, the last the longest by at most one step.  The unknowns are
    the segment starts (u, w) less the leading ones the class pins (the
    Dirichlet u(0) = 0), and R is _residual.  Later segments start flat:
    w = w(0), u = u(0) + phi^{-1}(w(0)) t.  One sweep integrates every
    candidate's segments, one more a Newton start's FD neighbours (step
    1e-6), and each trial sweeps its segments with their neighbours.  The
    sparse J (_jacobian) is factored once per Newton step.  A trial is
    accepted when it shrinks the natural level |J^{-1} R|, the Newton step
    (max |R| stalls once many small gaps weigh as much as the boundary
    residual); a start whose step has not halved in _NEWTON_STALL_STEPS
    steps, or whose J is singular, is abandoned.  Only one-point sweeps of
    a point's segments keep their trajectories.
    """
    grid = Grid(spec.T, spec.grid_n)
    inverse = spec.phi.inverse
    rules = _RULES[spec.problem]
    K = -(-(grid.n - 1) // _SEGMENT_STEPS)
    bounds = np.arange(K + 1) * (grid.n - 1) // K
    free = np.arange(rules.pinned, 2 * K)
    # a point's columns: its K segments, then one FD neighbour per unknown
    seg = np.concatenate([np.arange(K), free // 2])
    offsets = np.zeros((len(seg), 2))
    offsets[np.arange(K, len(seg)), free % 2] = _FD_STEP
    lengths = np.diff(bounds)[seg]

    def sweep(Z: np.ndarray, cols: slice, keep: bool = False) -> tuple:
        """Starts, ends and (with keep, one point only) trajectories of the
        columns cols of each point in Z."""
        X = Z[:, seg[cols]] + offsets[cols]
        steps = lengths[cols]
        U, W, _ = _rk4_batch(spec, grid, np.tile(bounds[seg[cols]], len(Z)),
                             np.tile(steps, len(Z)), X[..., 0].ravel(),
                             X[..., 1].ravel(), keep)
        traj = (U, W) if keep else None
        if keep:
            U, W = U[steps, np.arange(len(steps))], W[steps, np.arange(len(steps))]
        return X, np.stack([U, W], axis=-1).reshape(X.shape), traj

    def converged(z: np.ndarray, r: np.ndarray) -> bool:
        return float(np.max(np.abs(r))) <= 1e-11 * (1.0 + float(np.max(np.abs(z))))

    def answer(traj: tuple) -> GridFunction:
        U, W = traj
        node = np.arange(grid.n)
        s = np.minimum(np.searchsorted(bounds, node, side="right") - 1, K - 1)
        rows = node - bounds[s]
        du = np.asarray(inverse(W[rows, s]), dtype=float)
        return GridFunction(grid, U[rows, s], du)

    v0 = np.asarray(inverse(starts[:, 1:]), dtype=float)
    Z = np.stack([starts[:, :1] + v0 * grid.nodes[bounds[:-1]],
                  np.repeat(starts[:, 1:], K, axis=1)], axis=-1)
    X, E, traj = sweep(Z, slice(K), keep=len(Z) == 1)
    R = _residual(rules, inverse, X, E)
    score = np.where(np.isfinite(E).all(axis=(1, 2)), np.max(np.abs(R), axis=1), np.nan)
    order = [j for j in np.argsort(score, kind="stable") if np.isfinite(score[j])]
    for j in order:
        if converged(Z[j].ravel()[rules.pinned:], R[j]):
            return answer(traj or sweep(Z[j][None], slice(K), True)[2])

    for j in order:
        Xn, En, _ = sweep(Z[j][None], slice(K, None))
        z, x, e, r = Z[j], np.vstack([X[j], Xn[0]]), np.vstack([E[j], En[0]]), R[j]
        mark, mark_k = np.inf, 0
        for k in range(_NEWTON_STEPS):
            try:
                lu = scipy.sparse.linalg.splu(_jacobian(rules, inverse, x, e, r))
            except RuntimeError:  # exactly singular, or not finite
                break
            step = lu.solve(-r)
            level = float(np.max(np.abs(step)))
            if level <= _STALL_FACTOR * mark:
                mark, mark_k = level, k
            elif k - mark_k >= _NEWTON_STALL_STEPS:
                break
            alpha = 1.0
            while alpha >= 2.0 ** -20:
                trial = z.copy()
                trial.ravel()[rules.pinned:] += alpha * step
                Xt, Et, traj = sweep(trial[None], slice(None), True)
                Rt = _residual(rules, inverse, Xt[:, :K], Et[:, :K])
                if (np.isfinite(Et).all()
                        and np.max(np.abs(lu.solve(Rt[0]))) < level):
                    break
                alpha /= 2.0
            else:  # no trial improved on z
                break
            z, x, e, r = trial, Xt[0], Et[0], Rt[0]
            if converged(z.ravel()[rules.pinned:], r):
                return answer(traj)
    raise OracleFailure("no Newton start converged in the shooting oracle")


def shooting_oracle(spec: ProblemSpec) -> GridFunction:
    """Solve the problem by RK4 multiple shooting on the same grid.

    Completely independent of the fixed-point route: different
    discretization family, different unknowns.  Intended for
    cross-validation, not as the primary solver.
    """
    starts = _RULES[spec.problem].starts(spec.phi, spec.T)
    return _shoot(spec, np.array(starts, dtype=float))
