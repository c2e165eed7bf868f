"""Integral fixed-point maps whose fixed points solve (phi(u'))' = f(t,u,u').

Three boundary-condition classes, each with its own map built from the
same ingredients: the superposition operator f(t, u, du), cumulative
trapezoid integrals, and the scalar shift s that zeroes the integral of
phi^{-1}(h - s) over [0, T].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expr import EvalDomainError, Expr, eval_many
from .function_space import (
    Grid,
    GridFunction,
    cumulative_integral_from_0,
    cumulative_integral_to_T,
    integral,
    mean,
    sup_norm,
)
from .homeomorphism import EPS_DOM, Homeomorphism, Kind

QPHI_MAX_ITER = 200


class BoundedPreconditionError(Exception):
    """For a bounded-range phi the shift needs osc h below a - EPS_DOM."""

    def __init__(self, osc: float, bound: float):
        self.osc = osc
        self.bound = bound
        super().__init__(f"osc h = {osc!r} is not below a - EPS_DOM = {bound!r}")


class NoSignChangeError(Exception):
    """The shift bracket [min h, max h] carries no sign change; the input
    data is corrupt (for an increasing phi this cannot happen otherwise)."""


class AdmissibilityViolation(Exception):
    """An iterate's load g left the map's domain: osc g reached a - EPS_DOM."""

    def __init__(self, osc: float, bound: float, lam: float):
        self.osc = osc
        self.bound = bound
        self.lam = lam
        super().__init__(f"iterate inadmissible at lambda={lam!r}: "
                         f"oscillation {osc!r} reaches bound {bound!r}")


@dataclass(frozen=True)
class QphiResult:
    """Root of s -> integral of phi^{-1}(h - s): the unique shift making
    phi^{-1}(h - s) integrate to zero.  min h <= s <= max h always;
    residual is the integral at s, iterations the number of such
    integrals evaluated, the residual's included (0 for a constant h),
    and inverse the read-only samples phi^{-1}(h - s) it integrates."""

    s: float
    residual: float
    iterations: int
    inverse: np.ndarray = field(compare=False, repr=False)


def nemytskii(f: Expr, w: GridFunction) -> np.ndarray:
    """Node samples of f(t, w(t), w'(t)).  A domain fault of f is raised
    as EvalDomainError naming f and the node's point, as in
    ``f: division by zero at (t, u, v) = (0.05, 0.0, 0.0)``."""
    t = w.grid.nodes
    try:
        return eval_many(f, t, w.u, w.du)
    except EvalDomainError as exc:
        i = exc.index
        raise EvalDomainError(
            f"f: {exc.fault} at (t, u, v) = ({float(t[i])!r}, "
            f"{float(w.u[i])!r}, {float(w.du[i])!r})") from None


def _shift_integral(phi: Homeomorphism, grid: Grid, d: np.ndarray,
                    s: float) -> tuple[float, np.ndarray]:
    """The integral of x = phi^{-1}(d), d = h - s, and x read-only; an
    integral that overflows is bad input, named by s."""
    x = phi.inverse(d)
    x.setflags(write=False)
    g = integral(grid, x)
    if not math.isfinite(g):
        raise ValueError(f"the integral of phi^-1(h - s) overflows at s = {s!r}")
    return g, x


def q_phi(phi: Homeomorphism, grid: Grid, h: np.ndarray) -> QphiResult:
    """Solve G(s) = integral_0^T phi^{-1}(h - s) dt = 0 by safeguarded Newton.

    G is strictly decreasing with G(min h) >= 0 >= G(max h), so the
    bracket is [min h, max h].  For a bounded-range phi the arguments
    h - s stay in (-a, a) as osc h < a - EPS_DOM is required up front.
    Newton steps on G' = -integral of phi.inverse_slope(h - s), the
    closed-form slope every Homeomorphism carries, start at mean(h) (min h
    if that overflows).  Each G(s) narrows the bracket by its sign, and a
    step bisects it instead when the slope integral is not finite and
    positive, or when the Newton step leaves the bracket or is not half
    the step before last; a Newton step below xtol, a few ulps of the
    bracket's scale, is lengthened to xtol.  The search ends once G(s) is
    zero to its rounding (|G| <= 1e-15 T sup|phi^{-1}(h - s)|) or the
    bracket has closed to 2 xtol, after at most QPHI_MAX_ITER integrals,
    and returns the evaluated s of least |G|.
    A short Newton step alone does not end it, since phi^{-1} may be
    steep at a node value of h.  A bracket that collapses onto an end of
    [min h, max h] is checked there: G with the wrong sign at min h or
    max h means corrupt input (NoSignChangeError).  A G that overflows
    raises ValueError naming s.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != (grid.n,):
        raise ValueError(f"expected {grid.n} samples of h, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("h must be finite")
    hm = float(h.min())
    hM = float(h.max())
    if phi.kind is Kind.BOUNDED and hM - hm >= phi.a - EPS_DOM:
        raise BoundedPreconditionError(hM - hm, phi.a - EPS_DOM)

    scale = max(1.0, abs(hm), abs(hM))
    xtol = 4e-16 * scale
    lo, hi = hm, hM
    before = last = hM - hm
    iterations = 0
    # numpy's warnings would not say which input overflowed
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if hM - hm <= 1e-15 * scale:
            s = float(h[0])
            g, x = _shift_integral(phi, grid, h - s, s)
            return QphiResult(s, g, 0, x)
        s = mean(grid, h)
        s = min(max(s, hm), hM) if math.isfinite(s) else hm
        while True:
            d = h - s
            g, x = _shift_integral(phi, grid, d, s)
            iterations += 1
            if iterations == 1 or abs(g) < abs(best[1]):
                best = s, g, x
            # G(s) zero to its rounding ends the search
            if (abs(g) <= 1e-15 * grid.T * sup_norm(x)
                    or iterations == QPHI_MAX_ITER):
                break
            if g > 0.0:
                lo = s
            else:
                hi = s
            if lo == hM or hi == hm:
                raise NoSignChangeError(f"no sign change of G on [{hm!r}, {hM!r}] "
                                        f"(G({s!r}) = {g!r}): corrupt input")
            if hi - lo <= 2.0 * xtol:
                # the bracket has closed; an end of [min h, max h] on the
                # root's side may not have been evaluated yet
                end = hi if g > 0.0 else lo
                if end not in (hm, hM):
                    break
                s = end
                continue
            dg = integral(grid, phi.inverse_slope(d))
            step = g / dg if 0.0 < dg < math.inf else math.inf
            if abs(step) < xtol:
                # a short step need not mean a near root, as phi^-1 may be
                # steep at a node: step xtol and let the sign of G confirm it
                step = math.copysign(xtol, step)
            if not (lo < s + step < hi and 2.0 * abs(step) <= before):
                step = 0.5 * lo + 0.5 * hi - s
            before, last = last, abs(step)
            s += step
    s, g, x = best
    return QphiResult(s, g, iterations, x)


def dirichlet_map(phi: Homeomorphism, f: Expr, w: GridFunction,
                  lam: float = 1.0) -> GridFunction:
    """One application of the Dirichlet fixed-point map.

    g = lam * integral_0^t f(., w, w'); returns the primitive of
    phi^{-1}(g - s), s = q_phi(g), so both endpoint values vanish; where
    q_phi refuses g (osc g >= a - EPS_DOM) raises AdmissibilityViolation.
    The sub-ulp root-finding residual is folded into a linear correction so
    the first and last node of the output are exactly zero.
    """
    if phi.kind is not Kind.BOUNDED:
        raise ValueError("the Dirichlet map needs a bounded-range phi")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    grid = w.grid
    g = lam * cumulative_integral_from_0(grid, nemytskii(f, w))
    try:
        shift = q_phi(phi, grid, g)
    except BoundedPreconditionError as exc:
        raise AdmissibilityViolation(exc.osc, exc.bound, lam) from None
    u = cumulative_integral_from_0(grid, shift.inverse)
    u = u - u[-1] * (grid.nodes / grid.T)
    return GridFunction(grid, u, shift.inverse)


def singular_threepoint_map(phi: Homeomorphism, f: Expr,
                            w: GridFunction) -> GridFunction:
    """Fixed-point map for u(0) = u(T), u'(T) = u(0) with a singular phi.

    k = -(integral from t to T) of f(., w, w'); the output derivative is
    phi^{-1}(k - s) (automatically inside (-a, a)), the output starts at
    phi^{-1}(-s).  Since k(T) = 0 exactly, the output satisfies
    w'(T) = w(0) exactly and w(0) = w(T) up to the shift residual.
    """
    if phi.kind is not Kind.SINGULAR:
        raise ValueError("the three-point singular map needs a singular phi")
    grid = w.grid
    k = cumulative_integral_to_T(grid, nemytskii(f, w))
    shift = q_phi(phi, grid, k)
    u0 = float(phi.inverse(-shift.s))
    u = u0 + cumulative_integral_from_0(grid, shift.inverse)
    return GridFunction(grid, u, shift.inverse)


def classic_threepoint_map(phi: Homeomorphism, f: Expr, w: GridFunction,
                           lam: float = 1.0) -> GridFunction:
    """Fixed-point map for u(T) = u'(0) = u'(T) with phi onto all of R.

    The output derivative is phi^{-1}(lam * P + phi(w(T))) where P is the
    primitive of f(., w, w') minus its average, and the output value is
    w(T) + avg + -(integral to T) of that derivative.  At lam = 1 fixed
    points solve the boundary value problem; a fixed point forces the
    average of f along it to vanish, which is exactly u'(T) = u'(0).
    """
    if phi.kind is not Kind.CLASSIC:
        raise ValueError("the three-point classic map needs phi onto R")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    grid = w.grid
    nf = nemytskii(f, w)
    avg = mean(grid, nf)
    prim = cumulative_integral_from_0(grid, nf - avg)
    end_val = float(w.u[-1])
    du = phi.inverse(lam * prim + phi.forward(end_val))
    u = end_val + avg + cumulative_integral_to_T(grid, du)
    return GridFunction(grid, u, du)
