"""Integral fixed-point maps whose fixed points solve (phi(u'))' = f(t,u,u').

Three boundary-condition classes, each with its own map built from the
same ingredients: the superposition operator f(t, u, du), cumulative
trapezoid integrals, and the scalar shift s that zeroes the integral of
phi^{-1}(h - s) over [0, T].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

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
    """For a bounded-range phi the shift equation needs sup|h| < a/2."""

    def __init__(self, sup_h: float, half_a: float):
        self.sup_h = sup_h
        self.half_a = half_a
        super().__init__(f"sup|h| = {sup_h!r} is not below a/2 = {half_a!r}")


class NoSignChangeError(Exception):
    """The shift bracket [min h, max h] carries no sign change; the input
    data is corrupt (for an increasing phi this cannot happen otherwise)."""


class AdmissibilityViolation(Exception):
    """An iterate left the open set where the Dirichlet map is defined."""

    def __init__(self, value: float, bound: float, lam: float):
        self.value = value
        self.bound = bound
        self.lam = lam
        super().__init__(f"iterate inadmissible at lambda={lam!r}: "
                         f"sup-norm {value!r} reaches bound {bound!r}")


@dataclass(frozen=True)
class QphiResult:
    """Root of s -> integral of phi^{-1}(h - s): the unique shift making
    phi^{-1}(h - s) integrate to zero.  min h <= s <= max h always;
    residual is the integral at s, iterations the number of integrals
    evaluated, the residual's included (0 for a constant h)."""

    s: float
    residual: float
    iterations: int


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


def q_phi(phi: Homeomorphism, grid: Grid, h: np.ndarray) -> QphiResult:
    """Solve G(s) = integral_0^T phi^{-1}(h - s) dt = 0 by Brent's method.

    G is strictly decreasing with G(min h) >= 0 >= G(max h), so the
    bracket is [min h, max h].  For a bounded-range phi the arguments
    h - s stay in (-a, a) because sup|h| < a/2 is required up front.
    brentq narrows the bracket to a few ulps of its scale (xtol and
    scipy's default rtol of 4 eps), at most QPHI_MAX_ITER steps; a
    bracket without a sign change means corrupt input, and a G that
    overflows raises ValueError.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != (grid.n,):
        raise ValueError(f"expected {grid.n} samples of h, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("h must be finite")
    hm = float(h.min())
    hM = float(h.max())
    if phi.kind is Kind.BOUNDED:
        sup_h = max(abs(hm), abs(hM))
        if sup_h >= phi.a / 2.0:
            raise BoundedPreconditionError(sup_h, phi.a / 2.0)

    # through args, h stays out of the reference cycle of brentq's wrapper of G
    def G(s: float, h: np.ndarray) -> float:
        val = integral(grid, phi.inverse(h - s))
        if not math.isfinite(val):
            raise OverflowError(
                f"the integral of phi^-1(h - s) overflows at s = {s!r}")
        return val

    scale = max(1.0, abs(hm), abs(hM))
    if hM - hm <= 1e-15 * scale:
        s = float(h[0])
        return QphiResult(s, G(s, h), 0)

    try:
        # numpy's overflow warning would not say which input overflowed
        with np.errstate(over="ignore", invalid="ignore"):
            s, info = brentq(G, hm, hM, args=(h,), xtol=4e-16 * scale, disp=False,
                             maxiter=QPHI_MAX_ITER, full_output=True)
    except OverflowError as exc:
        raise ValueError(str(exc)) from None
    except ValueError as exc:
        raise NoSignChangeError(
            f"no sign change of G on [{hm!r}, {hM!r}] ({exc}): corrupt input"
        ) from None
    return QphiResult(s, G(s, h), info.function_calls + 1)


def _inverse_guarded(phi: Homeomorphism, x: np.ndarray, lam: float) -> np.ndarray:
    """Vectorized phi^{-1} with the bounded-range boundary guard."""
    if phi.kind is Kind.BOUNDED:
        worst = sup_norm(x)
        if worst > phi.a - EPS_DOM:
            raise AdmissibilityViolation(worst, phi.a, lam)
    return phi.inverse(x)


def dirichlet_map(phi: Homeomorphism, f: Expr, w: GridFunction,
                  lam: float = 1.0) -> GridFunction:
    """One application of the Dirichlet fixed-point map.

    g = lam * integral_0^t f(., w, w'); requires sup|g| < a/2 (membership
    in the open set the map is defined on), then returns the primitive of
    phi^{-1}(g - s) with s chosen so both endpoint values vanish.  The
    sub-ulp root-finding residual is folded into a linear correction so
    the first and last node of the output are exactly zero.
    """
    if phi.kind is not Kind.BOUNDED:
        raise ValueError("the Dirichlet map needs a bounded-range phi")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    grid = w.grid
    g = lam * cumulative_integral_from_0(grid, nemytskii(f, w))
    sup_g = sup_norm(g)
    if sup_g >= phi.a / 2.0:
        raise AdmissibilityViolation(sup_g, phi.a / 2.0, lam)
    s = q_phi(phi, grid, g).s
    du = _inverse_guarded(phi, g - s, lam)
    u = cumulative_integral_from_0(grid, du)
    u = u - u[-1] * (grid.nodes / grid.T)
    return GridFunction(grid, u, du)


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
    s = q_phi(phi, grid, k).s
    du = phi.inverse(k - s)
    u0 = float(phi.inverse(-s))
    u = u0 + cumulative_integral_from_0(grid, du)
    return GridFunction(grid, u, du)


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
