"""Catalog of increasing homeomorphisms phi used as the derivative wrapper.

Three shapes occur, distinguished by where phi lives:

* classic: phi maps all of R onto R (identity, odd powers);
* bounded: phi maps R onto the bounded interval (-a, a) (mean curvature);
* singular: phi maps the bounded interval (-a, a) onto R (relativistic).

Every catalog entry is checked at construction time: phi(0) = 0, strict
monotonicity, the inverse round trip and the closed-form slope of the
inverse against a centred difference, on a quasi-random probe set.
Only increasing homeomorphisms are supported.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

EPS_DOM = 1e-12
_ROUNDTRIP_RTOL = 1e-12
_SLOPE_RTOL = 1e-4
_PROBES = 1000


class Kind(enum.Enum):
    CLASSIC = "classic"
    BOUNDED = "bounded"
    SINGULAR = "singular"


@dataclass(frozen=True)
class Homeomorphism:
    """An increasing homeomorphism with explicit forward and inverse maps.

    ``forward``, ``inverse`` and ``inverse_slope`` are vectorized callables
    without domain guards; ``inverse_slope`` is the closed-form derivative
    of ``inverse`` (infinite where phi is flat, as the power law at 0 for
    p > 2).  ``a`` is the half-width of the bounded side (None for classic).
    """

    name: str
    kind: Kind
    a: float | None
    forward: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    inverse_slope: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        _validate(self)


def _probe_points(hi: float) -> np.ndarray:
    # golden-ratio low-discrepancy points in (-hi, hi), symmetric-ish
    k = np.arange(1, _PROBES + 1)
    frac = (k * 0.6180339887498949) % 1.0
    return (2.0 * frac - 1.0) * hi


def _validate(phi: Homeomorphism) -> None:
    if phi.kind is not Kind.CLASSIC:
        if phi.a is None or not (phi.a > 0 and np.isfinite(phi.a)):
            raise ValueError(f"{phi.name}: bounded/singular maps need a > 0")
    z = float(phi.forward(0.0))
    if abs(z) > 1e-14:
        raise ValueError(f"{phi.name}: phi(0) = {z!r}, expected 0")
    if phi.kind is Kind.SINGULAR:
        ys = _probe_points(phi.a * (1.0 - 1e-6))
    else:
        ys = _probe_points(50.0)
    ys = np.sort(ys)
    # a map that overflows on the probes is reported below, not by numpy
    with np.errstate(all="ignore"):
        xs = phi.forward(ys)
    if not np.all(np.isfinite(xs)):
        raise ValueError(f"{phi.name}: forward map not finite on probes")
    if not np.all(np.diff(xs) > 0):
        raise ValueError(f"{phi.name}: not strictly increasing on probes")
    if phi.kind is Kind.BOUNDED and np.max(np.abs(xs)) >= phi.a:
        raise ValueError(f"{phi.name}: range escapes (-a, a)")
    back = phi.inverse(xs)
    err = np.max(np.abs(back - ys) / (1.0 + np.abs(ys)))
    if err > _ROUNDTRIP_RTOL:
        raise ValueError(f"{phi.name}: inverse round trip error {err:g}")
    # steps small against 0 and a bounded range's edge, divided out as rounded
    room = phi.a - np.abs(xs) if phi.kind is Kind.BOUNDED else np.inf
    d = 1e-6 * np.minimum(np.abs(xs), room)
    with np.errstate(all="ignore"):
        lo, hi = xs - d, xs + d
        diff = (phi.inverse(hi) - phi.inverse(lo)) / (hi - lo)
        err = np.max(np.abs(phi.inverse_slope(xs) - diff) / diff)
    if not err <= _SLOPE_RTOL:
        raise ValueError(f"{phi.name}: inverse slope error {err:g}")


def identity() -> Homeomorphism:
    return Homeomorphism(
        name="identity",
        kind=Kind.CLASSIC,
        a=None,
        forward=lambda y: np.asarray(y, dtype=float) + 0.0,
        inverse=lambda x: np.asarray(x, dtype=float) + 0.0,
        inverse_slope=lambda x: np.ones(np.shape(x)),
    )


def power(p: float) -> Homeomorphism:
    """phi(y) = |y|^(p-2) * y for p > 1; p = 4 gives the cubic y^3."""
    if not p > 1:
        raise ValueError(f"power exponent must satisfy p > 1, got {p}")
    q = p - 1.0

    def fwd(y):
        y = np.asarray(y, dtype=float)
        return np.sign(y) * np.abs(y) ** q

    def inv(x):
        x = np.asarray(x, dtype=float)
        return np.sign(x) * np.abs(x) ** (1.0 / q)

    def slope(x):
        return np.abs(np.asarray(x, dtype=float)) ** (1.0 / q - 1.0) / q

    return Homeomorphism("power", Kind.CLASSIC, None, fwd, inv, slope)


def mean_curvature(a: float) -> Homeomorphism:
    """phi(y) = a*y / sqrt(1 + y^2): R onto (-a, a)."""
    if not (a > 0 and np.isfinite(a)):
        raise ValueError(f"mean_curvature scale must be positive, got {a}")
    a = float(a)

    def fwd(y):
        # hypot form stays finite for any y, unlike sqrt(1 + y*y)
        y = np.asarray(y, dtype=float)
        return a * y / np.hypot(1.0, y)

    def inv(x):
        s = np.asarray(x, dtype=float) / a
        return s / np.sqrt(1.0 - s * s)

    def slope(x):
        return 1.0 / (a * (1.0 - (np.asarray(x, dtype=float) / a) ** 2) ** 1.5)

    return Homeomorphism("mean_curvature", Kind.BOUNDED, a, fwd, inv, slope)


def relativistic(a: float) -> Homeomorphism:
    """phi(y) = y / sqrt(1 - (y/a)^2): (-a, a) onto R."""
    if not (a > 0 and np.isfinite(a)):
        raise ValueError(f"relativistic scale must be positive, got {a}")
    a = float(a)

    def fwd(y):
        y = np.asarray(y, dtype=float)
        s = y / a
        return y / np.sqrt(1.0 - s * s)

    def inv(x):
        x = np.asarray(x, dtype=float)
        return x / np.hypot(1.0, x / a)

    def slope(x):
        return (1.0 + (np.asarray(x, dtype=float) / a) ** 2) ** -1.5

    return Homeomorphism("relativistic", Kind.SINGULAR, a, fwd, inv, slope)


_CATALOG = {
    "identity": (identity, 0),
    "power": (power, 1),
    "mean_curvature": (mean_curvature, 1),
    "relativistic": (relativistic, 1),
}


def make_homeomorphism(name: str, *params: float) -> Homeomorphism:
    """Build a catalog entry by name: identity, power p, mean_curvature a,
    relativistic a."""
    try:
        factory, nargs = _CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(_CATALOG))
        raise ValueError(f"unknown homeomorphism {name!r} (known: {known})") from None
    if len(params) != nargs:
        raise ValueError(f"{name} takes {nargs} parameter(s), got {len(params)}")
    return factory(*params)


def parse_phi_config(text: str) -> Homeomorphism:
    """Parse 'identity' / 'power 4' / 'mean_curvature 1' / 'relativistic 1'."""
    parts = text.split()
    if not parts:
        raise ValueError("empty homeomorphism description")
    name, raw = parts[0], parts[1:]
    try:
        params = tuple(float(r) for r in raw)
    except ValueError:
        raise ValueError(f"non-numeric homeomorphism parameter in {text!r}") from None
    return make_homeomorphism(name, *params)
