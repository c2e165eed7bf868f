"""Checkable sufficient conditions for existence, plus a planar degree.

Two certificate kinds:

* growth certificate (Dirichlet class, bounded-range phi): verifies the
  one-sided growth bound |f| <= f*n(u) + h(t) together with the sign and
  size side conditions, and derives the a-priori derivative bound L;
* sign certificate (classic class): verifies f >= c(t) and a strict sign
  condition in the derivative slot, and derives the radius rho_min at
  which the planar boundary map has well-defined degree.

Both sample on a finite box and say so: the positive verdict is
"checked_on_grid", never a proof.  ``brouwer_degree`` computes the
winding number of the planar map on a circle; an independent
Newton-multistart sign count is provided for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import VARIABLES, EvalDomainError, Expr, eval_many, variables
from .function_space import Grid, integral
from .homeomorphism import Homeomorphism, Kind

DEFAULT_SAMPLES = 101
GROWTH_SLACK = 1e-12
SIGN_SLACK = 1e-12
_FD_PROBE_STEP = 1e-6


class BoundaryZero(Exception):
    """The planar map vanishes (numerically) on the chosen circle, so the
    degree there is undefined; pick another radius."""

    def __init__(self, rho: float, min_norm: float, scale: float):
        self.rho = rho
        self.min_norm = min_norm
        self.scale = scale
        super().__init__(
            f"planar map has norm {_fmt(min_norm)} on the circle of radius "
            f"{_fmt(rho)} (scale {_fmt(scale)}); degree undefined here")

    def report_text(self) -> str:
        return (f"rho={_fmt(self.rho)}\nwinding=undefined\n"
                f"min_boundary_norm={_fmt(self.min_norm)}\n")


class InconsistentDerivative(Exception):
    """The supplied derivative expression disagrees with a finite
    difference of the function it claims to differentiate."""

    def __init__(self, x: float, fd: float, given: float):
        self.x = x
        self.fd = fd
        self.given = given
        super().__init__(
            f"claimed derivative {given!r} vs finite difference {fd!r} at x={x!r}")


@dataclass(frozen=True)
class Verdict:
    status: str  # "checked_on_grid" | "failed_at" | "not_applicable"
    witness: tuple[float, float, float] | None = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "checked_on_grid"


def _check_vars(e: Expr, allowed: frozenset[str], what: str) -> None:
    used = variables(e)
    if not used <= allowed:
        extra = ", ".join(sorted(used - allowed))
        raise ValueError(f"{what} may only use {set(allowed) or '{}'}: uses {extra}")


def _fmt(x) -> str:
    if x is None:
        return "n/a"
    return repr(float(x))


def _report_text(kind: str, verdict: Verdict,
                 fields: tuple[tuple[str, float | None], ...],
                 box: float | None) -> str:
    """``key=value`` certificate report: kind, verdict, the certificate's
    own constants, then the sample box half-width, witness and detail."""
    lines = [f"certificate={kind}", f"verdict={verdict.status}"]
    lines += [f"{key}={_fmt(value)}" for key, value in fields]
    if box is not None:
        lines += [f"box_x={_fmt(box)}", f"box_y={_fmt(box)}",
                  f"samples={DEFAULT_SAMPLES}x{DEFAULT_SAMPLES}x{DEFAULT_SAMPLES}"]
    if verdict.witness is not None:
        lines += [f"witness_{axis}={_fmt(value)}"
                  for axis, value in zip("txy", verdict.witness)]
    if verdict.detail:
        lines.append(f"detail={verdict.detail}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GrowthCertificate:
    verdict: Verdict
    h_l1: float
    half_a: float
    L: float | None
    c1_bound: float | None
    # half-width of the sampled box |u|, |v| <= box
    box: float | None

    def report_text(self) -> str:
        return _report_text("growth", self.verdict, (
            ("h_l1", self.h_l1), ("a_half", self.half_a), ("L", self.L),
            ("c1_bound", self.c1_bound)), self.box)


@dataclass(frozen=True)
class SignCertificate:
    verdict: Verdict
    m1: float
    m2: float
    c_neg_l1: float
    L: float
    r: float | None
    rho_min: float | None
    box: float

    def report_text(self) -> str:
        return _report_text("signs", self.verdict, (
            ("m1", self.m1), ("m2", self.m2), ("c_neg_l1", self.c_neg_l1),
            ("L", self.L), ("r", self.r), ("rho_min", self.rho_min)), self.box)


def eval_profile(key: str, e: Expr, var: str, xs: np.ndarray) -> np.ndarray:
    """The expression of problem-file key ``key`` at the samples xs of its
    one variable ``var``, the others 0.  A domain fault names the key and
    the sample point, as in ``dn: division by zero at u = 0.0``."""
    z = np.zeros_like(xs)
    try:
        return eval_many(e, *(xs if name == var else z for name in VARIABLES))
    except EvalDomainError as exc:
        raise EvalDomainError(
            f"{key}: {exc.fault} at {var} = {float(xs[exc.index])!r}") from None


def _probe_derivative(n: Expr, dn: Expr, x_max: float) -> None:
    xs = np.linspace(-x_max, x_max, 51)
    step = _FD_PROBE_STEP * np.maximum(1.0, np.abs(xs))
    npl = eval_profile("n", n, "u", xs + step)
    nmi = eval_profile("n", n, "u", xs - step)
    fd = (npl - nmi) / (2.0 * step)
    given = eval_profile("dn", dn, "u", xs)
    err = np.abs(fd - given) / (1.0 + np.abs(given))
    worst = int(np.argmax(err))
    if err[worst] > 1e-6:
        raise InconsistentDerivative(float(xs[worst]), float(fd[worst]),
                                     float(given[worst]))


def _sample_box(name: str, bound: float, T: float) -> float:
    """Half-width max(10, 2 * (bound + bound * T)) of the box a certificate
    samples, from its derivative bound ``name``; it must be finite."""
    box = max(10.0, 2.0 * (bound + bound * T))
    if not math.isfinite(box):
        raise ValueError(f"derived bound {name} = {_fmt(bound)} with T = {_fmt(T)} "
                         "leaves no finite sample box")
    return box


def _f_slice(f: Expr, t: float, xs: np.ndarray, ys: np.ndarray,
             box: float) -> np.ndarray:
    """f at time t on the (x, y) samples, indexed [x, y].  A domain fault
    of f names its sample point and the box, since the derived box can be
    far larger than the problem suggests."""
    try:
        return eval_many(f, np.full((1, 1), t), xs[:, None], ys[None, :])
    except EvalDomainError as exc:
        i, j = exc.index
        raise EvalDomainError(
            f"f: {exc.fault} at (t, u, v) = ({float(t)!r}, {float(xs[i])!r}, "
            f"{float(ys[j])!r}) on the derived sample box |u| <= "
            f"{box!r}, |v| <= {box!r}") from None


def check_growth(phi: Homeomorphism, f: Expr, h: Expr, n: Expr, dn: Expr,
                 T: float) -> GrowthCertificate:
    """Certify the Dirichlet existence hypotheses by grid sampling.

    Conditions: h >= 0; integral of h below a/2; phi(y)*dn(x)*y >= 0 (up
    to slack); |f(t,x,y)| <= f(t,x,y)*n(x) + h(t) (up to slack); n(0) = 0.
    On success L = max |phi^{-1}(+-2*integral h)| bounds the derivative of
    any solution and c1_bound = L*(1+T) bounds its C^1 norm; the box
    sampled is the derived one, |x|, |y| <= max(10, 2*c1_bound).
    """
    if phi.kind is not Kind.BOUNDED:
        raise ValueError("growth certificates need a bounded-range phi")
    _check_vars(h, frozenset({"t"}), "h")
    _check_vars(n, frozenset({"u"}), "n")
    _check_vars(dn, frozenset({"u"}), "dn")

    tgrid = Grid(T, DEFAULT_SAMPLES)
    ts = tgrid.nodes
    h_vals = eval_profile("h", h, "t", ts)
    h_l1 = integral(tgrid, np.abs(h_vals))
    half_a = phi.a / 2.0

    if h_l1 >= half_a:
        return GrowthCertificate(
            Verdict("not_applicable",
                    detail=f"h_l1 = {h_l1!r} >= a/2 = {half_a!r}"),
            h_l1, half_a, None, None, None)

    L = max(abs(float(phi.inverse(-2.0 * h_l1))),
            abs(float(phi.inverse(2.0 * h_l1))))
    c1_bound = L + L * T
    box = _sample_box("L", L, T)

    _probe_derivative(n, dn, box)

    def done(verdict: Verdict) -> GrowthCertificate:
        return GrowthCertificate(verdict, h_l1, half_a, L, c1_bound, box)

    # (i) h >= 0 on the t-samples
    bad = h_vals < 0.0
    if np.any(bad):
        i = int(np.argmax(bad))
        return done(Verdict("failed_at", (float(ts[i]), math.nan, math.nan),
                            f"h({_fmt(ts[i])}) = {_fmt(h_vals[i])} < 0"))

    # (v) n(0) = 0
    n_at_0 = float(eval_profile("n", n, "u", np.zeros(1))[0])
    if abs(n_at_0) > GROWTH_SLACK:
        return done(Verdict("failed_at", (math.nan, 0.0, math.nan),
                            f"n(0) = {n_at_0!r} != 0"))

    xs = ys = np.linspace(-box, box, DEFAULT_SAMPLES)
    n_vals = eval_profile("n", n, "u", xs)
    dn_vals = eval_profile("dn", dn, "u", xs)

    # (iii) phi(y) * dn(x) * y >= -slack on the (x, y) samples
    phiyy = np.asarray(phi.forward(ys), dtype=float) * ys
    prod = dn_vals[:, None] * phiyy[None, :]
    bad2 = prod < -GROWTH_SLACK
    if np.any(bad2):
        i, j = np.unravel_index(int(np.argmax(bad2)), bad2.shape)
        return done(Verdict("failed_at", (math.nan, float(xs[i]), float(ys[j])),
                            f"phi(y)*dn(x)*y = {_fmt(prod[i, j])} < 0"))

    # (iv) |f| <= f*n(x) + h(t) + slack on the full box, sliced along t; f,
    # n and h are finite, so only an overflow makes the bound non-finite
    with np.errstate(over="ignore"):
        for it, t in enumerate(ts):
            fvals = _f_slice(f, t, xs, ys, box)
            bound = fvals * n_vals[:, None] + h_vals[it]
            finite = np.isfinite(bound)
            if not finite.all():
                i, j = np.unravel_index(int(np.argmin(finite)), finite.shape)
                raise EvalDomainError(
                    f"f*n+h: overflow at (t, u, v) = ({_fmt(t)}, {_fmt(xs[i])}, "
                    f"{_fmt(ys[j])}) on the derived sample box |u| <= "
                    f"{box!r}, |v| <= {box!r}")
            gap = np.abs(fvals) - (bound + GROWTH_SLACK)
            bad3 = gap > 0.0
            if np.any(bad3):
                i, j = np.unravel_index(int(np.argmax(bad3)), bad3.shape)
                return done(Verdict(
                    "failed_at", (float(t), float(xs[i]), float(ys[j])),
                    f"|f| exceeds f*n+h by {_fmt(gap[i, j])}"))

    return done(Verdict("checked_on_grid"))


def check_signs(phi: Homeomorphism, f: Expr, m1: float, m2: float, c: Expr,
                T: float) -> SignCertificate:
    """Certify the classic-class existence hypotheses by grid sampling.

    Conditions: f >= c(t) everywhere on the box, and the strict sign
    condition f(t,x,y) > 0 for y >= m2, f(t,x,y) < 0 for y <= m1 (a
    pointwise surrogate of the integral condition; strictly stronger).
    On success r = max |phi^{-1}(+-(L + 2*integral of c^-))| bounds the
    derivative of any solution, rho_min = r*(2+T) is a valid degree radius
    and the box sampled is the derived one, |x|, |y| <= max(10, 2*(r + r*T)).
    """
    if phi.kind is not Kind.CLASSIC:
        raise ValueError("sign certificates need a phi onto all of R")
    for name, m in (("m1", m1), ("m2", m2)):
        if not math.isfinite(m):
            raise ValueError(f"{name} must be finite, got {m!r}")
    if not m1 < m2:
        raise ValueError(f"need m1 < m2, got {m1!r} >= {m2!r}")
    _check_vars(c, frozenset({"t"}), "c")

    L = max(abs(float(phi.forward(m1))), abs(float(phi.forward(m2))))

    tgrid = Grid(T, DEFAULT_SAMPLES)
    ts = tgrid.nodes
    c_vals = eval_profile("c", c, "t", ts)
    c_neg_l1 = integral(tgrid, np.maximum(-c_vals, 0.0))
    with np.errstate(over="ignore"):
        r = max(abs(float(phi.inverse(L + 2.0 * c_neg_l1))),
                abs(float(phi.inverse(-L - 2.0 * c_neg_l1))))
    rho_min = r * (2.0 + T)
    box = _sample_box("r", r, T)

    xs = np.linspace(-box, box, DEFAULT_SAMPLES)
    ys = np.unique(np.concatenate([xs, [m1, m2]]))
    upper = ys >= m2
    lower = ys <= m1

    def fail(t, x, y, detail) -> SignCertificate:
        return SignCertificate(Verdict("failed_at", (t, x, y), detail),
                               m1, m2, c_neg_l1, L, None, None, box)

    for it, t in enumerate(ts):
        fvals = _f_slice(f, t, xs, ys, box)
        bad = fvals < c_vals[it] - SIGN_SLACK
        if np.any(bad):
            i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
            return fail(float(t), float(xs[i]), float(ys[j]),
                        f"f = {_fmt(fvals[i, j])} < c(t) = {_fmt(c_vals[it])}")
        high = fvals[:, upper]
        bad = high <= 0.0
        if np.any(bad):
            i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
            y = ys[upper][j]
            return fail(float(t), float(xs[i]), float(y),
                        f"f = {_fmt(high[i, j])} not > 0 although y >= m2")
        low = fvals[:, lower]
        bad = low >= 0.0
        if np.any(bad):
            i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
            y = ys[lower][j]
            return fail(float(t), float(xs[i]), float(y),
                        f"f = {_fmt(low[i, j])} not < 0 although y <= m1")

    return SignCertificate(Verdict("checked_on_grid"), m1, m2, c_neg_l1, L,
                           r, rho_min, box)


# --------------------------------------------------------------- degree part

# odd, as composite Simpson needs
SIMPSON_N = 201
# bisections of one boundary arc before the winding number gives up on it
_MAX_DEPTH = 20
# math's hypot elementwise: numpy's SIMD loop can differ from it in the
# last bit, and math.hypot is the more accurate of the two
_hypot = np.frompyfunc(math.hypot, 2, 1)


def _simpson(vals: np.ndarray, length: float) -> np.ndarray:
    h = length / (vals.shape[-1] - 1)
    return (h / 3.0) * (vals[..., 0] + vals[..., -1]
                        + 4.0 * vals[..., 1:-1:2].sum(axis=-1)
                        + 2.0 * vals[..., 2:-1:2].sum(axis=-1))


def planar_map(f: Expr, T: float, a, b) -> tuple[np.ndarray, np.ndarray]:
    """The planar map whose zeros are the affine pre-solutions.

    (a, b) -> (a*T + b*T^2 - b*T - (1/T) * integral_0^T f(t, a+b*t, b) dt,
               b - a - b*T),
    at arrays a and b of one broadcast shape, which both outputs have
    (numpy floats at floats).  f is evaluated in one call, on one row of
    SIMPSON_N quadrature nodes per point.  A domain fault raises at the
    first point, in order, whose own evaluation faults.  It names that
    point (a, b) and its radius, so that a fault caused by too large a
    disk blames the radius, not only f, and its ``index`` is the point's
    flat index (None at floats).
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float))
    ts = np.linspace(0.0, T, SIMPSON_N)
    col_a, col_b = a.reshape(-1, 1), b.reshape(-1, 1)
    u = col_a + col_b * ts
    v = np.repeat(col_b, SIMPSON_N, axis=1)
    try:
        vals = eval_many(f, ts, u, v)
    except EvalDomainError as exc:
        # the batch stops at the first operation that faults anywhere, but
        # an earlier point may fault only at a later operation
        i, j = exc.index
        while i:
            try:
                eval_many(f, ts, u[:i], v[:i])
                break
            except EvalDomainError as earlier:
                exc = earlier
                i, j = exc.index
        pa, pb = float(col_a[i, 0]), float(col_b[i, 0])
        err = EvalDomainError(
            f"f: {exc.fault} at t = {float(ts[j])!r} for (a, b) = "
            f"({pa!r}, {pb!r}), radius {math.hypot(pa, pb)!r}")
        err.index = i if a.ndim else None
        raise err from None
    integ = _simpson(vals, T).reshape(a.shape)
    # as on Python floats: an overflow is inf, not a warning
    with np.errstate(all="ignore"):
        g1 = a * T + b * T * T - b * T - integ / T
        g2 = b - a - b * T
    return g1, g2


@dataclass(frozen=True)
class DegreeResult:
    rho: float
    winding: int
    min_boundary_norm: float
    refinement_depth: int
    boundary_samples: int

    def report_text(self) -> str:
        return (f"rho={_fmt(self.rho)}\n"
                f"winding={self.winding}\n"
                f"min_boundary_norm={_fmt(self.min_boundary_norm)}\n"
                f"refinement_depth={self.refinement_depth}\n"
                f"boundary_samples={self.boundary_samples}\n")


def winding_number(map_fn, rho: float, n_start: int = 256) -> DegreeResult:
    """Winding number of s -> map_fn(rho cos s, rho sin s) around 0.

    map_fn takes arrays a, b and returns arrays (g1, g2) of their shape.
    It is called once with the n_start uniform boundary samples, then with
    a one-point array at the midpoint of each arc whose angle increment
    exceeds pi/2.  A stack walks the arcs depth first, in order round the
    circle, bisecting each initial arc at most _MAX_DEPTH times; an arc
    still unresolved there raises BoundaryZero.  Also raises BoundaryZero
    when any evaluated sample comes within 1e-9 * scale of the origin
    (scale = largest initial sample norm), the first such in walk order.
    """
    if rho <= 0:
        raise ValueError("radius must be positive")
    thetas = [2.0 * math.pi * k / n_start for k in range(n_start)] + [2.0 * math.pi]
    g1, g2 = map_fn(np.array([rho * math.cos(th) for th in thetas[:-1]]),
                    np.array([rho * math.sin(th) for th in thetas[:-1]]))
    g1, g2 = np.ravel(g1).tolist(), np.ravel(g2).tolist()
    norms = list(map(math.hypot, g1, g2))
    min_norm, scale = min(math.inf, *norms), max(norms)
    angles = list(map(math.atan2, g2, g1))
    angles.append(angles[0])
    evals, max_depth, total = n_start, 0, 0.0
    # arcs (theta1, angle1, theta2, angle2, depth), the next one on top
    stack = [(thetas[k], angles[k], thetas[k + 1], angles[k + 1], 0)
             for k in reversed(range(n_start))]
    while stack:
        # the samples so far, the last midpoint's included
        if min_norm <= 1e-9 * scale:
            raise BoundaryZero(rho, min_norm, scale)
        th1, an1, th2, an2, depth = stack.pop()
        delta = an2 - an1
        delta -= 2.0 * math.pi * round(delta / (2.0 * math.pi))
        if abs(delta) <= 0.5 * math.pi:
            total += delta
            continue
        if depth >= _MAX_DEPTH:
            raise BoundaryZero(rho, min_norm, scale)
        max_depth = max(max_depth, depth + 1)
        mid = 0.5 * (th1 + th2)
        (x,), (y,) = map_fn(np.array([rho * math.cos(mid)]),
                            np.array([rho * math.sin(mid)]))
        evals += 1
        min_norm = min(min_norm, math.hypot(x, y))
        anm = math.atan2(y, x)
        stack += [(mid, anm, th2, an2, depth + 1), (th1, an1, mid, anm, depth + 1)]

    turns = total / (2.0 * math.pi)
    w = round(turns)
    if abs(turns - w) > 1e-6:
        raise ArithmeticError(
            f"winding accumulation inconsistent: {turns!r} is not near an integer")
    return DegreeResult(rho, int(w), min_norm, max_depth, evals)


def _check_horizon(T: float) -> None:
    # planar_map divides by T, and a reversed interval has no meaning
    if not (T > 0 and math.isfinite(T)):
        raise ValueError(f"T must be positive and finite, got {T!r}")


def brouwer_degree(f: Expr, T: float, rho: float,
                   n_start: int = 256) -> DegreeResult:
    """Degree of the planar map on the disk of radius rho, via winding."""
    _check_horizon(T)
    return winding_number(lambda a, b: planar_map(f, T, a, b), rho,
                          n_start=n_start)


def _solve_each(J: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The solutions x of J[i] @ x = r[i], with nan rows for a singular
    J[i]; a singular matrix makes numpy raise for the whole stack."""
    try:
        return np.linalg.solve(J, r[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.full_like(r, np.nan)
        for i in range(len(r)):
            try:
                out[i] = np.linalg.solve(J[i], r[i])
            except np.linalg.LinAlgError:
                pass
        return out


def newton_sign_sum(f: Expr, T: float, rho: float, starts_per_axis: int = 16):
    """Independent degree estimate: sum of Jacobian-determinant signs over
    the distinct zeros of the planar map inside the disk, found by damped
    Newton from a starts_per_axis^2 grid.

    Returns (sign_sum, zeros, trustworthy).  trustworthy is False when
    some Newton run failed to converge or some zero is degenerate; the
    sum is then not a valid degree count.

    Newton runs on all starts at once.  Each point is mapped in one
    planar_map call with its two finite-difference neighbours, so an
    accepted trial carries its next Jacobian, and the line search halves
    alpha for the starts that have not yet moved.  A start ends
    unconverged, alone, when a point it needs faults, when its Jacobian is
    singular, when no alpha >= 2^-24 lowers max |g|, or after 80 steps.
    """
    _check_horizon(T)
    delta = 1e-7 * max(1.0, rho)
    tol = 1e-11 * max(1.0, rho)

    def with_neighbours(P: np.ndarray) -> np.ndarray:
        return np.stack([P, P + [delta, 0.0], P + [0.0, delta]],
                        axis=1).reshape(-1, 2)

    def jacobians(G: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            return (G[:, 1:] - G[:, :1]).transpose(0, 2, 1) / delta

    def mapped(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The map at P's rows and their neighbours, (m, 3, 2), and the
        (m, 3) mask of the points whose evaluation faults (nan there)."""
        X = with_neighbours(P)
        G = np.full(X.shape, np.nan)
        fault = np.zeros(len(X), dtype=bool)
        todo = [(0, len(X))]
        while todo:
            lo, hi = todo.pop()
            try:
                G[lo:hi] = np.stack(planar_map(f, T, X[lo:hi, 0], X[lo:hi, 1]),
                                    axis=-1)
            except EvalDomainError as exc:
                # the points before the one named are clean; halving the
                # rest keeps many faults from costing a full call each
                i = lo + exc.index
                fault[i] = True
                mid = (i + 1 + hi) // 2
                todo += [(a, b) for a, b in ((lo, i), (i + 1, mid), (mid, hi))
                         if a < b]
        return G.reshape(-1, 3, 2), fault.reshape(-1, 3)

    axis = np.linspace(-rho, rho, starts_per_axis)
    X0, Y0 = (c.ravel() for c in np.meshgrid(axis, axis, indexing="ij"))
    inside = ~(_hypot(X0, Y0).astype(float) >= rho)
    P = np.stack([X0[inside], Y0[inside]], axis=1)
    G, fault = mapped(P)
    live = ~fault[:, 0]
    converged = np.zeros(len(P), dtype=bool)
    for _ in range(80):
        if not live.any():
            break
        idx = np.flatnonzero(live)
        live[:] = False  # a start stays live only by moving
        ng = np.max(np.abs(G[idx, 0]), axis=1)
        converged[idx[ng <= tol]] = True
        # a step needs both neighbours and a regular Jacobian
        keep = ~(ng <= tol) & ~fault[idx, 1:].any(axis=1)
        idx, ng = idx[keep], ng[keep]
        step = _solve_each(jacobians(G[idx]), -G[idx, 0])
        keep = np.isfinite(step).all(axis=1)
        idx, ng, step = idx[keep], ng[keep], step[keep]
        alpha = 1.0
        while idx.size and alpha >= 2.0 ** -24:
            trial = P[idx] + alpha * step
            Gt, ft = mapped(trial)
            gt = Gt[:, 0]
            moved = (~ft[:, 0] & np.isfinite(gt).all(axis=1)
                     & (np.max(np.abs(gt), axis=1) < ng))
            hit = idx[moved]
            P[hit], G[hit], fault[hit] = trial[moved], Gt[moved], ft[moved]
            live[hit] = True
            rest = ~moved & ~ft[:, 0]
            idx, ng, step = idx[rest], ng[rest], step[rest]
            alpha /= 2.0

    trustworthy = bool(converged.all())
    # distinct zeros in start order: each is the first point left that is
    # not within 1e-6 * max(1, rho) of an earlier one
    left = P[converged]
    left = left[~(_hypot(left[:, 0], left[:, 1]).astype(float) >= rho)]
    zeros: list[np.ndarray] = []
    while len(left):
        zeros.append(left[0])
        left = left[np.max(np.abs(left - left[0]), axis=1) > 1e-6 * max(1.0, rho)]
    if not zeros:
        return 0, zeros, trustworthy

    # a fault here raises: these points converged, so only a neighbour can
    Z = with_neighbours(np.array(zeros))
    G = np.stack(planar_map(f, T, Z[:, 0], Z[:, 1]), axis=-1).reshape(-1, 3, 2)
    det = np.linalg.det(jacobians(G))
    degenerate = np.abs(det) <= 1e-8
    sign_sum = int(np.where(det[~degenerate] > 0, 1, -1).sum())
    return sign_sum, zeros, trustworthy and not degenerate.any()
