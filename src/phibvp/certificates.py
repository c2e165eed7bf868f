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
            f"planar map has norm {min_norm!r} on the circle of radius {rho!r} "
            f"(scale {scale!r}); degree undefined here")


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
class SampleBox:
    """Sampling ranges: t in [0, T], u in [-x_max, x_max], v in
    [-y_max, y_max], each sampled at DEFAULT_SAMPLES points."""

    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if not (0 < self.x_max < math.inf and 0 < self.y_max < math.inf):
            raise ValueError("box half-widths must be positive and finite")


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
                 box: SampleBox | None) -> str:
    """``key=value`` certificate report: kind, verdict, the certificate's
    own constants, then the sample box, witness and detail when present."""
    lines = [f"certificate={kind}", f"verdict={verdict.status}"]
    lines += [f"{key}={_fmt(value)}" for key, value in fields]
    if box is not None:
        lines += [f"box_x={_fmt(box.x_max)}", f"box_y={_fmt(box.y_max)}",
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
    box: SampleBox | None

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
    box: SampleBox

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


def _f_slice(f: Expr, t: float, xs: np.ndarray, ys: np.ndarray,
             box: SampleBox, derived: bool) -> np.ndarray:
    """f at time t on the (x, y) samples, indexed [x, y].  A domain fault
    of f names its sample point and the box, since a derived box can be
    far larger than the problem suggests."""
    try:
        return eval_many(f, np.full((1, 1), t), xs[:, None], ys[None, :])
    except EvalDomainError as exc:
        i, j = exc.index
        origin = "derived" if derived else "given"
        raise EvalDomainError(
            f"f: {exc.fault} at (t, u, v) = ({float(t)!r}, {float(xs[i])!r}, "
            f"{float(ys[j])!r}) on the {origin} sample box |u| <= "
            f"{box.x_max!r}, |v| <= {box.y_max!r}") from None


def check_growth(phi: Homeomorphism, f: Expr, h: Expr, n: Expr, dn: Expr,
                 T: float, box: SampleBox | None = None) -> GrowthCertificate:
    """Certify the Dirichlet existence hypotheses by grid sampling.

    Conditions: h >= 0; integral of h below a/2; phi(y)*dn(x)*y >= 0 (up
    to slack); |f(t,x,y)| <= f(t,x,y)*n(x) + h(t) (up to slack); n(0) = 0.
    On success L = max |phi^{-1}(+-2*integral h)| bounds the derivative of
    any solution and L*(1+T) bounds its C^1 norm.
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
            h_l1, half_a, None, None, box)

    L = max(abs(float(phi.inverse(-2.0 * h_l1))),
            abs(float(phi.inverse(2.0 * h_l1))))
    c1_bound = L + L * T
    derived = box is None
    if derived:
        half = max(10.0, 2.0 * c1_bound)
        box = SampleBox(half, half)

    _probe_derivative(n, dn, box.x_max)

    def done(verdict: Verdict) -> GrowthCertificate:
        return GrowthCertificate(verdict, h_l1, half_a, L, c1_bound, box)

    # (i) h >= 0 on the t-samples
    bad = h_vals < 0.0
    if np.any(bad):
        i = int(np.argmax(bad))
        return done(Verdict("failed_at", (float(ts[i]), math.nan, math.nan),
                            f"h({ts[i]!r}) = {h_vals[i]!r} < 0"))

    # (v) n(0) = 0
    n_at_0 = float(eval_profile("n", n, "u", np.zeros(1))[0])
    if abs(n_at_0) > GROWTH_SLACK:
        return done(Verdict("failed_at", (math.nan, 0.0, math.nan),
                            f"n(0) = {n_at_0!r} != 0"))

    xs = np.linspace(-box.x_max, box.x_max, DEFAULT_SAMPLES)
    ys = np.linspace(-box.y_max, box.y_max, DEFAULT_SAMPLES)
    n_vals = eval_profile("n", n, "u", xs)
    dn_vals = eval_profile("dn", dn, "u", xs)

    # (iii) phi(y) * dn(x) * y >= -slack on the (x, y) samples
    phiyy = np.asarray(phi.forward(ys), dtype=float) * ys
    prod = dn_vals[:, None] * phiyy[None, :]
    bad2 = prod < -GROWTH_SLACK
    if np.any(bad2):
        i, j = np.unravel_index(int(np.argmax(bad2)), bad2.shape)
        return done(Verdict("failed_at", (math.nan, float(xs[i]), float(ys[j])),
                            f"phi(y)*dn(x)*y = {prod[i, j]!r} < 0"))

    # (iv) |f| <= f*n(x) + h(t) + slack on the full box, sliced along t
    for it, t in enumerate(ts):
        fvals = _f_slice(f, t, xs, ys, box, derived)
        gap = np.abs(fvals) - (fvals * n_vals[:, None] + h_vals[it] + GROWTH_SLACK)
        bad3 = gap > 0.0
        if np.any(bad3):
            i, j = np.unravel_index(int(np.argmax(bad3)), bad3.shape)
            return done(Verdict(
                "failed_at", (float(t), float(xs[i]), float(ys[j])),
                f"|f| exceeds f*n+h by {gap[i, j]!r}"))

    return done(Verdict("checked_on_grid"))


def check_signs(phi: Homeomorphism, f: Expr, m1: float, m2: float, c: Expr,
                T: float, box: SampleBox | None = None) -> SignCertificate:
    """Certify the classic-class existence hypotheses by grid sampling.

    Conditions: f >= c(t) everywhere on the box, and the strict sign
    condition f(t,x,y) > 0 for y >= m2, f(t,x,y) < 0 for y <= m1 (a
    pointwise surrogate of the integral condition; strictly stronger).
    On success r = max |phi^{-1}(+-(L + 2*integral of c^-))| bounds the
    derivative of any solution and rho_min = r*(2+T) is a valid degree
    radius.
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
    r = max(abs(float(phi.inverse(L + 2.0 * c_neg_l1))),
            abs(float(phi.inverse(-L - 2.0 * c_neg_l1))))
    rho_min = r * (2.0 + T)
    derived = box is None
    if derived:
        half = max(10.0, 2.0 * (r + r * T))
        box = SampleBox(half, half)

    xs = np.linspace(-box.x_max, box.x_max, DEFAULT_SAMPLES)
    ys = np.unique(np.concatenate(
        [np.linspace(-box.y_max, box.y_max, DEFAULT_SAMPLES), [m1, m2]]))
    upper = ys >= m2
    lower = ys <= m1

    def fail(t, x, y, detail) -> SignCertificate:
        return SignCertificate(Verdict("failed_at", (t, x, y), detail),
                               m1, m2, c_neg_l1, L, None, None, box)

    for it, t in enumerate(ts):
        fvals = _f_slice(f, t, xs, ys, box, derived)
        bad = fvals < c_vals[it] - SIGN_SLACK
        if np.any(bad):
            i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
            return fail(float(t), float(xs[i]), float(ys[j]),
                        f"f = {fvals[i, j]!r} < c(t) = {c_vals[it]!r}")
        high = fvals[:, upper]
        bad = high <= 0.0
        if np.any(bad):
            i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
            y = ys[upper][j]
            return fail(float(t), float(xs[i]), float(y),
                        f"f = {high[i, j]!r} not > 0 although y >= m2")
        low = fvals[:, lower]
        bad = low >= 0.0
        if np.any(bad):
            i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
            y = ys[lower][j]
            return fail(float(t), float(xs[i]), float(y),
                        f"f = {low[i, j]!r} not < 0 although y <= m1")

    return SignCertificate(Verdict("checked_on_grid"), m1, m2, c_neg_l1, L,
                           r, rho_min, box)


# --------------------------------------------------------------- degree part

# odd, as composite Simpson needs
SIMPSON_N = 201
# bisections of one boundary arc before the winding number gives up on it
_MAX_DEPTH = 20


def _simpson(vals: np.ndarray, length: float) -> float:
    h = length / (vals.shape[-1] - 1)
    return float((h / 3.0) * (vals[..., 0] + vals[..., -1]
                              + 4.0 * vals[..., 1:-1:2].sum(axis=-1)
                              + 2.0 * vals[..., 2:-1:2].sum(axis=-1)))


def planar_map(f: Expr, T: float, a: float, b: float) -> tuple[float, float]:
    """The planar map whose zeros are the affine pre-solutions.

    (a, b) -> (a*T + b*T^2 - b*T - (1/T) * integral_0^T f(t, a+b*t, b) dt,
               b - a - b*T).
    A domain fault of f names the point (a, b) and its radius, so that a
    fault caused by too large a disk blames the radius, not only f.
    """
    ts = np.linspace(0.0, T, SIMPSON_N)
    try:
        vals = eval_many(f, ts, a + b * ts, np.full_like(ts, b))
    except EvalDomainError as exc:
        raise EvalDomainError(
            f"f: {exc.fault} at t = {float(ts[exc.index])!r} for (a, b) = "
            f"({float(a)!r}, {float(b)!r}), radius {math.hypot(a, b)!r}"
        ) from None
    integ = _simpson(vals, T)
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

    Starts from n_start uniform boundary samples and bisects every arc
    whose angle increment exceeds pi/2, at most _MAX_DEPTH times; an arc
    still unresolved there raises BoundaryZero.  Also raises
    BoundaryZero when any evaluated sample comes within 1e-9 * scale of
    the origin (scale = largest initial sample norm).
    """
    if rho <= 0:
        raise ValueError("radius must be positive")

    state = {"min_norm": math.inf, "scale": 0.0, "evals": 0, "depth": 0}

    def sample(theta: float) -> tuple[float, float, float]:
        g1, g2 = map_fn(rho * math.cos(theta), rho * math.sin(theta))
        nrm = math.hypot(g1, g2)
        state["evals"] += 1
        state["min_norm"] = min(state["min_norm"], nrm)
        return g1, g2, nrm

    thetas = [2.0 * math.pi * k / n_start for k in range(n_start)]
    pts = [sample(th) for th in thetas]
    state["scale"] = max(p[2] for p in pts)
    if state["min_norm"] <= 1e-9 * state["scale"]:
        raise BoundaryZero(rho, state["min_norm"], state["scale"])

    def angle(p) -> float:
        return math.atan2(p[1], p[0])

    def arc(th1: float, p1, th2: float, p2, depth: int) -> float:
        delta = angle(p2) - angle(p1)
        delta -= 2.0 * math.pi * round(delta / (2.0 * math.pi))
        if abs(delta) <= 0.5 * math.pi:
            return delta
        if depth >= _MAX_DEPTH:
            raise BoundaryZero(rho, state["min_norm"], state["scale"])
        state["depth"] = max(state["depth"], depth + 1)
        mid = 0.5 * (th1 + th2)
        pm = sample(mid)
        if state["min_norm"] <= 1e-9 * state["scale"]:
            raise BoundaryZero(rho, state["min_norm"], state["scale"])
        return arc(th1, p1, mid, pm, depth + 1) + arc(mid, pm, th2, p2, depth + 1)

    total = 0.0
    for k in range(n_start):
        th1 = thetas[k]
        th2 = thetas[k + 1] if k + 1 < n_start else 2.0 * math.pi
        p2 = pts[(k + 1) % n_start]
        total += arc(th1, pts[k], th2, p2, 0)

    turns = total / (2.0 * math.pi)
    w = round(turns)
    if abs(turns - w) > 1e-6:
        raise ArithmeticError(
            f"winding accumulation inconsistent: {turns!r} is not near an integer")
    return DegreeResult(rho, int(w), state["min_norm"], state["depth"],
                        state["evals"])


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


def newton_sign_sum(f: Expr, T: float, rho: float, starts_per_axis: int = 16):
    """Independent degree estimate: sum of Jacobian-determinant signs over
    the distinct zeros of the planar map inside the disk, found by damped
    Newton from a starts_per_axis^2 grid.

    Returns (sign_sum, zeros, trustworthy).  trustworthy is False when
    some Newton run failed to converge or some zero is degenerate; the
    sum is then not a valid degree count.
    """
    _check_horizon(T)
    delta = 1e-7 * max(1.0, rho)

    def G(p: np.ndarray) -> np.ndarray:
        return np.array(planar_map(f, T, float(p[0]), float(p[1])))

    def jac(p: np.ndarray, g0: np.ndarray) -> np.ndarray:
        ga = G(p + [delta, 0.0])
        gb = G(p + [0.0, delta])
        return np.stack([(ga - g0) / delta, (gb - g0) / delta], axis=1)

    axis = np.linspace(-rho, rho, starts_per_axis)
    trustworthy = True
    zeros: list[np.ndarray] = []
    tol = 1e-11 * max(1.0, rho)
    for x0 in axis:
        for y0 in axis:
            if math.hypot(x0, y0) >= rho:
                continue
            p = np.array([x0, y0])
            converged = False
            try:
                g = G(p)
                for _ in range(80):
                    ng = float(np.max(np.abs(g)))
                    if ng <= tol:
                        converged = True
                        break
                    step = np.linalg.solve(jac(p, g), -g)
                    alpha = 1.0
                    moved = False
                    while alpha >= 2.0 ** -24:
                        trial = p + alpha * step
                        gt = G(trial)
                        if np.all(np.isfinite(gt)) and np.max(np.abs(gt)) < ng:
                            p, g = trial, gt
                            moved = True
                            break
                        alpha /= 2.0
                    if not moved:
                        break
            except (np.linalg.LinAlgError, ValueError, OverflowError):
                converged = False
            if not converged:
                trustworthy = False
                continue
            if math.hypot(p[0], p[1]) >= rho:
                continue
            if not any(np.max(np.abs(p - z)) <= 1e-6 * max(1.0, rho)
                       for z in zeros):
                zeros.append(p)

    sign_sum = 0
    for z in zeros:
        det = float(np.linalg.det(jac(z, G(z))))
        if abs(det) <= 1e-8:
            trustworthy = False
            continue
        sign_sum += 1 if det > 0 else -1
    return sign_sum, zeros, trustworthy
