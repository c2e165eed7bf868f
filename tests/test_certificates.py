"""Certificate and degree tests.

The two worked examples have closed-form certificate constants, so those
are frozen here to tight tolerances.  The degree routine is cross-checked
against an independent Newton multistart that counts zeros with orientation
signs.
"""

import tracemalloc

import numpy as np
import pytest

from phibvp import make_homeomorphism, parse_expr
from phibvp.expr import EvalDomainError
from phibvp.certificates import (
    BoundaryZero,
    InconsistentDerivative,
    _solve_each,
    brouwer_degree,
    check_growth,
    check_signs,
    newton_sign_sum,
    planar_map,
    winding_number,
)

MC1 = make_homeomorphism("mean_curvature", 1.0)
CUBE = make_homeomorphism("power", 4.0)
F_DIR = parse_expr("u - 2")
F_CLS = parse_expr("exp(v)/2 - 1")


def growth(T, h="4", n="u", dn="1", **kw):
    return check_growth(MC1, F_DIR, parse_expr(h), parse_expr(n), parse_expr(dn),
                        T, **kw)


# ------------------------------------------------------------------ growth


class TestGrowthCertificate:
    def test_benchmark_passes(self):
        cert = growth(0.1)
        assert cert.verdict.passed
        assert cert.verdict.status == "checked_on_grid"

    def test_benchmark_constants(self):
        cert = growth(0.1)
        assert abs(cert.h_l1 - 0.4) <= 1e-12
        assert cert.h_l1 < cert.half_a == 0.5
        assert abs(cert.L - 4.0 / 3.0) <= 1e-12
        # sup bound for the solution: L + L*T
        assert abs(cert.c1_bound - (4.0 / 3.0) * 1.1) <= 1e-12

    def test_doubled_horizon_is_out_of_scope(self):
        # at T = 0.2 the integrated majorant reaches the half-range and the
        # hypothesis no longer applies
        cert = growth(0.2)
        assert not cert.verdict.passed
        assert cert.verdict.status == "not_applicable"
        assert cert.verdict.detail == "h_l1 = 0.8 >= a/2 = 0.5"

    def test_majorant_too_small_yields_witness(self):
        cert = growth(0.1, h="1", n="0", dn="0")
        assert cert.verdict.status == "failed_at"
        t, x, y = cert.verdict.witness
        # |f(t,x,y)| = |x - 2| really does exceed 0*|..| + 1 there
        assert abs(x - 2.0) > 1.0

    def test_negative_majorant_yields_witness(self):
        cert = growth(0.1, h="0 - 1")
        assert cert.verdict.status == "failed_at"
        assert "< 0" in cert.verdict.detail

    def test_wrong_slope_expression_is_rejected(self):
        with pytest.raises(InconsistentDerivative) as ei:
            growth(0.1, dn="2")
        assert ei.value.given == 2.0
        assert abs(ei.value.fd - 1.0) <= 1e-4

    def test_needs_bounded_phi(self):
        with pytest.raises(ValueError):
            check_growth(CUBE, F_DIR, parse_expr("4"), parse_expr("u"),
                         parse_expr("1"), 0.1)

    def test_variable_slots_are_enforced(self):
        with pytest.raises(ValueError):
            growth(0.1, h="u")  # majorant may only depend on t
        with pytest.raises(ValueError):
            growth(0.1, n="t", dn="0")

    def test_report_text(self):
        text = growth(0.1).report_text()
        assert "certificate=growth" in text
        assert "verdict=checked_on_grid" in text
        assert "h_l1=0.4" in text
        assert "L=1.3333333333333337" in text

    def test_box_is_derived_from_the_bounds(self):
        # half-width max(10, 2*c1_bound): the floor, then the bound
        assert growth(0.1).box == 10.0
        wide = growth(0.1, h="4.9")
        assert wide.verdict.passed and 2.0 * wide.c1_bound > 10.0
        assert wide.box == 2.0 * wide.c1_bound
        # a box of |u|, |v| <= 1 misses where this f breaks the growth
        # bound; the derived box finds it at u = 9.2
        cert = check_growth(MC1, parse_expr("u - 2 - u^3/100"), parse_expr("4"),
                            parse_expr("u"), parse_expr("1"), 0.1)
        assert cert.verdict.status == "failed_at"
        assert cert.verdict.witness == pytest.approx((0.0, 9.2, -10.0))

    def test_deterministic(self):
        assert growth(0.1).report_text() == growth(0.1).report_text()


@pytest.mark.parametrize("make", [
    lambda: growth(0.2),
    lambda: growth(0.1, h="0 - 1"),
    lambda: growth(0.1, n="u + 1"),
    lambda: growth(0.1, n="0 - u", dn="0 - 1"),
    lambda: check_growth(MC1, parse_expr("u - 2 - u^3/100"), parse_expr("4"),
                         parse_expr("u"), parse_expr("1"), 0.1),
    lambda: check_signs(CUBE, F_CLS, -1.0, 1.0, parse_expr("0"), 1.0),
    lambda: check_signs(CUBE, F_CLS, -1.0, float(np.log(2.0)), parse_expr("-1"), 1.0),
    lambda: check_signs(CUBE, F_CLS, 0.8, 1.0, parse_expr("-1"), 1.0),
], ids=["h_l1", "h", "n0", "dn", "growth", "floor", "upper", "lower"])
def test_failure_details_print_plain_floats(make):
    # numpy scalars print as np.float64(...) unless made floats first
    cert = make()
    assert not cert.verdict.passed and cert.verdict.detail
    assert "np." not in cert.report_text()


def test_undefined_degree_prints_plain_floats():
    # the planar map of F_CLS vanishes at (0, log 2), on this circle
    with pytest.raises(BoundaryZero) as ei:
        brouwer_degree(F_CLS, 1.0, np.float64(np.log(2.0)))
    text = ei.value.report_text()
    assert text.startswith("rho=0.6931471805599453\nwinding=undefined\n")
    assert "np." not in text + str(ei.value)


# ------------------------------------------------------------------- signs


class TestSignCertificate:
    def test_benchmark_passes_with_exact_constants(self):
        cert = check_signs(CUBE, F_CLS, -1.0, 1.0, parse_expr("-1"), 1.0)
        assert cert.verdict.passed
        assert cert.L == 1.0
        assert abs(cert.r - 3.0 ** (1.0 / 3.0)) <= 1e-12
        assert abs(cert.rho_min - 3.0 * 3.0 ** (1.0 / 3.0)) <= 1e-12
        assert cert.c_neg_l1 == 1.0

    def test_box_is_derived_from_the_bounds(self):
        # half-width max(10, 2*(r + r*T)): the floor at T = 1, the bound at 3
        cert = check_signs(CUBE, F_CLS, -1.0, 1.0, parse_expr("-1"), 1.0)
        assert cert.box == 10.0
        cert = check_signs(CUBE, F_CLS, -1.0, 1.0, parse_expr("-1"), 3.0)
        half = 2.0 * (cert.r + cert.r * 3.0)
        assert cert.verdict.passed and half > 10.0
        assert cert.box == half

    def test_report_text(self):
        cert = check_signs(CUBE, F_CLS, -1.0, 1.0, parse_expr("-1"), 1.0)
        text = cert.report_text()
        assert "certificate=signs" in text
        assert "r=1.4422495703074083" in text
        assert "rho_min=4.3267487109222245" in text

    def test_floor_too_high_fails(self):
        # f dips to -1 + eps, so c = 0 is not a lower bound
        cert = check_signs(CUBE, F_CLS, -1.0, 1.0, parse_expr("0"), 1.0)
        assert cert.verdict.status == "failed_at"
        assert cert.verdict.witness is not None

    def test_zero_on_the_threshold_fails_strict_sign(self):
        # f(v) = e^v/2 - 1 vanishes at v = ln 2, so m2 = ln 2 is not strictly
        # inside the positivity region
        cert = check_signs(CUBE, F_CLS, -1.0, float(np.log(2.0)), parse_expr("-1"), 1.0)
        assert cert.verdict.status == "failed_at"
        assert "not > 0" in cert.verdict.detail

    def test_needs_full_range_phi(self):
        with pytest.raises(ValueError):
            check_signs(MC1, F_CLS, -1.0, 1.0, parse_expr("-1"), 1.0)

    def test_needs_ordered_thresholds(self):
        with pytest.raises(ValueError):
            check_signs(CUBE, F_CLS, 1.0, -1.0, parse_expr("-1"), 1.0)

    def test_floor_may_only_depend_on_t(self):
        with pytest.raises(ValueError):
            check_signs(CUBE, F_CLS, -1.0, 1.0, parse_expr("u"), 1.0)


# -------------------------------------------------------------- planar map


def test_planar_map_zero_at_analytic_root():
    # (a, b) = (0, ln 2) makes the nonlinearity vanish along a + b*t
    ga, gb = planar_map(F_CLS, 1.0, 0.0, float(np.log(2.0)))
    assert ga == 0.0 and gb == 0.0


def test_planar_map_constant_forcing():
    # f = 1: first component is -integral(1) = -T, second is b - a - b*T
    ga, gb = planar_map(parse_expr("1"), 1.0, 0.0, 0.0)
    assert ga == -1.0 and gb == 0.0


def test_planar_map_no_forcing_is_antidiagonal():
    # f = 0, T = 1 collapses to (a, -a); use dyadic a, b to keep it exact
    ga, gb = planar_map(parse_expr("0"), 1.0, 0.5, 0.25)
    assert ga == 0.5 and gb == -0.5


@pytest.mark.parametrize("T", [1.0, 0.5])
@pytest.mark.parametrize("src", ["u^3 - u + 0.1*sin(6*t)", "(t - 0.5)^2*u + v^3 - 1",
                                 "exp(u) - 2 + sin(v)", "abs(u)^2.5 + t^3 - v"])
def test_batched_planar_map_matches_its_0d_calls(src, T):
    # numpy's power can round 0-d and array operands differently, so the
    # batch must build each point's row as a lone call does
    f = parse_expr(src)
    theta = 2.0 * np.pi * np.arange(256) / 256
    ring = (2.0 * np.cos(theta), 2.0 * np.sin(theta))
    rng = np.random.default_rng(7)
    batch = tuple(rng.uniform(-3.0, 3.0, (5, 3)) for _ in range(2))
    for a, b in (ring, batch):
        g1, g2 = planar_map(f, T, a, b)
        assert g1.shape == g2.shape == a.shape
        lone = np.array([planar_map(f, T, float(x), float(y))
                         for x, y in zip(a.ravel(), b.ravel())])
        assert np.array_equal(g1.ravel(), lone[:, 0])
        assert np.array_equal(g2.ravel(), lone[:, 1])


def _planar_fault(f, a, b):
    with pytest.raises(EvalDomainError) as ei:
        planar_map(f, 1.0, a, b)
    return ei.value


def test_batched_planar_fault_names_the_first_faulting_point():
    f = parse_expr("log(v + 2)")
    theta = 2.0 * np.pi * np.arange(256) / 256
    a, b = 4.0 * np.cos(theta), 4.0 * np.sin(theta)
    err = _planar_fault(f, a, b)
    first = next(k for k in range(256) if b[k] <= -2.0)
    assert err.index == first
    assert str(err) == str(_planar_fault(f, float(a[first]), float(b[first])))
    assert str(err) == (
        "f: log of non-positive value at t = 0.0 for (a, b) = "
        "(-3.4309144400010885, -2.056410976772886), radius 4.0")


def test_batched_planar_fault_is_not_the_first_operation_to_fault():
    # the log faults at the second point before the division at the first
    # is reached; a loop over the points meets the division first
    err = _planar_fault(parse_expr("log(v + 2) + 1/u"), [0.0, 1.0], [0.0, -3.0])
    assert err.index == 0
    assert str(err) == ("f: division by zero at t = 0.0 for (a, b) = (0.0, 0.0), "
                        "radius 0.0")


@pytest.mark.parametrize("src,fault,t", [
    ("1/t", "division by zero", "0.0"),
    ("log(t)", "log of non-positive value", "0.0"),
    ("sqrt(t - 0.5) + u", "sqrt of negative value", "0.0"),
    ("1/(t - 0.25) + v", "division by zero", "0.25"),
])
def test_planar_fault_in_t_alone_names_the_first_point(src, fault, t):
    # a fault that does not depend on (a, b) hits every point, the first one
    # included, so there is no earlier point left to evaluate again
    f = parse_expr(src)
    text = f"f: {fault} at t = {t} for (a, b) = (1.0, 2.0), radius 2.23606797749979"
    assert str(_planar_fault(f, 1.0, 2.0)) == text
    err = _planar_fault(f, [1.0, 3.0], [2.0, -1.0])
    assert (err.index, str(err)) == (0, text)
    assert newton_sign_sum(f, 1.0, 2.0, starts_per_axis=8) == (0, [], False)


# ------------------------------------------------------------------ degree


RHO_MIN = 3.0 * 3.0 ** (1.0 / 3.0)


class TestDegree:
    def test_benchmark_winding(self):
        res = brouwer_degree(F_CLS, 1.0, RHO_MIN)
        assert res.winding == -1
        assert abs(res.min_boundary_norm - 0.7038355506932806) <= 1e-12
        assert res.boundary_samples >= 256

    def test_ring_batch_frees_kernel_intermediates(self):
        # the (256, 201) ring batch takes 411 KB per array; f's kernel frees
        # each intermediate once consumed (a peak of 2.18 MB kept them all)
        f = parse_expr("exp(v)/2.0023 - 1")
        brouwer_degree(f, 1.0, RHO_MIN)  # compiles the kernel
        tracemalloc.start()
        try:
            brouwer_degree(f, 1.0, RHO_MIN)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.1e6

    def test_benchmark_winding_agrees_with_newton_multistart(self):
        res = brouwer_degree(F_CLS, 1.0, RHO_MIN)
        sign_sum, zeros, trustworthy = newton_sign_sum(F_CLS, 1.0, RHO_MIN)
        assert trustworthy
        assert sign_sum == res.winding == -1
        assert len(zeros) == 1
        a, b = zeros[0]
        assert abs(a) <= 1e-9 and abs(b - np.log(2.0)) <= 1e-9

    def test_winding_stable_under_sample_doubling(self):
        assert brouwer_degree(F_CLS, 1.0, RHO_MIN, n_start=512).winding == -1

    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0, 5.0, 10.0])
    def test_identity_map_has_winding_one(self, rho):
        res = winding_number(lambda x, y: (x, y), rho)
        assert res.winding == 1

    def test_zero_forcing_hits_boundary_zero(self):
        # f = 0 collapses the map to (a, -a), which vanishes on the b-axis
        with pytest.raises(BoundaryZero) as ei:
            brouwer_degree(parse_expr("0"), 1.0, 1.0)
        assert ei.value.rho == 1.0
        assert ei.value.min_norm <= 1e-9 * ei.value.scale

    def test_reflection_has_winding_minus_one(self):
        res = winding_number(lambda x, y: (x, -y), 1.0)
        assert res.winding == -1

    def test_doubling_map_has_winding_two(self):
        # z -> z^2 on the circle
        res = winding_number(lambda x, y: (x * x - y * y, 2 * x * y), 1.0)
        assert res.winding == 2

    def test_unresolvable_jump_hits_the_refinement_cap(self):
        # the map flips direction where y changes sign: no bisection of
        # that arc brings its angle increment below pi/2
        with pytest.raises(BoundaryZero) as ei:
            winding_number(
                lambda x, y: (np.where(y >= 0, 1.0, -1.0), np.zeros_like(y)), 1.0)
        assert ei.value.min_norm == 1.0

    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError):
            winding_number(lambda x, y: (x, y), 0.0)

    def test_report_text(self):
        text = brouwer_degree(F_CLS, 1.0, RHO_MIN).report_text()
        assert "winding=-1" in text
        assert "min_boundary_norm=" in text
        assert "boundary_samples=" in text

    def test_deterministic(self):
        a = brouwer_degree(F_CLS, 1.0, RHO_MIN)
        b = brouwer_degree(F_CLS, 1.0, RHO_MIN)
        assert a == b



# u^3 - u + 0.1*sin(6*t) at T = 1: the planar map has three zeros on the b-axis
F_THREE = parse_expr("u^3 - u + 0.1*sin(6*t)")


def test_three_planar_zeros_and_their_sign_sum():
    sign_sum, zeros, trustworthy = newton_sign_sum(F_THREE, 1.0, 4.0)
    assert trustworthy
    found = sorted(zeros, key=lambda z: z[1])
    for (a, b), want in zip(found, (-1.4149, 0.0013, 1.4135)):
        assert abs(a) <= 1e-12 and abs(b - want) <= 1e-4
    assert sign_sum == brouwer_degree(F_THREE, 1.0, 4.0).winding == -1


def test_small_disk_holds_one_planar_zero():
    sign_sum, zeros, trustworthy = newton_sign_sum(F_THREE, 1.0, 1.0)
    assert trustworthy and len(zeros) == 1
    a, b = zeros[0]
    assert abs(a) <= 1e-12 and abs(b - 0.0013) <= 1e-4
    assert sign_sum == brouwer_degree(F_THREE, 1.0, 1.0).winding == 1


@pytest.mark.parametrize("starts,zero", [
    (8, (2.488434950798427e-17, -1.000000000006051)),
    (16, (-4.7651348329107466e-17, -0.9999999999999858)),
])
def test_sign_sum_contains_faults_per_start(starts, zero):
    # log(v + 2) faults wherever v <= -2, on part of the disk: the starts
    # there end unconverged, and the others still find the zero (0, -1)
    sign_sum, zeros, trustworthy = newton_sign_sum(parse_expr("log(v + 2)"), 1.0,
                                                   4.0, starts_per_axis=starts)
    assert (sign_sum, trustworthy) == (-1, False)
    assert [tuple(z) for z in zeros] == [zero]


def test_singular_jacobians_end_only_their_own_starts():
    # f = 0, T = 1 maps (a, b) to (a, -a) up to rounding, so most Newton
    # Jacobians are exactly singular, which would make numpy raise for the
    # whole stack; two starts still reach zeros on the b-axis, both degenerate
    sign_sum, zeros, trustworthy = newton_sign_sum(parse_expr("0"), 1.0, 1.0,
                                                   starts_per_axis=8)
    assert (sign_sum, trustworthy) == (0, False)
    assert [tuple(z) for z in zeros] == [(-4.107963968991157e-12, -0.5714285714285715),
                                         (-4.107963968991157e-12, 0.5714285714285713)]


def test_stacked_solve_leaves_each_row_to_its_own_jacobian():
    # a singular row is nan and a row with an inf entry solves to non-finite
    # values, without a warning from det; the regular row solves as alone
    J = np.array([[[2.0, 1.0], [1.0, 3.0]], [[1.0, 2.0], [2.0, 4.0]],
                  [[1.0, np.inf], [0.0, 1.0]]])
    r = np.array([[1.0, 2.0], [1.0, 1.0], [1.0, 1.0]])
    x = _solve_each(J, r)
    assert np.array_equal(x[0], np.linalg.solve(J[0], r[0]))
    assert np.isnan(x[1]).all() and not np.isfinite(x[2]).all()


def test_pole_inside_the_disk_leaves_the_degree_undefined():
    with pytest.raises(BoundaryZero) as ei:
        brouwer_degree(parse_expr("1/(v - 0.5) + u"), 1.0, 2.0)
    assert ei.value.report_text() == (
        "rho=2.0\nwinding=undefined\nmin_boundary_norm=1.4000000000000001\n")


def _flip_map(theta0):
    # z - z0 for z0 on the unit circle at angle theta0, its sign flipped
    # where y < 0.3: the flip is an arc no bisection resolves
    c0, s0 = np.cos(theta0), np.sin(theta0)

    def fn(x, y):
        s = np.where(y >= 0.3, 1.0, -1.0)
        return s * (x - c0), s * (y - s0)
    return fn


@pytest.mark.parametrize("arcs,min_norm", [(10.3, 4.681337912102157e-09),
                                           (50.3, 0.00736309114879932)])
def test_boundary_zero_is_the_first_in_walk_order(arcs, min_norm):
    # the zero of z - z0 sits 10.3 or 50.3 initial arcs round the circle,
    # and the flip at y = 0.3 about 12.4.  The winding number reports
    # what a depth-first walk of the arcs meets first: the zero's
    # sample, or the flip's arc at the refinement cap with the least norm
    # sampled before it, the zero's deep samples not among them.
    with pytest.raises(BoundaryZero) as ei:
        winding_number(_flip_map(2.0 * np.pi * arcs / 256), 1.0)
    assert ei.value.min_norm == min_norm


def test_refinement_cap_comes_before_a_later_fault_in_walk_order():
    # the flip at y = 0.3 leaves initial arcs 12 and 115 unresolvable; a map
    # that faults inside arc 115, off the ring, is never called there, since
    # the walk hits the refinement cap in arc 12 first
    step = 2.0 * np.pi / 256
    flipped = _flip_map(50.3 * step)

    def fn(x, y):
        pos = np.mod(np.arctan2(y, x), 2.0 * np.pi) / step
        if np.any((np.abs(pos - np.round(pos)) > 1e-6) & (np.floor(pos) == 115)):
            raise EvalDomainError("fault inside arc 115")
        return flipped(x, y)

    with pytest.raises(BoundaryZero) as ei:
        winding_number(fn, 1.0)
    assert ei.value.min_norm == 0.00736309114879932


def test_boundary_zero_ignores_samples_after_it_in_walk_order():
    # (z - z0)(z - z1): z0 lies 8e-9 inside the circle, under the midpoint
    # of initial arc 10, so the first bisection samples it; z1 lies on the
    # circle in arc 20, whose deep bisections come closer to 0 but follow
    # z0's sample in walk order
    step = 2.0 * np.pi / 256
    x0, y0 = (1.0 - 8e-9) * np.cos(10.5 * step), (1.0 - 8e-9) * np.sin(10.5 * step)
    x1, y1 = np.cos(20.3 * step), np.sin(20.3 * step)

    def fn(x, y):
        ax, ay, bx, by = x - x0, y - y0, x - x1, y - y1
        return ax * bx - ay * by, ax * by + ay * bx

    with pytest.raises(BoundaryZero) as ei:
        winding_number(fn, 1.0)
    assert ei.value.min_norm == 1.919590361536871e-09


def test_bisection_walks_the_left_half_of_an_arc_first():
    # a unit-modulus map whose phase turns 0.7 pi over each half of initial
    # arc 10, and whose modulus dips to about 1e-12 at the quarter point
    # and 2e-12 at the three-quarter point: both halves need a bisection,
    # and the walk meets the left half's dip first
    step = 2.0 * np.pi / 256

    def fn(x, y):
        pos = np.mod(np.arctan2(y, x), 2.0 * np.pi) / step
        phase = np.interp(pos, [0.0, 10.0, 10.5, 11.0, 256.0],
                          [0.0, 0.0, 0.7 * np.pi, 1.4 * np.pi, 2.0 * np.pi])
        modulus = (1.0 - (1.0 - 1e-12) * np.exp(-((pos - 10.25) / 1e-3) ** 2)
                   - (1.0 - 2e-12) * np.exp(-((pos - 10.75) / 1e-3) ** 2))
        return modulus * np.cos(phase), modulus * np.sin(phase)

    with pytest.raises(BoundaryZero) as ei:
        winding_number(fn, 1.0)
    assert ei.value.min_norm < 1.5e-12


@pytest.mark.parametrize("n_start,value,k", [
    (256, np.nan, 150),  # the first ring sample with y < -0.5
    (5, np.nan, 3),
    (2, np.nan, 1.5),    # the ring (0, pi) is finite; the midpoint 3 pi / 2 is not
    (256, np.inf, 150),  # not a BoundaryZero of scale inf
])
def test_non_finite_map_names_its_first_angle_in_walk_order(n_start, value, k):
    def fn(x, y):
        return np.where(y < -0.5, value, x), y

    theta = 2.0 * np.pi * k / n_start
    with pytest.raises(ValueError, match=f"not finite at angle {theta!r}: "):
        winding_number(fn, 1.0, n_start=n_start)
