"""Certificate and degree tests.

The two worked examples have closed-form certificate constants, so those
are frozen here to tight tolerances.  The degree routine is cross-checked
against an independent Newton multistart that counts zeros with orientation
signs.
"""

import math

import numpy as np
import pytest

from phibvp import make_homeomorphism, parse_expr
from phibvp.certificates import (
    BoundaryZero,
    InconsistentDerivative,
    SampleBox,
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

    def test_larger_box_still_passes(self):
        box = SampleBox(25.0, 25.0)
        assert growth(0.1, box=box).verdict.passed

    def test_deterministic(self):
        assert growth(0.1).report_text() == growth(0.1).report_text()


# ------------------------------------------------------------------- signs


class TestSignCertificate:
    def test_benchmark_passes_with_exact_constants(self):
        cert = check_signs(CUBE, F_CLS, -1.0, 1.0, parse_expr("-1"), 1.0)
        assert cert.verdict.passed
        assert cert.L == 1.0
        assert abs(cert.r - 3.0 ** (1.0 / 3.0)) <= 1e-12
        assert abs(cert.rho_min - 3.0 * 3.0 ** (1.0 / 3.0)) <= 1e-12
        assert cert.c_neg_l1 == 1.0

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


# ------------------------------------------------------------------ degree


RHO_MIN = 3.0 * 3.0 ** (1.0 / 3.0)


class TestDegree:
    def test_benchmark_winding(self):
        res = brouwer_degree(F_CLS, 1.0, RHO_MIN)
        assert res.winding == -1
        assert abs(res.min_boundary_norm - 0.7038355506932806) <= 1e-12
        assert res.boundary_samples >= 256

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
                lambda x, y: (1.0, 0.0) if y >= 0 else (-1.0, 0.0), 1.0)
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


# ------------------------------------------------------------- sample box


def test_sample_box_validation():
    with pytest.raises(ValueError):
        SampleBox(0.0, 1.0)
    with pytest.raises(ValueError):
        SampleBox(1.0, -2.0)
    with pytest.raises(ValueError):
        SampleBox(math.inf, 1.0)


def test_sample_box_is_frozen():
    box = SampleBox(1.0, 2.0)
    with pytest.raises(Exception):
        box.x_max = 3.0
