import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phibvp.homeomorphism import (
    Kind,
    identity,
    make_homeomorphism,
    mean_curvature,
    parse_phi_config,
    power,
    relativistic,
)

ALL = [
    identity(),
    power(2.0),
    power(4.0),
    mean_curvature(1.0),
    mean_curvature(2.5),
    relativistic(1.0),
    relativistic(0.5),
]


def test_kinds():
    assert identity().kind is Kind.CLASSIC
    assert power(4.0).kind is Kind.CLASSIC
    assert mean_curvature(1.0).kind is Kind.BOUNDED
    assert relativistic(1.0).kind is Kind.SINGULAR


def test_zero_maps_to_zero():
    for phi in ALL:
        assert float(phi.forward(0.0)) == 0.0
        assert float(phi.inverse(0.0)) == 0.0


def test_round_trip_identity():
    rng = np.random.default_rng(42)
    for phi in ALL:
        if phi.kind is Kind.SINGULAR:
            ys = rng.uniform(-0.9 * phi.a, 0.9 * phi.a, 200)
        else:
            ys = rng.uniform(-20.0, 20.0, 200)
        for y in ys:
            x = float(phi.forward(float(y)))
            back = float(phi.inverse(x))
            assert back == pytest.approx(y, rel=1e-10, abs=1e-12)


def test_odd_symmetry():
    # every catalog map is odd
    for phi in ALL:
        hi = 0.9 * phi.a if phi.kind is Kind.SINGULAR else 10.0
        for y in np.linspace(0.0, hi, 50):
            assert float(phi.forward(-y)) == pytest.approx(
                -float(phi.forward(y)), abs=1e-14)


def test_strict_monotonicity():
    rng = np.random.default_rng(5)
    for phi in ALL:
        hi = (1 - 1e-6) * phi.a if phi.kind is Kind.SINGULAR else 30.0
        ys = np.sort(rng.uniform(-hi, hi, 300))
        vals = np.asarray(phi.forward(ys))
        assert np.all(np.diff(vals) > 0)


def test_power_closed_form():
    phi = power(4.0)
    assert float(phi.forward(2.0)) == pytest.approx(8.0)
    assert float(phi.forward(-2.0)) == pytest.approx(-8.0)
    assert float(phi.inverse(27.0)) == pytest.approx(3.0)
    assert float(phi.inverse(3.0)) == pytest.approx(3.0 ** (1.0 / 3.0), rel=1e-15)


def test_mean_curvature_closed_form():
    phi = mean_curvature(1.0)
    # phi(y) = y / sqrt(1 + y^2); phi(0.75) = 0.6, inverse of 0.8 is 4/3
    assert float(phi.forward(0.75)) == pytest.approx(0.6)
    assert float(phi.inverse(0.8)) == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_relativistic_closed_form():
    phi = relativistic(1.0)
    assert float(phi.forward(0.6)) == pytest.approx(0.75)
    assert float(phi.inverse(0.75)) == pytest.approx(0.6, rel=1e-14)


@settings(max_examples=300, deadline=None)
@given(phi=st.sampled_from(ALL), frac=st.floats(1e-3, 1.0 - 1e-6),
       sign=st.sampled_from([-1.0, 1.0]))
# the edges: x near a for a bounded phi, phi^{-1}(x) near -a for a singular one
@example(phi=ALL[3], frac=1.0 - 1e-6, sign=1.0)
@example(phi=ALL[5], frac=1.0 - 1e-6, sign=-1.0)
def test_inverse_slope_matches_a_centred_difference(phi, frac, sign):
    if phi.kind is Kind.BOUNDED:
        x = sign * frac * phi.a
        d = 1e-4 * min(abs(x), phi.a - abs(x))
    else:
        hi = phi.a if phi.kind is Kind.SINGULAR else 20.0
        x = float(phi.forward(sign * frac * hi))
        d = 1e-4 * abs(x)
    lo, up = x - d, x + d
    diff = (float(phi.inverse(up)) - float(phi.inverse(lo))) / (up - lo)
    assert float(phi.inverse_slope(x)) == pytest.approx(diff, rel=1e-5)


def test_power_inverse_slope_is_infinite_at_zero():
    with np.errstate(divide="ignore"):
        assert float(power(4.0).inverse_slope(0.0)) == np.inf
    assert float(power(2.0).inverse_slope(0.0)) == 1.0


def test_wrong_inverse_slope_is_rejected():
    phi = mean_curvature(1.0)
    with pytest.raises(ValueError, match="inverse slope error"):
        dataclasses.replace(phi, inverse_slope=lambda x: 0.5 * phi.inverse_slope(x))


def test_bounded_range_respected():
    phi = mean_curvature(2.0)
    vals = np.asarray(phi.forward(np.array([1e3, 1e6])))
    assert np.all(np.abs(vals) < 2.0)
    # far out the float quotient saturates; it must never overshoot a
    huge = np.asarray(phi.forward(np.array([1e9, 1e300])))
    assert np.all(np.abs(huge) <= 2.0)


def test_singular_range_unbounded():
    phi = relativistic(1.0)
    assert abs(float(phi.forward(1.0 - 1e-10))) > 1e4


def test_power_requires_superlinear():
    with pytest.raises(ValueError):
        power(1.0)
    with pytest.raises(ValueError):
        power(0.5)


def test_overflowing_power_is_reported_without_a_numpy_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite on probes"):
            power(1e308)


def test_positive_parameter_required():
    for factory in (mean_curvature, relativistic):
        with pytest.raises(ValueError):
            factory(0.0)
        with pytest.raises(ValueError):
            factory(-1.0)


def test_make_homeomorphism_catalog():
    assert make_homeomorphism("identity").name == "identity"
    assert make_homeomorphism("mean_curvature", 1.5).a == 1.5
    with pytest.raises(ValueError):
        make_homeomorphism("nope")
    with pytest.raises(ValueError):
        make_homeomorphism("power")  # missing parameter
    with pytest.raises(ValueError):
        make_homeomorphism("identity", 3.0)  # spurious parameter


def test_parse_phi_config():
    phi = parse_phi_config("mean_curvature 1")
    assert phi.kind is Kind.BOUNDED and phi.a == 1.0
    assert parse_phi_config("identity").name == "identity"
    with pytest.raises(ValueError):
        parse_phi_config("")
    with pytest.raises(ValueError):
        parse_phi_config("power four")


def test_vectorized_forward_matches_scalar():
    # +-*/ and sqrt are correctly rounded, so identity / mean_curvature /
    # relativistic agree bitwise; power goes through pow, which may differ
    # by an ulp between the array and scalar code paths
    rng = np.random.default_rng(9)
    for phi in ALL:
        hi = 0.8 * phi.a if phi.kind is Kind.SINGULAR else 5.0
        ys = rng.uniform(-hi, hi, 64)
        vec = np.asarray(phi.forward(ys))
        sca = np.array([float(phi.forward(float(y))) for y in ys])
        if phi.name == "power":
            assert np.allclose(vec, sca, rtol=1e-14, atol=0.0)
        else:
            assert np.array_equal(vec, sca)
