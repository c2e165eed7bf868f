import dataclasses
import gc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from phibvp import operators
from phibvp.expr import parse_expr
from phibvp.function_space import (
    Grid,
    GridFunction,
    cumulative_integral_from_0,
    mean,
    zero_function,
)
from phibvp.homeomorphism import (
    identity,
    make_homeomorphism,
    mean_curvature,
    power,
    relativistic,
)
from phibvp.operators import (
    AdmissibilityViolation,
    BoundedPreconditionError,
    NoSignChangeError,
    classic_threepoint_map,
    dirichlet_map,
    nemytskii,
    q_phi,
    singular_threepoint_map,
)

QPHI_PHIS = [identity(), power(4.0), mean_curvature(1.0), relativistic(1.0)]
QPHI_EVALUATIONS = {"identity": 250, "power": 1711, "mean_curvature": 785,
                    "relativistic": 1017}


def random_h(rng, grid, amp):
    # smooth random profile: constant + low trig modes, scaled to sup <= amp
    t = grid.nodes / grid.T
    h = (rng.uniform(-1, 1)
         + rng.uniform(-1, 1) * np.sin(2 * np.pi * t)
         + rng.uniform(-1, 1) * np.cos(2 * np.pi * t)
         + rng.uniform(-1, 1) * np.sin(4 * np.pi * t))
    return h * (amp / max(1.0, np.max(np.abs(h))))


def amplitude_for(phi):
    return 0.4 * phi.a if phi.kind.value == "bounded" else 1.5


def test_qphi_defining_identity_randomized():
    # the returned shift really zeroes the integral of phi^{-1}(h - s)
    rng = np.random.default_rng(314)
    for phi in QPHI_PHIS:
        amp = amplitude_for(phi)
        evaluations = []
        for _ in range(250):
            T = float(rng.uniform(0.2, 3.0))
            grid = Grid(T, 101)
            h = random_h(rng, grid, amp)
            res = q_phi(phi, grid, h)
            vals = np.asarray(phi.inverse(h - res.s), dtype=float)
            check = np.trapezoid(vals, grid.nodes)  # independent quadrature
            assert abs(check) <= 1e-12 * T
            assert h.min() - 1e-15 <= res.s <= h.max() + 1e-15
            evaluations.append(res.iterations)
        # Newton from mean(h): a mean of 1.0, 6.84, 3.14 and 4.07 integrals
        # per call (Brent's method took 5.0, 12.19, 8.95 and 9.33)
        assert sum(evaluations) == QPHI_EVALUATIONS[phi.name], phi


def test_qphi_shift_equivariance():
    rng = np.random.default_rng(2718)
    for phi in QPHI_PHIS:
        amp = amplitude_for(phi)
        for _ in range(50):
            grid = Grid(float(rng.uniform(0.5, 2.0)), 101)
            h = random_h(rng, grid, 0.5 * amp)
            c = float(rng.uniform(-0.4 * amp, 0.4 * amp))
            s0 = q_phi(phi, grid, h).s
            s1 = q_phi(phi, grid, h + c).s
            assert s1 - s0 == pytest.approx(c, abs=1e-10)


def test_qphi_identity_gives_mean():
    rng = np.random.default_rng(99)
    phi = identity()
    for _ in range(100):
        grid = Grid(float(rng.uniform(0.2, 4.0)), 101)
        h = random_h(rng, grid, 2.0)
        s = q_phi(phi, grid, h).s
        assert s == pytest.approx(mean(grid, h), abs=1e-10)


def test_qphi_constant_shortcut():
    grid = Grid(1.0, 51)
    for phi in QPHI_PHIS:
        h = np.full(51, 0.3 if phi.kind.value == "bounded" else 0.7)
        res = q_phi(phi, grid, h)
        assert res.s == h[0]
        assert res.iterations == 0


def test_qphi_odd_profile_gives_zero_shift():
    # h odd about T/2 and phi^{-1} odd force s = 0
    grid = Grid(1.0, 1001)
    h = 0.3 * np.sin(2.0 * np.pi * grid.nodes)
    for phi in QPHI_PHIS:
        assert q_phi(phi, grid, h).s == pytest.approx(0.0, abs=1e-10)


def test_qphi_linear_profile_shift():
    # h = -2t on [0, 0.1]: oddness about the midpoint puts s at -0.1
    grid = Grid(0.1, 1001)
    h = -2.0 * grid.nodes
    for phi in (mean_curvature(1.0), identity()):
        assert q_phi(phi, grid, h).s == pytest.approx(-0.1, abs=1e-12)


def test_qphi_bounded_precondition():
    phi = mean_curvature(1.0)
    grid = Grid(1.0, 101)
    with pytest.raises(BoundedPreconditionError):
        q_phi(phi, grid, np.full(101, 0.5))  # sup = a/2 exactly: rejected
    # just inside the bound is fine
    q_phi(phi, grid, np.full(101, 0.4999))


def test_qphi_keeps_no_reference_to_h():
    # without the cyclic collector, h must die with the caller's last
    # reference; a reference cycle around q_phi's integrand would keep it
    grid = Grid(1.0, 101)
    h = np.sin(2.0 * np.pi * grid.nodes) / 4.0 + 0.1
    alive = weakref.ref(h)
    gc.disable()
    try:
        q_phi(mean_curvature(1.0), grid, h)
        del h
        assert alive() is None
    finally:
        gc.enable()


def test_qphi_steep_inverse_still_meets_residual():
    # near the bounded range edge phi^{-1} is extremely steep, so a shift
    # found to a few ulps must still leave a small integral residual
    phi = mean_curvature(1.0)
    grid = Grid(1.0, 501)
    h = 0.49 * np.sin(2.0 * np.pi * grid.nodes) + 0.004
    res = q_phi(phi, grid, h)
    vals = np.asarray(phi.inverse(h - res.s), dtype=float)
    assert abs(np.trapezoid(vals, grid.nodes)) <= 1e-12


def steep_profiles():
    # h whose mean is a node value (the cube root's slope is infinite
    # there), or one ulp or 1e-30 away from one (a huge but finite slope
    # gives a Newton step far shorter than the distance to the root)
    yield Grid(3.0, 4), np.array([-2.0, 0.0, 1.0, 0.0])
    yield Grid(3.0, 4), np.array([-2.0, 1e-30, 1.0, 1e-30])
    grid = Grid(1.0, 101)
    t = grid.nodes
    h = 1e-4 * (np.sin(2.0 * np.pi * t) + 0.3 + t)
    m = mean(grid, h)
    h[1] = np.nextafter(m, 1.0)
    h[-2] = np.nextafter(m, -1.0)
    yield grid, h


@pytest.mark.parametrize("grid, h", list(steep_profiles()),
                         ids=["mean_at_node", "node_1e-30_off", "node_1ulp_off"])
def test_qphi_steep_inverse_still_finds_the_root(grid, h):
    # numpy's division by zero at a node value stays silent, too
    phi = power(4.0)
    res = q_phi(phi, grid, h)
    assert abs(np.trapezoid(phi.inverse(h - res.s), grid.nodes)) <= 1e-12 * grid.T
    assert h.min() < res.s < h.max()


def test_qphi_returns_the_inverse_it_integrates():
    grid = Grid(1.0, 101)
    h = 0.3 * np.sin(2.0 * np.pi * grid.nodes) + 0.1
    for phi in QPHI_PHIS:
        res = q_phi(phi, grid, h)
        assert np.array_equal(res.inverse, phi.inverse(h - res.s))
        assert not res.inverse.flags.writeable


def counting_inverse(phi, n):
    """phi with an inverse that counts its calls on n samples."""
    calls = []
    inverse = phi.inverse
    phi = dataclasses.replace(phi, inverse=lambda x: calls.append(np.size(x) == n)
                              or inverse(x))
    calls.clear()
    return phi, calls


@pytest.mark.parametrize("kind", ["dirichlet", "singular"])
def test_map_evaluates_the_inverse_once_per_shift_integral(monkeypatch, kind):
    # the map reuses q_phi's phi^{-1}(h - s) instead of evaluating it again
    grid = Grid(0.5, 101)
    results = []
    monkeypatch.setattr(operators, "q_phi",
                        lambda *a: results.append(q_phi(*a)) or results[-1])
    w = make_w(np.random.default_rng(8), grid, scale=0.4)
    f = parse_expr("exp(t) + u*v")
    if kind == "dirichlet":
        phi, calls = counting_inverse(mean_curvature(1.0), grid.n)
        dirichlet_map(phi, f, w, 0.7)
    else:
        phi, calls = counting_inverse(relativistic(1.0), grid.n)
        singular_threepoint_map(phi, f, w)
    assert len(results) == 1 and results[0].iterations > 1, results
    assert sum(calls) == results[0].iterations


def make_w(rng, grid, scale=0.5):
    u = scale * np.sin(np.pi * grid.nodes / grid.T) * rng.uniform(-1, 1)
    du = scale * np.cos(2 * np.pi * grid.nodes / grid.T) * rng.uniform(-1, 1)
    return GridFunction(grid, u, du)


F_MIXED = parse_expr("sin(u)*0.5 + cos(v)*0.5")


W11 = zero_function(Grid(1.0, 11))


@pytest.mark.parametrize("call,message", [
    (lambda: q_phi(identity(), W11.grid, np.zeros(10)),
     r"expected 11 samples of h, got shape \(10,\)"),
    (lambda: dirichlet_map(relativistic(1.0), F_MIXED, W11), "bounded-range phi"),
    (lambda: dirichlet_map(mean_curvature(1.0), F_MIXED, W11, 1.5),
     r"lambda must lie in \[0, 1\], got 1.5"),
    (lambda: singular_threepoint_map(mean_curvature(1.0), F_MIXED, W11),
     "needs a singular phi"),
    (lambda: classic_threepoint_map(relativistic(1.0), F_MIXED, W11),
     "needs phi onto R"),
    (lambda: classic_threepoint_map(identity(), F_MIXED, W11, -0.5),
     r"lambda must lie in \[0, 1\], got -0.5"),
], ids=["qphi-shape", "dirichlet-kind", "dirichlet-lambda", "singular-kind",
        "classic-kind", "classic-lambda"])
def test_operator_input_guards(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_dirichlet_map_endpoints_exact_zero():
    rng = np.random.default_rng(5150)
    phi = mean_curvature(1.0)
    grid = Grid(0.3, 101)
    for _ in range(100):
        w = make_w(rng, grid)
        lam = float(rng.uniform(0.0, 1.0))
        out = dirichlet_map(phi, F_MIXED, w, lam)
        assert out.u[0] == 0.0
        assert out.u[-1] == 0.0
        assert np.max(np.abs(out.du)) < phi.a


def test_dirichlet_map_lambda_zero_is_zero():
    phi = mean_curvature(1.0)
    grid = Grid(0.3, 101)
    out = dirichlet_map(phi, F_MIXED, zero_function(grid), 0.0)
    assert np.all(out.u == 0.0)
    assert np.all(out.du == 0.0)


def test_dirichlet_map_first_iterate_closed_form():
    # from u = 0 with f = u - 2: inner integral -2t, shift -T, so
    # du = phi^{-1}(T - 2t)
    phi = mean_curvature(1.0)
    grid = Grid(0.1, 1001)
    f = parse_expr("u - 2")
    out = dirichlet_map(phi, f, zero_function(grid), 1.0)
    expect_du = np.asarray(phi.inverse(0.1 - 2.0 * grid.nodes))
    assert np.max(np.abs(out.du - expect_du)) < 1e-10


def test_dirichlet_map_admissibility_guard():
    # constant f = 5 over T = 0.3 drives the inner integral to 1.5 > a/2
    phi = mean_curvature(1.0)
    grid = Grid(0.3, 101)
    with pytest.raises(AdmissibilityViolation):
        dirichlet_map(phi, parse_expr("5"), zero_function(grid), 1.0)
    # small lambda rescales the same problem back inside the bound
    out = dirichlet_map(phi, parse_expr("5"), zero_function(grid), 0.1)
    assert out.u[0] == 0.0 and out.u[-1] == 0.0


def test_singular_map_boundary_identities():
    rng = np.random.default_rng(64)
    phi = relativistic(1.0)
    grid = Grid(1.0, 101)
    for _ in range(100):
        w = make_w(rng, grid, scale=0.4)
        out = singular_threepoint_map(phi, F_MIXED, w)
        assert abs(out.u[-1] - out.u[0]) <= 1e-10
        assert abs(out.du[-1] - out.u[0]) <= 1e-10
        assert np.max(np.abs(out.du)) < phi.a


def test_singular_map_closed_form():
    # f = 1, T = 1: shift -1/2, du = phi^{-1}(t - 1/2)
    phi = relativistic(1.0)
    grid = Grid(1.0, 1001)
    w = zero_function(grid)
    out = singular_threepoint_map(phi, parse_expr("1"), w)
    expect_du = (grid.nodes - 0.5) / np.sqrt(1.0 + (grid.nodes - 0.5) ** 2)
    assert np.max(np.abs(out.du - expect_du)) < 1e-10
    assert out.u[0] == pytest.approx(0.5 / np.sqrt(1.25), abs=1e-10)
    # this one is its own image: a fixed point
    again = singular_threepoint_map(phi, parse_expr("1"), out)
    assert np.max(np.abs(again.u - out.u)) < 1e-10


def test_classic_map_boundary_identities():
    rng = np.random.default_rng(77)
    phi = power(4.0)
    grid = Grid(1.0, 101)
    for _ in range(100):
        w = make_w(rng, grid, scale=0.7)
        lam = float(rng.uniform(0.0, 1.0))
        out = classic_threepoint_map(phi, F_MIXED, w, lam)
        uT_in = w.u[-1]
        # derivative endpoints agree with the input's end value; compare
        # through phi, since the cube-root inverse amplifies roundoff
        # without bound near zero
        pdu = np.asarray(phi.forward(out.du))
        puT = float(phi.forward(uT_in))
        assert pdu[0] == pytest.approx(puT, rel=1e-12, abs=1e-14)
        assert pdu[-1] == pytest.approx(puT, rel=1e-12, abs=1e-13)
        # end value moves by the mean of the substituted f
        drift = mean(grid, nemytskii(F_MIXED, w))
        assert out.u[-1] - uT_in == pytest.approx(drift, abs=1e-10)


def test_classic_map_fixed_point_affine():
    # u = ln2 * t solves the map exactly for f = exp(v)/2 - 1, T = 1
    phi = power(4.0)
    grid = Grid(1.0, 1001)
    f = parse_expr("exp(v)/2 - 1")
    ln2 = np.log(2.0)
    w = GridFunction(grid, ln2 * grid.nodes, np.full(grid.n, ln2))
    out = classic_threepoint_map(phi, f, w, 1.0)
    assert np.max(np.abs(out.u - w.u)) < 1e-12
    assert np.max(np.abs(out.du - w.du)) < 1e-12


def test_nemytskii_substitutes_pointwise():
    grid = Grid(2.0, 11)
    w = GridFunction(grid, grid.nodes**2, 2.0 * grid.nodes)
    vals = nemytskii(parse_expr("t + u - v"), w)
    assert np.allclose(vals, grid.nodes + grid.nodes**2 - 2.0 * grid.nodes,
                       atol=1e-14)


def test_no_sign_change_error_unreachable_by_shift_range():
    # q_phi brackets at [h_min, h_max]; a valid h never escapes, so force
    # the error by a degenerate manual call
    phi = identity()
    grid = Grid(1.0, 11)
    h = np.linspace(0.0, 1.0, 11)
    res = q_phi(phi, grid, h)  # sanity: regular call works
    assert 0.0 <= res.s <= 1.0
    with pytest.raises((NoSignChangeError, ValueError)):
        q_phi(phi, grid, np.array([np.nan] * 11))


def test_qphi_bracket_without_sign_change_is_corrupt_input():
    # a map that is not increasing breaks the bracket [min h, max h]
    not_increasing = SimpleNamespace(kind=identity().kind,
                                     inverse=lambda x: np.abs(x) + 1.0,
                                     inverse_slope=np.sign)
    grid = Grid(1.0, 11)
    with pytest.raises(NoSignChangeError, match="no sign change"):
        q_phi(not_increasing, grid, np.linspace(0.0, 1.0, 11))


@pytest.mark.parametrize("phi", [identity(), power(4.0), relativistic(1.0)],
                         ids=["identity", "power4", "relativistic1"])
def test_qphi_overflow_is_named(phi):
    # h - s spans 2e308 at the ends of the bracket, beyond the float range;
    # that is bad input, not corrupt data, and numpy must not warn about it
    grid = Grid(1.0, 11)
    h = 1e308 * grid.nodes - 1e308 * (1.0 - grid.nodes)
    with pytest.raises(ValueError, match="overflows at s = -1e"):
        q_phi(phi, grid, h)
