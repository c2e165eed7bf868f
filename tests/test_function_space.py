import numpy as np
import pytest

from phibvp.function_space import (
    Grid,
    GridFunction,
    cumulative_integral_from_0,
    cumulative_integral_to_T,
    integral,
    l1_norm,
    mean,
    sup_norm,
    zero_function,
)


def test_grid_basic():
    g = Grid(2.0, 5)
    assert g.n == 5
    assert g.h == 0.5
    assert np.allclose(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == 2.0


def test_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        Grid(0.0, 10)
    with pytest.raises(ValueError):
        Grid(-1.0, 10)
    with pytest.raises(ValueError):
        Grid(np.inf, 10)
    with pytest.raises(ValueError):
        Grid(1.0, 1)


def test_grid_nodes_are_read_only():
    g = Grid(1.0, 11)
    with pytest.raises(ValueError):
        g.nodes[0] = 3.0


def test_gridfunction_validation():
    g = Grid(1.0, 11)
    with pytest.raises(ValueError):
        GridFunction(g, np.zeros(10), np.zeros(11))
    with pytest.raises(ValueError):
        GridFunction(g, np.full(11, np.nan), np.zeros(11))


def test_cumulative_integral_linear_exact():
    # trapezoid is exact on affine integrands
    g = Grid(1.0, 101)
    v = 2.0 * g.nodes + 1.0
    w = cumulative_integral_from_0(g, v)
    assert w[0] == 0.0
    assert np.allclose(w, g.nodes**2 + g.nodes, atol=1e-14)


def test_cumulative_integral_to_T_endpoint_exact_zero():
    rng = np.random.default_rng(7)
    g = Grid(0.7, 57)
    v = rng.standard_normal(57)
    w = cumulative_integral_to_T(g, v)
    assert w[-1] == 0.0
    # the two cumulatives differ by the total integral
    w0 = cumulative_integral_from_0(g, v)
    assert np.allclose(w0 - w0[-1], w, atol=1e-13)


def test_integral_matches_numpy_trapezoid():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(2, 300))
        T = float(rng.uniform(0.1, 5.0))
        g = Grid(T, n)
        v = rng.standard_normal(n)
        assert integral(g, v) == pytest.approx(np.trapezoid(v, g.nodes), abs=1e-12)


def test_mean_of_constant():
    g = Grid(3.0, 23)
    assert mean(g, np.full(23, 4.25)) == pytest.approx(4.25, abs=1e-14)


def test_helpers():
    g = Grid(1.0, 5)
    v = np.array([-2.0, -1.0, 0.0, 1.0, 3.0])
    assert sup_norm(v) == 3.0
    assert l1_norm(g, np.abs(v)) == pytest.approx(np.trapezoid(np.abs(v), g.nodes))


def test_zero_function():
    g = Grid(1.0, 11)
    z = zero_function(g)
    assert np.all(z.u == 0.0) and np.all(z.du == 0.0)
