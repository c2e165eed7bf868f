"""Solver tests: benchmarks with closed forms, the dual-route battery,
diagnostics, and failure paths.

The shooting oracle integrates the same ODE with RK4 plus root finding on
the initial data, sharing no discretization machinery with the fixed-point
iteration, so sup-norm agreement between the two is a real check.
"""

import logging

import numpy as np
import pytest

from phibvp import (
    NonConvergence,
    ProblemClass,
    ProblemSpec,
    make_homeomorphism,
    parse_expr,
    shooting_oracle,
    solve,
)
from phibvp import solver
from phibvp.expr import eval_many
from phibvp.function_space import Grid, l1_norm
from phibvp.homeomorphism import EPS_DOM, Kind
from phibvp.operators import AdmissibilityViolation
from phibvp.solver import MAX_ITER

D = ProblemClass.DIRICHLET_BOUNDED
S = ProblemClass.THREEPOINT_SINGULAR
C = ProblemClass.THREEPOINT_CLASSIC


def make_spec(cls, phi_args, f_src, T, **kw):
    return ProblemSpec(cls, make_homeomorphism(*phi_args), parse_expr(f_src), T, **kw)


def trap_mean(w, expr):
    vals = eval_many(expr, w.grid.nodes, w.u, w.du)
    return np.trapezoid(vals, w.grid.nodes) / w.grid.T


# ------------------------------------------------------------- benchmarks


@pytest.fixture(scope="module")
def dirichlet_report():
    return solve(make_spec(D, ("mean_curvature", 1.0), "u - 2", 0.1))


@pytest.fixture(scope="module")
def classic_report():
    return solve(make_spec(C, ("power", 4.0), "exp(v)/2 - 1", 1.0))


class TestDirichletBenchmark:
    """Curvature-type phi with a = 1, f = u - 2 on [0, 0.1].

    The forcing is negative near u = 0, so the solution bows upward; the
    derivative bound L = phi^{-1}(2 * |h|_L1) = 4/3 comes from |h| = |f| <= 2
    on the relevant box.
    """

    @pytest.fixture
    def report(self, dirichlet_report):
        return dirichlet_report

    def test_converged_with_clean_bc(self, report):
        assert report.converged
        assert report.bc_residual <= 1e-8
        w = report.solution
        assert w.u[0] == 0.0 and w.u[-1] == 0.0

    def test_ode_residual_small(self, report):
        assert report.ode_residual <= 1e-4
        assert report.ode_residual <= 1e-6  # frozen: 2.59e-07 at n=1001

    def test_derivative_bound(self, report):
        assert np.max(np.abs(report.solution.du)) <= 4.0 / 3.0 + 1e-6

    def test_solution_norm_bound(self, report):
        L = 4.0 / 3.0
        w = report.solution
        assert l1_norm(w.grid, w.u) <= L + L * 0.1 + 1e-6

    def test_solution_is_positive_inside(self, report):
        # max principle for this forcing; frozen max is ~2.5e-3
        u = report.solution.u
        assert np.all(u[1:-1] > 0.0)
        assert 0.002 < np.max(u) < 0.003

    def test_matches_shooting_oracle(self, report):
        oracle = shooting_oracle(make_spec(D, ("mean_curvature", 1.0), "u - 2", 0.1))
        gap = np.max(np.abs(report.solution.u - oracle.u))
        assert gap <= 1e-4
        assert gap <= 3e-9  # frozen: 2.4e-10

    def test_stays_inside_admissible_set(self, report):
        assert report.omega_margin is not None
        assert report.omega_margin > 0.25  # frozen: 0.300167

    def test_report_text_keys(self, report):
        text = report.report_text()
        for key in ("converged=", "method=", "fp_residual=", "ode_residual=",
                    "bc_residual=", "omega_margin=", "iterations=", "lambda_path="):
            assert key in text


def test_dirichlet_constant_forcing_matches_oracle():
    spec = make_spec(D, ("mean_curvature", 1.0), "1", 0.1)
    report = solve(spec)
    oracle = shooting_oracle(spec)
    assert np.max(np.abs(report.solution.u - oracle.u)) <= 1e-6


class TestClassicBenchmark:
    """phi(y) = y^3, f = e^v / 2 - 1 on [0, 1]: the exact solution is
    u(t) = ln(2) * t, where the nonlinearity vanishes identically.

    Plain damped iteration cycles on this problem (the map's linearization
    at the fixed point has a unit-circle eigenvalue), so the solver must
    hand over to the Newton stage.
    """

    @pytest.fixture
    def report(self, classic_report):
        return classic_report

    def test_hits_analytic_solution(self, report):
        w = report.solution
        err = np.max(np.abs(w.u - np.log(2.0) * w.grid.nodes))
        assert err <= 1e-6
        assert err <= 1e-12  # frozen: 1.1e-14

    def test_needed_the_newton_stage(self, report):
        assert report.converged
        assert report.method == "picard+newton"

    def test_three_point_conditions(self, report):
        assert report.bc_residual <= 1e-8
        w = report.solution
        assert abs(w.u[-1] - w.du[0]) <= 1e-8
        assert abs(w.du[-1] - w.du[0]) <= 1e-8

    def test_lambda_path_is_a_full_continuation(self, report):
        lams = [lam for lam, _ in report.lambda_path]
        assert lams[-1] == 1.0
        assert all(b >= a for a, b in zip(lams, lams[1:]))
        # lambda_step 0.1: ten stages at exact tenths, no float drift
        assert lams == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]

    def test_oracle_agrees_with_analytic_solution(self, report):
        oracle = shooting_oracle(make_spec(C, ("power", 4.0), "exp(v)/2 - 1", 1.0))
        err = np.max(np.abs(oracle.u - np.log(2.0) * oracle.grid.nodes))
        assert err <= 1e-8  # frozen: 7.4e-15

    def test_picard_only_reports_nonconvergence(self):
        spec = make_spec(C, ("power", 4.0), "exp(v)/2 - 1", 1.0, method="picard")
        with pytest.raises(NonConvergence) as ei:
            solve(spec)
        exc = ei.value
        assert np.isfinite(exc.best_residual)
        assert exc.iterations >= MAX_ITER
        assert exc.report is not None and not exc.report.converged
        assert "converged=false" in exc.report.report_text()

    def test_fallback_is_announced(self, caplog):
        with caplog.at_level(logging.WARNING, logger="phibvp.solver"):
            solve(make_spec(C, ("power", 4.0), "exp(v)/2 - 1", 1.0))
        assert any("Newton" in rec.message for rec in caplog.records)

    def test_fallback_names_the_stall(self, caplog):
        with caplog.at_level(logging.WARNING, logger="phibvp.solver"):
            solve(make_spec(C, ("power", 4.0), "exp(v)/2 - 1", 1.0))
        msgs = [rec.message for rec in caplog.records if "Newton" in rec.message]
        assert len(msgs) == 1
        assert "stalled at lambda=0.1" in msgs[0]
        assert "not halved in 50 iterations" in msgs[0]

    def test_stall_hands_off_early(self, report):
        # plain iteration cannot converge here, so the first stage must
        # hand off once it stalls, not spend its 10,000-iteration budget
        lam, map_calls = report.lambda_path[0]
        assert lam == 0.1
        assert map_calls <= 200


def test_singular_closed_form():
    # phi(y) = y / sqrt(1 - y^2), f = 1: integrating once gives
    # phi(u') = t - s with s = 1/2 by symmetry, so u' = (t - 1/2) /
    # sqrt(1 + (t - 1/2)^2) and the boundary conditions pin u(0) = u'(1).
    report = solve(make_spec(S, ("relativistic", 1.0), "1", 1.0))
    w = report.solution
    t = w.grid.nodes
    du_exact = (t - 0.5) / np.sqrt(1.0 + (t - 0.5) ** 2)
    assert np.max(np.abs(w.du - du_exact)) <= 1e-12
    assert abs(w.u[0] - 1.0 / np.sqrt(5.0)) <= 1e-12
    assert report.bc_residual <= 1e-12
    assert report.ode_residual <= 1e-10


def test_singular_derivative_always_inside_range():
    report = solve(make_spec(S, ("relativistic", 1.0), "1", 1.0))
    assert np.max(np.abs(report.solution.du)) < 1.0


@pytest.mark.parametrize("cls,phi_args", [
    (D, ("mean_curvature", 1.0)),
    (S, ("relativistic", 1.0)),
    (C, ("power", 4.0)),
])
def test_zero_forcing_gives_zero_solution(cls, phi_args):
    report = solve(make_spec(cls, phi_args, "0", 0.5))
    w = report.solution
    assert np.max(np.abs(w.u)) <= 1e-12
    assert np.max(np.abs(w.du)) <= 1e-12
    assert report.ode_residual <= 1e-12


# ---------------------------------------------------- dual-route battery

# Fixed problem list, two per boundary-condition class.  tol_fp is pinned
# low so the quadrature error dominates the iteration error and the
# second-order refinement ratio is visible.  res_cap / gap_cap are frozen
# at roughly 2x / 10x the measured values.
BATTERY = [
    (D, ("mean_curvature", 1.0), "u - 2", 0.1, 1.1e-8, 3e-10),
    (D, ("mean_curvature", 2.0), "cos(2*t) + u/2", 0.5, 5e-7, 2e-8),
    (S, ("relativistic", 1.0), "t - u", 1.0, 4e-7, 1e-6),
    (S, ("relativistic", 1.5), "sin(t) + u/2", 0.8, 1.1e-7, 1e-6),
    # measured 5.0e-8 and 5.9e-8; reaches tol_fp = 1e-13 only with the
    # shift solved to a few ulps
    (S, ("relativistic", 1.5), "sin(t) + u/1.9882", 0.8, 5.5e-8, 1e-7),
    (C, ("power", 4.0), "-v/2 + cos(t)/4", 1.0, 9e-8, 3e-7),
    (C, ("identity",), "-v/2 + t/4", 1.0, 8e-8, 3e-7),
]

BATTERY_IDS = ["%s-%s" % (cls.value, phi[0]) for cls, phi, *_ in BATTERY]


@pytest.mark.parametrize("cls,phi_args,f_src,T,res_cap,gap_cap",
                         BATTERY, ids=BATTERY_IDS)
def test_battery_fixed_point_vs_shooting(cls, phi_args, f_src, T, res_cap, gap_cap):
    spec = make_spec(cls, phi_args, f_src, T, tol_fp=1e-13)
    report = solve(spec)
    assert report.converged
    assert report.bc_residual <= 1e-8
    assert report.ode_residual <= res_cap

    oracle = shooting_oracle(spec)
    gap = np.max(np.abs(report.solution.u - oracle.u))
    assert gap <= 1e-4
    assert gap <= gap_cap

    fine = make_spec(cls, phi_args, f_src, T, tol_fp=1e-13, grid_n=2001)
    ratio = report.ode_residual / solve(fine).ode_residual
    assert ratio >= 1.8  # measured 3.5 to 4.0


@pytest.mark.parametrize("cls,phi_args,f_src,T,res_cap,gap_cap",
                         BATTERY, ids=BATTERY_IDS)
def test_battery_needs_no_newton_stage(cls, phi_args, f_src, T, res_cap, gap_cap):
    # the stall rule must never fire on a problem that plain iteration solves
    spec = make_spec(cls, phi_args, f_src, T, tol_fp=1e-13)
    assert solve(spec).method == "picard"


@pytest.mark.parametrize("cls,phi_args,f_src,T,res_cap,gap_cap",
                         BATTERY, ids=BATTERY_IDS)
def test_battery_class_invariants(cls, phi_args, f_src, T, res_cap, gap_cap):
    spec = make_spec(cls, phi_args, f_src, T, tol_fp=1e-13)
    w = solve(spec).solution
    if cls is D:
        assert w.u[0] == 0.0 and w.u[-1] == 0.0
    elif cls is S:
        # the singular range confines the derivative below the pole
        assert np.max(np.abs(w.du)) < spec.phi.params[0]
        a = spec.phi.params[0]
        assert l1_norm(w.grid, w.u) < 2.0 * a + a * T
    else:
        # at a fixed point the mean load must vanish, else the two
        # derivative endpoint conditions cannot both hold
        assert abs(trap_mean(w, spec.f)) <= 1e-8


# ---------------------------------------------------------------- shooting


def _sweep_columns_alone(spec, grid, u0, w0):
    """RK4 batch of all initial states, and each state run by itself."""
    U, W, bad = solver._rk4_batch(spec, grid, u0, w0)
    for j in range(len(u0)):
        Uj, Wj, bj = solver._rk4_batch(spec, grid, u0[j:j + 1], w0[j:j + 1])
        assert np.array_equal(U[:, j], Uj[:, 0], equal_nan=True)
        assert np.array_equal(W[:, j], Wj[:, 0], equal_nan=True)
        assert bad[j] == bj[0]
    return bad


@pytest.mark.parametrize("cls,phi_args,f_src,T,res_cap,gap_cap",
                         BATTERY, ids=BATTERY_IDS)
def test_rk4_batch_columns_equal_single_runs(cls, phi_args, f_src, T, res_cap,
                                             gap_cap):
    # the oracle reuses batch columns as if integrated alone
    spec = make_spec(cls, phi_args, f_src, T)
    w0 = spec.phi.forward(np.array([-0.4, 0.2, 0.45]))
    bad = _sweep_columns_alone(spec, Grid(T, spec.grid_n),
                               np.array([0.0, 0.3, -0.2]), w0)
    assert not bad.any()


def test_rk4_batch_invalid_columns_equal_single_runs():
    # w' = -5 carries w0 < -0.5 out of the curvature range (-1, 1)
    spec = make_spec(D, ("mean_curvature", 1.0), "-5", 0.1, grid_n=101)
    bad = _sweep_columns_alone(spec, Grid(0.1, 101), np.zeros(41),
                               np.linspace(-0.999, 0.999, 41))
    assert 0 < bad.sum() < 41


def reference_rk4_batch(spec, grid, u0, w0):
    """The RK4 sweep as it was written first: one eval_many call and one
    (u, w) pair of array updates per stage.  The stacked sweep must match
    it bit for bit."""
    phi = spec.phi
    f = spec.f
    n = grid.n
    h = grid.h
    bounded = phi.kind is Kind.BOUNDED
    cap = (phi.a - EPS_DOM) if bounded else np.inf

    u = np.array(u0, dtype=float)
    w = np.array(w0, dtype=float)
    m = u.shape[0]
    U = np.empty((n, m))
    W = np.empty((n, m))
    U[0] = u
    W[0] = w
    invalid = np.zeros(m, dtype=bool)

    def rhs(t, uu, ww):
        nonlocal invalid
        if bounded:
            invalid |= np.abs(ww) > cap
            ww = np.clip(ww, -cap, cap)
        v = np.asarray(phi.inverse(ww), dtype=float)
        dw = eval_many(f, t, uu, v, lenient=True)
        return v, dw

    for i in range(n - 1):
        t = grid.nodes[i]
        k1u, k1w = rhs(t, u, w)
        k2u, k2w = rhs(t + 0.5 * h, u + 0.5 * h * k1u, w + 0.5 * h * k1w)
        k3u, k3w = rhs(t + 0.5 * h, u + 0.5 * h * k2u, w + 0.5 * h * k2w)
        k4u, k4w = rhs(t + h, u + h * k3u, w + h * k3w)
        u = u + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        w = w + (h / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        U[i + 1] = u
        W[i + 1] = w

    invalid |= ~np.isfinite(U[-1]) | ~np.isfinite(W[-1])
    U[:, invalid] = np.nan
    W[:, invalid] = np.nan
    return U, W, invalid


def _assert_sweep_matches_reference(spec, u0, w0):
    grid = Grid(spec.T, spec.grid_n)
    got = solver._rk4_batch(spec, grid, u0, w0)
    # the reference overflows outside any errstate on a faulting forcing
    with np.errstate(all="ignore"):
        want = reference_rk4_batch(spec, grid, u0, w0)
    for a, b in zip(got, want):
        assert np.array_equal(a, b, equal_nan=True)
    return got[2]


@pytest.mark.parametrize("cls,phi_args,f_src,T,res_cap,gap_cap",
                         BATTERY, ids=BATTERY_IDS)
def test_rk4_batch_matches_reference_on_battery(cls, phi_args, f_src, T, res_cap,
                                                gap_cap):
    spec = make_spec(cls, phi_args, f_src, T)
    w0 = spec.phi.forward(np.array([-0.4, 0.2, 0.45]))
    bad = _assert_sweep_matches_reference(spec, np.array([0.0, 0.3, -0.2]), w0)
    assert not bad.any()


def test_rk4_batch_matches_reference_on_invalid_scan():
    # w' = -5 carries w0 < -0.5 out of the curvature range (-1, 1)
    spec = make_spec(D, ("mean_curvature", 1.0), "-5", 0.1, grid_n=101)
    bad = _assert_sweep_matches_reference(spec, np.zeros(41),
                                          np.linspace(-0.999, 0.999, 41))
    assert 0 < bad.sum() < 41


@pytest.mark.parametrize("f_src,faults", [
    ("cos(t)", False),  # the kernel's result is 0-d, broadcast to the batch
    ("1/t", True),      # lenient faults at t = 0: inf, then nan
    ("t/t", True),
    # t enters the kernel as a 0-d array: a numpy float would take numpy's
    # scalar power, which can differ from the array power in the last bit
    ("t^t + u", False),
], ids=["cos_t", "one_over_t", "t_over_t", "t_pow_t"])
def test_rk4_batch_matches_reference_on_t_forcings(f_src, faults):
    spec = make_spec(C, ("identity",), f_src, 1.0, grid_n=101)
    bad = _assert_sweep_matches_reference(spec, np.array([0.0, 0.5, -1.0]),
                                          np.array([0.0, 1.0, 0.25]))
    assert bad.all() == faults and bad.any() == faults


def test_rk4_batch_flags_overflow_without_a_warning():
    # the sweep's own arithmetic overflows; tier-1 turns a RuntimeWarning
    # into an error, and a diverging trial trajectory is data
    spec = make_spec(C, ("identity",), "1.5e308", 1.0, grid_n=101)
    U, W, bad = solver._rk4_batch(spec, Grid(1.0, 101), np.array([0.0, 1.0]),
                                  np.array([0.0, 1.0]))
    assert bad.all()
    assert np.isnan(U).all() and np.isnan(W).all()


@pytest.mark.parametrize("cls,phi_args,f_src,T,res_cap,gap_cap",
                         BATTERY, ids=BATTERY_IDS)
def test_oracle_integrates_no_state_twice(monkeypatch, cls, phi_args, f_src, T,
                                          res_cap, gap_cap):
    states = []
    columns = []
    rk4 = solver._rk4_batch

    def recording(spec, grid, u0, w0):
        U, W, bad = rk4(spec, grid, u0, w0)
        states.extend(zip(u0.tolist(), w0.tolist()))
        columns.extend(U.T)
        return U, W, bad

    monkeypatch.setattr(solver, "_rk4_batch", recording)
    w = shooting_oracle(make_spec(cls, phi_args, f_src, T))
    assert len(set(states)) == len(states)
    # the answer is the trajectory of one state, integrated exactly once
    assert sum(np.array_equal(c, w.u) for c in columns) == 1


# ------------------------------------------------------------ diagnostics


def test_report_is_deterministic():
    spec = make_spec(D, ("mean_curvature", 1.0), "u - 2", 0.1)
    a, b = solve(spec), solve(spec)
    assert a.report_text() == b.report_text()
    assert np.array_equal(a.solution.u, b.solution.u)
    assert np.array_equal(a.solution.du, b.solution.du)


def test_iteration_counts_are_reported():
    report = solve(make_spec(D, ("mean_curvature", 1.0), "u - 2", 0.1))
    assert report.iterations == sum(n for _, n in report.lambda_path)
    assert report.iterations > 0


def test_oversized_forcing_raises_admissibility_guard():
    # |f| ~ 40 forces the integrated load outside the curvature range no
    # matter how small the continuation step gets
    with pytest.raises(AdmissibilityViolation):
        solve(make_spec(D, ("mean_curvature", 1.0), "40", 0.3))


def test_halved_lambda_path_stays_exact():
    # a stiff load leaves the admissible set at large steps, so the step
    # 0.9 is halved twice; every lambda is an exact multiple of the step
    report = solve(make_spec(D, ("mean_curvature", 1.0), "1000*u - 2", 0.3,
                             lambda_step=0.9))
    lams = [lam for lam, _ in report.lambda_path]
    assert lams == [0.225, 0.45, 0.675, 0.7875, 0.9, 1.0]


def test_problem_class_requires_matching_phi():
    with pytest.raises(ValueError):
        make_spec(D, ("power", 4.0), "u - 2", 0.1)
    with pytest.raises(ValueError):
        make_spec(S, ("mean_curvature", 1.0), "1", 1.0)
    with pytest.raises(ValueError):
        make_spec(C, ("relativistic", 1.0), "0", 1.0)


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        make_spec(D, ("mean_curvature", 1.0), "u - 2", -0.1)
    with pytest.raises(ValueError):
        make_spec(D, ("mean_curvature", 1.0), "u - 2", 0.1, grid_n=1)
    # two nodes leave ode_residual no interior to take a maximum over
    with pytest.raises(ValueError, match="grid_n"):
        make_spec(D, ("mean_curvature", 1.0), "u - 2", 0.1, grid_n=2)
    with pytest.raises(ValueError):
        make_spec(D, ("mean_curvature", 1.0), "u - 2", 0.1, lambda_step=0.0)
    with pytest.raises(ValueError):
        make_spec(D, ("mean_curvature", 1.0), "u - 2", 0.1, method="bisect")
    for tol in (float("nan"), 0.0, -1e-10, float("inf")):
        with pytest.raises(ValueError):
            make_spec(D, ("mean_curvature", 1.0), "u - 2", 0.1, tol_fp=tol)
    # below the halving floor 1e-3 a solve would run ~1/step stages
    for step in (1e-9, 5e-4, float("nan")):
        with pytest.raises(ValueError):
            make_spec(D, ("mean_curvature", 1.0), "u - 2", 0.1, lambda_step=step)
    make_spec(D, ("mean_curvature", 1.0), "u - 2", 0.1, lambda_step=1e-3)
