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
    OracleFailure,
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

    def test_unsolvable_problem_reports_nonconvergence(self):
        # u'' = 1 forces u'(T) - u'(0) = T, so no solution exists: the
        # stalled Picard stage hands off, and Newton-Krylov fails as well
        spec = make_spec(C, ("identity",), "1", 1.0, grid_n=201)
        with pytest.raises(NonConvergence) as ei:
            solve(spec)
        exc = ei.value
        assert np.isfinite(exc.best_residual)
        assert exc.report is not None and not exc.report.converged
        assert exc.report.method == "picard+newton"
        # the Anderson step must not extrapolate to huge iterates, where the
        # relative gap test passes without a fixed point (measured 3.9)
        assert np.max(np.abs(exc.report.solution.u)) <= 1e3
        assert exc.iterations < MAX_ITER
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


@pytest.mark.parametrize("f_src", ["exp(v)/2 - 1", "exp(v)/2 - 1 + (t - 0.5)/2"],
                         ids=["cubic", "tilted"])
def test_report_gap_is_the_gap_of_the_solution(f_src):
    # the report reuses the last stage's gap; the tilted problem's lambda = 1
    # stage stalls, so that gap is Newton-Krylov's, not the Picard stage's
    spec = make_spec(C, ("power", 4.0), f_src, 1.0)
    report = solve(spec)
    assert report.converged and report.method == "picard+newton"
    assert report.fp_residual == solver._fp_gap(spec, report.solution, 1.0)[1]


# Picard exits that end a solve unconverged: a divergence or a domain fault
# ends it at once, without Newton-Krylov, since its iterate is not near a
# fixed point; a stall hands off, and here Newton-Krylov fails as well, as
# the lambda = 1 map rejects its iterate.  (problem, logged reason, method,
# Newton-Krylov calls, report after "method=...")
FAILED_HANDOFFS = [
    ((C, ("identity",), "exp(u)", 1.0),
     "stopped at lambda=0.1 (domain_fault after 6 iterations, best residual 1); "
     "no Newton-Krylov handoff", "picard", 0,
     "fp_residual=1.0\node_residual=1.0\nbc_residual=0.0\nomega_margin=n/a\n"
     "iterations=6\nlambda_path=0.1:6\n"),
    ((C, ("identity",), "u^3 + 1", 1.0),
     "stopped at lambda=0.1 (diverged after 7 iterations, best residual 1); "
     "no Newton-Krylov handoff", "picard", 0,
     "fp_residual=1.0\node_residual=1.0\nbc_residual=0.0\nomega_margin=n/a\n"
     "iterations=7\nlambda_path=0.1:7\n"),
    ((S, ("relativistic", 1.0), "log(u + 0.3)", 1.0),
     "stopped at lambda=1 (domain_fault after 2 iterations, best residual "
     "0.424604); no Newton-Krylov handoff", "picard", 0,
     "fp_residual=0.42460429876447303\node_residual=1.2039728043259361\n"
     "bc_residual=0.0\nomega_margin=n/a\niterations=2\nlambda_path=1.0:2\n"),
    # the iterate is inadmissible for the lambda = 1 map, so its gap is inf
    ((D, ("mean_curvature", 1.0), "u^2*100 + 1", 2.0),
     "stalled at lambda=0.11875 (best residual 0.00188393 not halved",
     "picard+newton", 1,
     "fp_residual=inf\node_residual=2.051993856741529\nbc_residual=0.0\n"
     "omega_margin=-2.8481339566765893\niterations=81\n"
     "lambda_path=0.1:8,0.1125:8,0.115625:8,0.11875:57\n"),
]


@pytest.mark.parametrize("family,reason,method,newton_calls,text", FAILED_HANDOFFS,
                         ids=["domain_fault", "diverged", "domain_fault_at_1",
                              "inadmissible_at_1"])
def test_failed_handoff_reports_nonconvergence(monkeypatch, caplog, family, reason,
                                               method, newton_calls, text):
    calls = []
    newton_krylov = solver.scipy.optimize.newton_krylov
    monkeypatch.setattr(solver.scipy.optimize, "newton_krylov",
                        lambda *a, **kw: calls.append(a) or newton_krylov(*a, **kw))
    with caplog.at_level(logging.WARNING, logger="phibvp.solver"):
        with pytest.raises(NonConvergence) as ei:
            solve(make_spec(*family, grid_n=201))
    msgs = [rec.message for rec in caplog.records]
    assert len(msgs) == 1 and reason in msgs[0]
    assert len(calls) == newton_calls
    report = ei.value.report
    assert report.method == method
    assert report.report_text() == f"converged=false\nmethod={method}\n" + text


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


# Picard map applications per solve on each BATTERY family at tol_fp 1e-13,
# at the measured counts of the Anderson-mixed stages (damped Picard alone
# took 40, 54, 31, 17, 17, 724 and 776)
PICARD_ITERATIONS = [34, 40, 8, 7, 7, 119, 106]


@pytest.mark.parametrize("family,iterations",
                         list(zip(BATTERY, PICARD_ITERATIONS)), ids=BATTERY_IDS)
def test_battery_picard_work_is_pinned(monkeypatch, family, iterations):
    cls, phi_args, f_src, T, *_ = family
    maps = []
    apply = solver.apply_fixed_point_map

    def counted(*args):
        maps.append(1)
        return apply(*args)

    monkeypatch.setattr(solver, "apply_fixed_point_map", counted)
    report = solve(make_spec(cls, phi_args, f_src, T, tol_fp=1e-13))
    assert report.iterations == iterations
    # one map per iteration: the report reuses the last stage's lambda = 1 gap
    assert len(maps) == iterations


@pytest.mark.parametrize("cls,phi_args,f_src,T,res_cap,gap_cap",
                         BATTERY, ids=BATTERY_IDS)
def test_battery_class_invariants(cls, phi_args, f_src, T, res_cap, gap_cap):
    spec = make_spec(cls, phi_args, f_src, T, tol_fp=1e-13)
    w = solve(spec).solution
    if cls is D:
        assert w.u[0] == 0.0 and w.u[-1] == 0.0
    elif cls is S:
        # the singular range confines the derivative below the pole
        a = spec.phi.a
        assert np.max(np.abs(w.du)) < a
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


# RK4 sweeps on the requested grid per oracle call on each BATTERY family,
# at the measured counts: the coarse root meets the tolerance there in the
# polish's one sweep, or after one Newton step (singular-a)
FINE_SWEEPS = [1, 1, 2, 1, 1, 1, 1]


@pytest.mark.parametrize("family,fine_sweeps", list(zip(BATTERY, FINE_SWEEPS)),
                         ids=BATTERY_IDS)
def test_oracle_integrates_no_state_twice(monkeypatch, family, fine_sweeps):
    cls, phi_args, f_src, T, *_ = family
    sweeps = []
    rk4 = solver._rk4_batch

    def recording(spec, grid, u0, w0):
        U, W, bad = rk4(spec, grid, u0, w0)
        sweeps.append((grid.n, list(zip(u0.tolist(), w0.tolist())), U))
        return U, W, bad

    monkeypatch.setattr(solver, "_rk4_batch", recording)
    spec = make_spec(cls, phi_args, f_src, T)
    w = shooting_oracle(spec)
    # the coarse root is integrated again on the fine grid, but no state
    # twice on the same grid
    states = [(n, s) for n, batch, _ in sweeps for s in batch]
    assert len(set(states)) == len(states)
    # the answer is the trajectory of one state, integrated exactly once
    assert sum(np.array_equal(c, w.u) for _, _, U in sweeps for c in U.T) == 1
    assert sum(n == spec.grid_n for n, _, _ in sweeps) == fine_sweeps
    again = shooting_oracle(spec)
    assert np.array_equal(again.u, w.u) and np.array_equal(again.du, w.du)


def test_oracle_gives_up_on_a_stalled_start(monkeypatch):
    # u'(T) = u'(0) needs the integral of t - 0.5 over [0, T] to vanish, so
    # no solution exists for T = 0.5; each Newton start must stop once its
    # residual has not halved in 5 steps, not after 60 (2,986 sweeps), on
    # the coarse grid and again in the fine search it falls back to
    rk4 = solver._rk4_batch
    sweeps = []

    def counting(spec, grid, *args):
        sweeps.append(grid.n)
        return rk4(spec, grid, *args)

    monkeypatch.setattr(solver, "_rk4_batch", counting)
    spec = make_spec(C, ("power", 4.0), "t - 0.5", 0.5, grid_n=201)
    with pytest.raises(OracleFailure):
        shooting_oracle(spec)
    assert set(sweeps) == {solver._COARSE_N, 201}
    assert sweeps.count(solver._COARSE_N) <= 200  # measured 180
    assert sweeps.count(201) <= 200  # measured 180


def _fine_only_oracle(monkeypatch, spec):
    """The oracle's search on the requested grid alone, from its starts."""
    with monkeypatch.context() as m:
        m.setattr(solver, "_COARSE_N", spec.grid_n)
        return shooting_oracle(spec)


@pytest.mark.parametrize("level", ["coarse", "polish"])
def test_oracle_falls_back_to_the_fine_search(monkeypatch, level):
    # a coarse search, or a polish, that fails leaves the answer to the
    # search on the requested grid from the candidate starts, bit for bit
    spec = make_spec(*BATTERY[2][:4])
    want = _fine_only_oracle(monkeypatch, spec)
    rk4 = solver._rk4_batch
    fine_sweeps = []

    def failing(spec, grid, u0, w0):
        U, W, bad = rk4(spec, grid, u0, w0)
        if grid.n == spec.grid_n:
            fine_sweeps.append(1)
        if (level == "coarse" and grid.n == solver._COARSE_N
                or level == "polish" and fine_sweeps == [1]):
            bad[:] = True
            U[:] = W[:] = np.nan
        return U, W, bad

    monkeypatch.setattr(solver, "_rk4_batch", failing)
    got = shooting_oracle(spec)
    assert np.array_equal(got.u, want.u) and np.array_equal(got.du, want.du)


@pytest.mark.parametrize("cls,phi_args,f_src,T,res_cap,gap_cap",
                         BATTERY, ids=BATTERY_IDS)
def test_two_level_oracle_agrees_with_the_fine_search(monkeypatch, cls, phi_args,
                                                       f_src, T, res_cap, gap_cap):
    spec = make_spec(cls, phi_args, f_src, T)
    w = shooting_oracle(spec)
    fine = _fine_only_oracle(monkeypatch, spec)
    assert np.max(np.abs(w.u - fine.u)) <= 1e-9  # measured up to 2.8e-11
    assert np.max(np.abs(w.du - fine.du)) <= 1e-9


@pytest.mark.parametrize("k", [1.99, -1.99])
def test_oracle_shoots_near_the_edge_of_the_range(k):
    # (phi(u'))' = k with phi(y) = y / sqrt(1 + y^2) gives phi(u') = k(t - 1/2),
    # so phi(u'(0)) = -k/2 lies within 0.005 of an end of phi's range (-1, 1)
    spec = make_spec(D, ("mean_curvature", 1.0), repr(k), 1.0)
    w = shooting_oracle(spec)
    t = w.grid.nodes
    exact = (np.sqrt(1.0 - (k / 2.0) ** 2) - np.sqrt(1.0 - (k * (t - 0.5)) ** 2)) / k
    assert np.max(np.abs(w.u - exact)) <= 1e-6  # measured 3.8e-7


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


def test_lambda_path_ends_with_its_first_stage_at_one():
    # 7 * 0.14285714285714285 is 1 - 5e-17, which rounds to lambda = 1.0,
    # so the seventh stage is the last; the singular map takes no lambda
    # and runs one stage, whatever lambda_step says
    report = solve(make_spec(D, ("mean_curvature", 1.0), "u - 2", 0.1,
                             lambda_step=1 / 7))
    lams = [lam for lam, _ in report.lambda_path]
    assert len(lams) == 7 and lams[-1] == 1.0
    report = solve(make_spec(S, ("relativistic", 1.0), "1", 1.0, lambda_step=0.3))
    assert [lam for lam, _ in report.lambda_path] == [1.0]


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
    for tol in (float("nan"), 0.0, -1e-10, float("inf")):
        with pytest.raises(ValueError):
            make_spec(D, ("mean_curvature", 1.0), "u - 2", 0.1, tol_fp=tol)
    # below the halving floor 1e-3 a solve would run ~1/step stages
    for step in (1e-9, 5e-4, float("nan")):
        with pytest.raises(ValueError):
            make_spec(D, ("mean_curvature", 1.0), "u - 2", 0.1, lambda_step=step)
    make_spec(D, ("mean_curvature", 1.0), "u - 2", 0.1, lambda_step=1e-3)
