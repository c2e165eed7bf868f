"""Solver tests: benchmarks with closed forms, the dual-route battery,
diagnostics, and failure paths.

The oracle solves the same ODE by scipy's collocation solver, sharing no
discretization machinery with the fixed-point iteration, so sup-norm
agreement between the two is a real check.
"""

import logging
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

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
from phibvp.function_space import Grid, l1_norm, zero_function
from phibvp.homeomorphism import Kind
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
        assert report.omega_margin > 0.75  # frozen: 0.800167

    def test_report_text_keys(self, report):
        text = report.report_text()
        for key in ("converged=", "method=", "fp_residual=", "ode_residual=",
                    "bc_residual=", "omega_margin=", "iterations=", "lambda_path="):
            assert key in text


@pytest.mark.parametrize("k", [8, 10, 12])
def test_dirichlet_load_past_half_the_range_solves(k):
    # sup|g| passes a/2 on the way to the solution while osc g stays below
    # a, which is all the map needs: s in [min g, max g] keeps g - s in (-a, a)
    spec = make_spec(D, ("mean_curvature", 1.0), f"{k}*u - 1", 1.0, tol_fp=1e-12)
    report = solve(spec)
    assert report.converged and report.omega_margin > 0.0
    gap = np.max(np.abs(report.solution.u - shooting_oracle(spec).u))
    assert gap <= 1e-4  # measured 5.0e-8 to 5.5e-8


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
        # lambda_step 0.1: the first stage hands off and keeps its step,
        # each later one Picard meets on its own and doubles it, exactly
        assert lams == [0.1, 0.2, 0.4, 0.8, 1.0]

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
# the lambda = 1 map rejects its iterate.  A stage that fails after the
# step has grown is run again from the last solved lambda at the first
# step before the solve ends.  (problem, logged reasons, method,
# Newton-Krylov calls, report after "method=...")
FAILED_HANDOFFS = [
    ((C, ("identity",), "exp(u)", 1.0),
     ("stopped at lambda=0.1 (domain_fault after 6 iterations, best residual 1); "
      "no Newton-Krylov handoff",), "picard", 0,
     "fp_residual=1.0\node_residual=1.0\nbc_residual=0.0\nomega_margin=n/a\n"
     "iterations=6\nlambda_path=0.1:6\n"),
    ((C, ("identity",), "u^3 + 1", 1.0),
     ("stopped at lambda=0.1 (diverged after 7 iterations, best residual 1); "
      "no Newton-Krylov handoff",), "picard", 0,
     "fp_residual=1.0\node_residual=1.0\nbc_residual=0.0\nomega_margin=n/a\n"
     "iterations=7\nlambda_path=0.1:7\n"),
    ((S, ("relativistic", 1.0), "log(u + 0.3)", 1.0),
     ("stopped at lambda=1 (domain_fault after 2 iterations, best residual "
      "0.424604); no Newton-Krylov handoff",), "picard", 0,
     "fp_residual=0.42460429876447303\node_residual=1.2039728043259361\n"
     "bc_residual=0.0\nomega_margin=n/a\niterations=2\nlambda_path=1.0:2\n"),
    # a later stage's fault ends that stage, not the solve: only the first
    # stage's first map raises it; the fault at the doubled step 0.2 is
    # retried at the first step 0.1 and faults again; the best iterate is
    # inadmissible at lambda = 1, so its gap is inf
    ((D, ("mean_curvature", 1.0), "log(0.08 - u) + 1", 1.0),
     ("stopped at lambda=0.3 (domain_fault after 3 iterations, best residual "
      "0.0288035); no Newton-Krylov handoff",
      "retrying from lambda=0.1 at the first step",
      "stopped at lambda=0.2 (domain_fault after 4 iterations, best residual "
      "0.00277543); no Newton-Krylov handoff"), "picard", 0,
     "fp_residual=inf\node_residual=2.4752290740341567\nbc_residual=0.0\n"
     "omega_margin=-1.347707810979482\niterations=10\nlambda_path=0.1:6,0.2:4\n"),
    # the iterate is inadmissible for the lambda = 1 map, so its gap is inf
    ((D, ("mean_curvature", 1.0), "u^2*100 + 1", 2.0),
     ("stalled at lambda=0.125 (best residual 0.0106838 not halved",),
     "picard+newton", 1,
     "fp_residual=inf\node_residual=1.7420962692732402\nbc_residual=0.0\n"
     "omega_margin=-1.994454488532576\niterations=87\n"
     "lambda_path=0.1:8,0.1125:8,0.125:71\n"),
]


@pytest.mark.parametrize("family,reasons,method,newton_calls,text", FAILED_HANDOFFS,
                         ids=["domain_fault", "diverged", "domain_fault_at_1",
                              "domain_fault_in_a_later_stage", "inadmissible_at_1"])
def test_failed_handoff_reports_nonconvergence(monkeypatch, caplog, family, reasons,
                                               method, newton_calls, text):
    calls = []
    newton_krylov = solver.scipy.optimize.newton_krylov
    monkeypatch.setattr(solver.scipy.optimize, "newton_krylov",
                        lambda *a, **kw: calls.append(a) or newton_krylov(*a, **kw))
    with caplog.at_level(logging.WARNING, logger="phibvp.solver"):
        with pytest.raises(NonConvergence) as ei:
            solve(make_spec(*family, grid_n=201))
    msgs = [rec.message for rec in caplog.records]
    assert len(msgs) == len(reasons)
    assert all(reason in msg for reason, msg in zip(reasons, msgs))
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


# README's class table, one signed residual per condition
README_BC = {
    D: lambda w: [w.u[0], w.u[-1]],  # u(0) = u(T) = 0
    S: lambda w: [w.u[-1] - w.u[0], w.du[-1] - w.u[0]],  # u(T) = u(0) = u'(T)
    C: lambda w: [w.u[-1] - w.du[0], w.du[-1] - w.du[0]],  # u(T) = u'(0) = u'(T)
}


@pytest.mark.parametrize("family", [BATTERY[0], BATTERY[2], BATTERY[6]],
                         ids=[BATTERY_IDS[0], BATTERY_IDS[2], BATTERY_IDS[6]])
def test_both_routes_meet_the_readme_boundary_conditions(family):
    cls, phi_args, f_src, T, *_ = family
    spec = make_spec(cls, phi_args, f_src, T)
    report = solve(spec)
    assert report.bc_residual == max(abs(float(r)) for r in README_BC[cls](report.solution))
    oracle = shooting_oracle(spec)
    assert max(abs(float(r)) for r in README_BC[cls](oracle)) <= solver.BC_RESIDUAL_TOL


# Picard map applications per solve on each BATTERY family at tol_fp 1e-13,
# at the measured counts of the Anderson-mixed stages and the doubling
# lambda step (with a fixed step 0.1, damped Picard alone took 40, 54, 31,
# 17, 17, 724 and 776)
PICARD_ITERATIONS = [14, 18, 8, 7, 7, 49, 42]


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


# ------------------------------------------------------------------ oracle


@pytest.mark.parametrize("family", BATTERY, ids=BATTERY_IDS)
def test_oracle_is_deterministic(family):
    spec = make_spec(*family[:4])
    w, again = shooting_oracle(spec), shooting_oracle(spec)
    assert np.array_equal(again.u, w.u) and np.array_equal(again.du, w.du)


def record_bvp_calls(monkeypatch, spoil=lambda i, sol: None):
    """Record each solve_bvp call of the oracle as (start, max_nodes, sol);
    spoil(i, sol) may alter the i-th result before the oracle sees it."""
    import scipy.integrate

    bvp = scipy.integrate.solve_bvp
    calls = []

    def recording(fun, bc, x, y, **kw):
        sol = bvp(fun, bc, x, y, **kw)
        spoil(len(calls), sol)
        calls.append(((float(y[0, 0]), float(y[1, 0])), kw["max_nodes"], sol))
        return sol

    monkeypatch.setattr(scipy.integrate, "solve_bvp", recording)
    return calls


@pytest.mark.parametrize("family", BATTERY, ids=BATTERY_IDS)
def test_oracle_integrates_no_state_twice(monkeypatch, family):
    # the w = 0 start converges on every family (measured), and its
    # collocation solution is the answer: no start is solved again
    calls = record_bvp_calls(monkeypatch)
    w = shooting_oracle(make_spec(*family[:4]))
    assert [start for start, _, _ in calls] == [(0.0, 0.0)]
    u, _ = calls[0][2].sol(w.grid.nodes)
    assert np.array_equal(w.u, u)


def test_oracle_gives_up_on_a_stalled_start(monkeypatch):
    # u'(T) = u'(0) needs the integral of t - 0.5 over [0, T] to vanish, so
    # no solution exists for T = 0.5; each of the nine classic starts is
    # tried once, nearest w = 0 first, with the one node cap, and each
    # stops on its own (a singular collocation Jacobian, measured)
    spec = make_spec(C, ("power", 4.0), "t - 0.5", 0.5, grid_n=201)
    calls = record_bvp_calls(monkeypatch)
    with pytest.raises(OracleFailure):
        shooting_oracle(spec)
    starts = [start for start, _, _ in calls]
    assert sorted(starts) == sorted(solver._RULES[C].starts(spec.phi, spec.T))
    assert len(set(starts)) == len(starts) == 9
    assert [abs(w0) for _, w0 in starts] == sorted(abs(w0) for _, w0 in starts)
    assert {nodes for _, nodes, _ in calls} == {100_000}
    assert not any(sol.success for _, _, sol in calls)


def test_oracle_abandons_a_start_whose_jacobian_is_singular(monkeypatch):
    # the first start comes back as solve_bvp reports a singular
    # collocation Jacobian; the oracle moves on, and the next start's
    # answer still solves the problem
    def singular(i, sol):
        if i == 0:
            sol.status, sol.success = 2, False

    spec = make_spec(*BATTERY[0][:4])
    calls = record_bvp_calls(monkeypatch, singular)
    w = shooting_oracle(spec)
    assert len(calls) == 2 and calls[1][2].success
    assert np.max(np.abs(w.u - solve(spec).solution.u)) <= BATTERY[0][5]


def test_oracle_abandons_a_start_whose_trials_all_fail(monkeypatch):
    # solve_bvp reports success on nan residuals (nan > tol is false); a
    # start whose collocation residuals are all nan must not be the answer
    def nan_filled(i, sol):
        if i == 0:
            sol.rms_residuals[:] = np.nan

    spec = make_spec(*BATTERY[2][:4])
    calls = record_bvp_calls(monkeypatch, nan_filled)
    w = shooting_oracle(spec)
    assert len(calls) == 2 and calls[0][2].success
    assert np.max(np.abs(w.u - solve(spec).solution.u)) <= BATTERY[2][5]


@pytest.mark.parametrize("phi_args,f_src,T,n", [
    # u'(T) = u'(0) needs the integral of t - 0.5 over [0, T] to vanish
    (("power", 4.0), "t - 0.5", 0.5, 201),
    # (u')' = 1 makes u'(T) - u'(0) = T; a stop test relative to the
    # unknowns would accept a runaway iterate with |u| ~ 1e10 here
    (("identity",), "1", 1.0, 1001),
    # u'' = exp(u) > 0 leaves u'(T) > u'(0); solve_bvp reports success
    # from one start, on a runaway iterate whose residual is nan
    (("identity",), "exp(u)", 1.0, 1001),
], ids=["power", "identity", "identity_exp"])
def test_oracle_fails_where_no_solution_exists(phi_args, f_src, T, n):
    with pytest.raises(OracleFailure):
        shooting_oracle(make_spec(C, phi_args, f_src, T, grid_n=n))


def test_import_leaves_the_oracles_scipy_module_unloaded():
    # scipy.integrate is about 3 MB of modules that only the oracle needs;
    # a run that never cross-checks must not pay for them
    code = "import sys, phibvp; print('scipy.integrate' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(solver.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("family", [BATTERY[0], BATTERY[5]],
                         ids=[BATTERY_IDS[0], BATTERY_IDS[5]])
def test_oracle_cost_stays_linear_in_the_segment_count(family):
    # 20,001 grid nodes: a dense Jacobian of that size alone would take
    # 128 MB; solve_bvp's mesh adapts to the solution, not to the grid
    cls, phi_args, f_src, T, *_ = family
    spec = make_spec(cls, phi_args, f_src, T, grid_n=20001, tol_fp=1e-12)
    report = solve(spec)
    tracemalloc.start()
    try:
        w = shooting_oracle(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured 1.1 MB on each family, 4.2 MB (Dirichlet) when the call also
    # imports scipy.integrate; RK4 multiple shooting took 18.8 MB
    assert peak < 32 * 2 ** 20
    assert np.max(np.abs(w.u - report.solution.u)) <= 1e-4


@pytest.mark.parametrize("k,grid_n", [(1.99, 1001), (-1.99, 1001), (1.99, 3),
                                      (1.99, 5), (1.99, 11)],
                         ids=["1.99", "-1.99", "1.99-n3", "1.99-n5", "1.99-n11"])
def test_oracle_shoots_near_the_edge_of_the_range(k, grid_n):
    # (phi(u'))' = k with phi(y) = y / sqrt(1 + y^2) gives phi(u') = k(t - 1/2),
    # so phi(u'(0)) = -k/2 lies within 0.005 of an end of phi's range (-1, 1);
    # the collocation needs 1,435 nodes however coarse the requested grid
    spec = make_spec(D, ("mean_curvature", 1.0), repr(k), 1.0, grid_n=grid_n)
    w = shooting_oracle(spec)
    t = w.grid.nodes
    exact = (np.sqrt(1.0 - (k / 2.0) ** 2) - np.sqrt(1.0 - (k * (t - 0.5)) ** 2)) / k
    assert np.max(np.abs(w.u - exact)) <= 1e-6  # measured 3.8e-7


# ------------------------------------------------------------ diagnostics


def test_picard_stage_stops_at_its_budget(monkeypatch):
    # a stage that neither converges, stalls nor diverges ends at MAX_ITER
    monkeypatch.setattr(solver, "MAX_ITER", 3)
    spec = make_spec(D, ("mean_curvature", 1.0), "u - 2", 0.1, tol_fp=1e-13)
    st = solver._picard_stage(spec, 1.0, zero_function(Grid(0.1, spec.grid_n)))
    assert (st.reason, st.iterations, st.converged) == ("budget", 3, False)


def test_report_of_an_iterate_where_the_forcing_faults():
    # the report evaluates f itself; where f faults on the iterate it
    # reports no margin and an infinite ODE residual instead of raising
    spec = make_spec(D, ("mean_curvature", 1.0), "sqrt(u - 1)", 0.1)
    w = zero_function(Grid(0.1, spec.grid_n))
    report = solver._build_report(spec, w, [(1.0, 1)], "picard", 0.5, False)
    assert report.omega_margin is None and report.ode_residual == np.inf
    assert not report.converged


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


def test_halved_lambda_path_stays_exact(monkeypatch):
    # a stiff load leaves the admissible set at large steps, so the step
    # 0.9 is halved twice; after a halving the step never grows again, so
    # every lambda is an exact multiple of the step
    maps = []
    apply = solver.apply_fixed_point_map
    monkeypatch.setattr(solver, "apply_fixed_point_map",
                        lambda *args: maps.append(1) or apply(*args))
    report = solve(make_spec(D, ("mean_curvature", 1.0), "1000*u - 2", 0.3,
                             lambda_step=0.9))
    lams = [lam for lam, _ in report.lambda_path]
    assert lams == [0.225, 0.45, 0.675, 0.9, 1.0]
    # refused stages included: a step that grew again after the halving
    # alternates refused and accepted stages, and ran 78
    assert len(maps) == 68


def test_lambda_path_ends_with_its_first_stage_at_one():
    # the steps 1/7, 2/7 and 4/7 of 0.14285714285714285 sum to 1 - 5e-17,
    # which rounds to lambda = 1.0, so the third stage is the last; the
    # singular map takes no lambda and runs one stage, whatever
    # lambda_step says
    report = solve(make_spec(D, ("mean_curvature", 1.0), "u - 2", 0.1,
                             lambda_step=1 / 7))
    lams = [lam for lam, _ in report.lambda_path]
    assert lams == [1 / 7, 3 / 7, 1.0]
    report = solve(make_spec(S, ("relativistic", 1.0), "1", 1.0, lambda_step=0.3))
    assert [lam for lam, _ in report.lambda_path] == [1.0]


def test_failed_grown_step_retries_at_the_first_step(caplog):
    # Picard meets lambda = 0.1 on its own, so the step doubles to 0.2; the
    # stage at 0.3 stalls and Newton-Krylov fails there, so the solve walks
    # on from 0.1 at the first step, never doubling again, and converges
    # (a solve that ends at the failed stage raises NonConvergence)
    spec = make_spec(C, ("power", 3.0),
                     "0.431*sin(u) + -1.591*v + 1.588*cos(2.467*t) + -0.00925",
                     1.0, grid_n=201, tol_fp=1e-12)
    with caplog.at_level(logging.WARNING, logger="phibvp.solver"):
        report = solve(spec)
    assert report.converged
    assert [lam for lam, _ in report.lambda_path] == [
        0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    retries = [rec.message for rec in caplog.records if "retrying" in rec.message]
    assert retries == ["retrying from lambda=0.1 at the first step"]


PHI_OF_KIND = {Kind.BOUNDED: ("mean_curvature", 1.0),
               Kind.SINGULAR: ("relativistic", 1.0),
               Kind.CLASSIC: ("power", 4.0)}
NEEDED_KIND = {D: Kind.BOUNDED, S: Kind.SINGULAR, C: Kind.CLASSIC}
WRONG_PAIRS = [(cls, kind) for cls in NEEDED_KIND for kind in PHI_OF_KIND
               if kind is not NEEDED_KIND[cls]]


@pytest.mark.parametrize("cls,kind", WRONG_PAIRS,
                         ids=["%s-%s" % (c.value, k.value) for c, k in WRONG_PAIRS])
def test_every_class_rejects_every_other_kind(cls, kind):
    phi_args = PHI_OF_KIND[kind]
    with pytest.raises(ValueError) as err:
        make_spec(cls, phi_args, "0", 1.0)
    assert str(err.value) == (f"{cls.value} needs a {NEEDED_KIND[cls].value} "
                              f"homeomorphism, got {phi_args[0]} ({kind.value})")


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
