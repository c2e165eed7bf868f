"""Executable reproducers of the open ROADMAP defects, one row each.

Each row holds its ROADMAP item, its input and the outcome measured now,
and asserts that outcome as it stands: a change that fixes a defect, or
moves it, moves its row on purpose.  Item 15's row records its fix, an
oracle whose reach does not depend on the grid: now scipy's collocation
solver on its own adaptive mesh.  Item 13's row records its fix, a lambda
step that doubles after each stage Picard meets on its own.
"""

import numpy as np
import pytest

from phibvp import (NonConvergence, ProblemClass, ProblemSpec,
                    make_homeomorphism, parse_expr, shooting_oracle, solve)
from phibvp.certificates import check_growth, winding_number
from phibvp.operators import AdmissibilityViolation


def spec(cls, phi_args, f_src, T, **kw):
    return ProblemSpec(cls, make_homeomorphism(*phi_args), parse_expr(f_src), T,
                       **kw)


def item_4_spike():
    # at t = 0.0505, x = 0, |f| = 98 exceeds f*n + h = 4, but the 101
    # t-samples step over the spike
    cert = check_growth(make_homeomorphism("mean_curvature", 1.0),
                        parse_expr("u - 2 + 100*exp(-((t-0.0505)*1e4)^2)"),
                        parse_expr("4"), parse_expr("u"), parse_expr("1"), 0.1)
    return cert.verdict.status


def item_11_two_roots():
    # a problem with three solutions: the oracle returns the root its first
    # converging start reaches, which from w = 0 is now the solver's (the
    # defect stands: no route sees the other two)
    s = spec(ProblemClass.THREEPOINT_CLASSIC, ("power", 4.0),
             "u^3 - u + 0.1*sin(6*t)", 1.0, tol_fp=1e-13)
    return round(float(np.max(np.abs(solve(s).solution.u - shooting_oracle(s).u))), 2)


def item_13_tilted_solve():
    # every lambda stage from 0.3 on stalls and hands off to Newton-Krylov,
    # so the step grows only once: 930 map applications at a fixed step 0.1
    s = spec(ProblemClass.THREEPOINT_CLASSIC, ("power", 4.0),
             "exp(v)/2 - 1 + (t - 0.5)/2", 1.0, tol_fp=1e-13)
    return solve(s).iterations


def item_15_large_gain():
    # single shooting's 41 starts all left phi's range before T; the
    # collocation oracle reaches on every grid (measured gaps up to 4.1e-6)
    gaps = []
    for n in (101, 201, 1001):
        for k in (20, 30, 40, 100):
            s = spec(ProblemClass.DIRICHLET_BOUNDED, ("mean_curvature", 1.0),
                     f"{k}*u - 1", 1.0, tol_fp=1e-12, grid_n=n)
            gaps.append(float(np.max(np.abs(solve(s).solution.u
                                            - shooting_oracle(s).u))))
    return max(gaps) <= 1e-4


def item_20_both_fail_draw():
    # the paper guarantees a singular solution for every f; solve stalls
    # (best residual 0.265), and the oracle finds one with max|u'| = 0.98a
    s = spec(ProblemClass.THREEPOINT_SINGULAR, ("relativistic", 0.5),
             "-3.107*sin(u) + -1.734*v + 1.26*cos(2.779*t) + -0.262", 4.0,
             tol_fp=1e-12, grid_n=201)
    try:
        solve(s)
        solved = "solved"
    except NonConvergence:
        solved = "NonConvergence"
    return solved, round(float(shooting_oracle(s).u[0]), 4)


def item_5_osc_guard():
    # G(s) is finite for s in (max g - a, min g + a), so osc g < 2a would
    # do; osc g < a refuses f = 1.99 at lambda = 0.503, where osc g = 1.99
    # lambda reaches a, though the oracle solves it (u(0) = 0, max|u'| 9.96)
    s = spec(ProblemClass.DIRICHLET_BOUNDED, ("mean_curvature", 1.0), "1.99",
             1.0, tol_fp=1e-12)
    steepest = round(float(np.max(np.abs(shooting_oracle(s).du))), 2)
    try:
        solve(s)
    except AdmissibilityViolation as exc:
        return "AdmissibilityViolation", round(exc.lam, 3), steepest
    return "solved", None, steepest


def item_6_cusp_residual():
    # converged, but the centered-difference defect is 2.9e-2, far above
    # the gate's 1e-4: where u' changes sign, phi^-1 of a power 3 law has a
    # square-root cusp, so the defect falls only like h^(1/2) while u
    # itself converges; the oracle runs 19.6 s before it fails here
    s = spec(ProblemClass.THREEPOINT_CLASSIC, ("power", 3.0),
             "0.431*sin(u) + -1.591*v + 1.588*cos(2.467*t) + -0.00925", 1.0,
             tol_fp=1e-12, grid_n=201)
    report = solve(s)
    return report.converged, round(report.ode_residual, 4)


def item_7_nan_map():
    try:
        winding_number(lambda a, b: (np.where(a > 0, np.nan, a), b), 1.0)
    except ValueError as exc:
        return str(exc)


REPRODUCERS = [
    ("item 4", item_4_spike, "checked_on_grid"),
    # was 1.6, the gap to another root, while multiple shooting's best
    # scored start led it there
    ("item 11", item_11_two_roots, 0.0),
    ("item 13", item_13_tilted_solve, 524),
    # was OracleFailure at every n, then at n = 101 and 201 but for k = 20
    ("item 15", item_15_large_gain, True),
    # the oracle raised OracleFailure too before the collocation oracle
    ("item 20", item_20_both_fail_draw, ("NonConvergence", 0.0586)),
    # was f = 10*u - 1, refused by sup|g| < a/2 and solved since
    ("item 5", item_5_osc_guard, ("AdmissibilityViolation", 0.503, 9.96)),
    ("item 6", item_6_cusp_residual, (True, 0.0287)),
    ("item 7", item_7_nan_map, "map_fn is not finite at angle 0.0: (nan, 0.0)"),
]


@pytest.mark.parametrize("item,reproduce,outcome", REPRODUCERS,
                         ids=[row[0] for row in REPRODUCERS])
def test_reproducer_outcome_as_it_stands(item, reproduce, outcome):
    assert reproduce() == outcome
