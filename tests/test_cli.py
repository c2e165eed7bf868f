"""Command-line interface tests.

Each test writes a problem file into tmp_path and drives main() directly,
so exit codes, printed summaries, and output files are all checked without
spawning subprocesses.
"""

import gc
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

from phibvp import (BoundaryZero, ProblemClass, ProblemSpec, cli, expr,
                    make_homeomorphism, parse_expr, shooting_oracle, solve)
from phibvp.cli import (
    EXIT_BAD_INPUT,
    EXIT_GUARD,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_UNCERTIFIED,
    main,
    parse_problem_file,
)

DIRICHLET_BENCH = """\
# curvature-type problem on a short interval
problem = dirichlet
phi = mean_curvature 1
T = 0.1
f = "u - 2"
h = "4"
n = "u"
dn = "1"
"""

CLASSIC_BENCH = """\
problem = threepoint_classic
phi = power 4
T = 1
f = "exp(v)/2 - 1"
c = "-1"
m1 = -1
m2 = 1
rho = 0
"""

SINGULAR_BENCH = """\
problem = threepoint_singular
phi = relativistic 1
T = 1
f = "1"
"""


def write(tmp_path, text, name="prob.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ------------------------------------------------------------------- solve


def test_solve_dirichlet_benchmark(tmp_path, capsys):
    path = write(tmp_path, DIRICHLET_BENCH)
    assert main(["solve", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "converged=true" in out
    assert "ode_residual=" in out and "bc_residual=" in out

    csv = (tmp_path / "prob.solution.csv").read_text().splitlines()
    assert csv[0] == "t,u,du,phi_du,residual"
    assert len(csv) == 1 + 1001
    first = csv[1].split(",")
    last = csv[-1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0
    assert float(last[0]) == 0.1 and float(last[1]) == 0.0

    report = (tmp_path / "prob.report.txt").read_text()
    assert "converged=true" in report


def test_solution_csv_round_trips_bit_for_bit(tmp_path, capsys):
    path = write(tmp_path, DIRICHLET_BENCH)
    assert main(["solve", path]) == EXIT_OK
    t, u, du = np.loadtxt(tmp_path / "prob.solution.csv", delimiter=",",
                          skiprows=1, usecols=(0, 1, 2), unpack=True)
    w = solve(ProblemSpec(ProblemClass.DIRICHLET_BOUNDED,
                          make_homeomorphism("mean_curvature", 1.0),
                          parse_expr("u - 2"), 0.1)).solution
    # 17 significant digits reproduce every double exactly
    assert np.array_equal(t, w.grid.nodes)
    assert np.array_equal(u, w.u)
    assert np.array_equal(du, w.du)


def test_solve_out_dir(tmp_path, capsys):
    path = write(tmp_path, DIRICHLET_BENCH)
    out = tmp_path / "results"
    assert main(["solve", path, "--out-dir", str(out)]) == EXIT_OK
    assert (out / "prob.solution.csv").is_file()
    assert (out / "prob.report.txt").is_file()


def test_solve_singular(tmp_path, capsys):
    path = write(tmp_path, SINGULAR_BENCH)
    assert main(["solve", path]) == EXIT_OK
    rows = (tmp_path / "prob.solution.csv").read_text().splitlines()[1:]
    u0 = float(rows[0].split(",")[1])
    assert abs(u0 - 1.0 / np.sqrt(5.0)) <= 1e-12


def test_solve_honors_grid_n_and_tol(tmp_path, capsys):
    path = write(tmp_path, DIRICHLET_BENCH + "grid_n = 101\ntol = 1e-12\n")
    assert main(["solve", path]) == EXIT_OK
    rows = (tmp_path / "prob.solution.csv").read_text().splitlines()
    assert len(rows) == 1 + 101


def test_solve_nonconvergence_exit_and_report(tmp_path, capsys):
    # u'' = 1 forces u'(T) - u'(0) = T, so no solution exists: the Picard
    # stage stalls and the Newton stage fails too
    bad = (CLASSIC_BENCH.replace("phi = power 4", "phi = identity")
           .replace('f = "exp(v)/2 - 1"', 'f = "1"'))
    path = write(tmp_path, bad)
    assert main(["solve", path]) == EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err
    assert "error:" in err
    report = (tmp_path / "prob.report.txt").read_text()
    assert "converged=false" in report
    assert not (tmp_path / "prob.solution.csv").exists()


def test_solve_final_check_fails_after_every_stage_met_tol(tmp_path, capsys):
    # at tol = 1e-2 each lambda stage meets tol_fp, but the boundary
    # residual of the last iterate is about 1.5e-7, above BC_RESIDUAL_TOL
    text = (PROBLEMS_DIR / "classic_cubic.txt").read_text() + "tol = 1e-2\n"
    assert main(["solve", write(tmp_path, text)]) == EXIT_NO_CONVERGENCE
    assert "error: no convergence" in capsys.readouterr().err
    report = dict(line.split("=", 1) for line in
                  (tmp_path / "prob.report.txt").read_text().splitlines())
    assert report["converged"] == "false"
    assert float(report["bc_residual"]) > 1e-8
    # the first stage hands off and keeps the step 0.1, which then doubles:
    # 0.1, 0.2, 0.4, 0.8 and 1
    assert len(report["lambda_path"].split(",")) == 5
    assert not (tmp_path / "prob.solution.csv").exists()


def test_solve_tilted_classic_matches_oracle(tmp_path, capsys):
    # the tilt (t - 0.5)/2 has zero mean on [0, 1], and this problem has a
    # solution: the solve must reach the shooting oracle's
    tilted = 'exp(v)/2 - 1 + (t - 0.5)/2'
    path = write(tmp_path, CLASSIC_BENCH.replace('f = "exp(v)/2 - 1"',
                                                 f'f = "{tilted}"'))
    assert main(["solve", path]) == EXIT_OK
    assert "converged=true" in (tmp_path / "prob.report.txt").read_text()
    u = np.loadtxt(tmp_path / "prob.solution.csv", delimiter=",", skiprows=1,
                   usecols=1)
    oracle = shooting_oracle(ProblemSpec(ProblemClass.THREEPOINT_CLASSIC,
                                         make_homeomorphism("power", 4.0),
                                         parse_expr(tilted), 1.0))
    assert np.max(np.abs(u - oracle.u)) <= 1e-4  # measured 2.6e-8


def test_solve_guard_exit_for_oversized_forcing(tmp_path, capsys):
    path = write(tmp_path, DIRICHLET_BENCH.replace('f = "u - 2"', 'f = "40"')
                 .replace("T = 0.1", "T = 0.3"))
    assert main(["solve", path]) == EXIT_GUARD
    assert "error:" in capsys.readouterr().err


def test_solve_fault_of_f_names_f_and_the_point(tmp_path, capsys):
    # the pole at t = 0.05 is node 500 of the default 1001-node grid
    path = write(tmp_path, DIRICHLET_BENCH.replace('f = "u - 2"',
                                                   'f = "1/(t - 0.05)"'))
    assert main(["solve", path]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "error: f: division by zero at (t, u, v) = (0.05, 0.0, 0.0)" in err
    assert "sample index" not in err


# ------------------------------------------------------------------- check


def test_check_dirichlet_passes(tmp_path, capsys):
    path = write(tmp_path, DIRICHLET_BENCH)
    assert main(["check", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "verdict: checked_on_grid" in out
    cert = (tmp_path / "prob.certificate.txt").read_text()
    assert "certificate=growth" in cert
    assert "L=1.3333333333333337" in cert


def test_check_dirichlet_doubled_horizon_uncertified(tmp_path, capsys):
    path = write(tmp_path, DIRICHLET_BENCH.replace("T = 0.1", "T = 0.2"))
    assert main(["check", path]) == EXIT_UNCERTIFIED
    out = capsys.readouterr().out
    assert "verdict: not_applicable" in out
    assert "h_l1 = 0.8 >= a/2 = 0.5" in out


def test_check_singular_is_unconditional(tmp_path, capsys):
    path = write(tmp_path, SINGULAR_BENCH)
    assert main(["check", path]) == EXIT_OK
    assert "unconditional" in capsys.readouterr().out
    cert = (tmp_path / "prob.certificate.txt").read_text()
    assert "verdict=unconditional" in cert


def test_check_classic_runs_signs_then_degree(tmp_path, capsys):
    path = write(tmp_path, CLASSIC_BENCH)
    assert main(["check", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "winding: -1" in out
    assert "verdict: checked_on_grid" in out
    cert = (tmp_path / "prob.certificate.txt").read_text()
    assert "certificate=signs" in cert
    assert "rho_min=4.3267487109222245" in cert
    assert "winding=-1" in cert  # degree block appended


def test_check_classic_bad_floor_uncertified(tmp_path, capsys):
    path = write(tmp_path, CLASSIC_BENCH.replace('c = "-1"', 'c = "0"'))
    assert main(["check", path]) == EXIT_UNCERTIFIED
    out = capsys.readouterr().out
    assert "verdict: failed_at" in out
    # degree must not run when the sign bounds already failed
    assert "winding" not in out


def test_check_classic_respects_larger_requested_radius(tmp_path, capsys):
    path = write(tmp_path, CLASSIC_BENCH.replace("rho = 0", "rho = 6"))
    assert main(["check", path]) == EXIT_OK
    cert = (tmp_path / "prob.certificate.txt").read_text()
    assert "rho=6.0" in cert


def test_check_classic_reports_an_undefined_degree(tmp_path, capsys, monkeypatch):
    # the sign bounds pass, but the planar map vanishes on the derived circle
    def boundary_zero(f, T, rho):
        raise BoundaryZero(rho, 1.25e-17, 0.5)

    monkeypatch.setattr(cli, "brouwer_degree", boundary_zero)
    path = write(tmp_path, CLASSIC_BENCH)
    assert main(["check", path]) == EXIT_UNCERTIFIED
    assert "degree undefined:" in capsys.readouterr().err
    cert = (tmp_path / "prob.certificate.txt").read_text()
    assert cert.endswith("samples=101x101x101\nrho=4.3267487109222245\n"
                         "winding=undefined\nmin_boundary_norm=1.25e-17\n")


@pytest.mark.parametrize("text", [
    # c = -1e300 derives a box of half-width 5e100, where f overflows
    CLASSIC_BENCH.replace('c = "-1"', 'c = "-1e300"'),
    DIRICHLET_BENCH.replace('f = "u - 2"', 'f = "u - 2 + exp(u^3)"'),
], ids=["signs", "growth"])
def test_check_fault_of_f_names_point_and_box(tmp_path, capsys, text):
    assert main(["check", write(tmp_path, text)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "f: non-finite result at (t, u, v) = (0.0, " in err
    assert "on the derived sample box |u| <= " in err
    assert "sample index" not in err


def test_check_overflow_of_the_growth_bound_names_point_and_box(tmp_path, capsys):
    # T = 1e300 derives a box of half-width 4e290, where f*n overflows
    text = DIRICHLET_BENCH.replace("T = 0.1", "T = 1e300").replace(
        'h = "4"', 'h = "1e-310"')
    assert main(["check", write(tmp_path, text)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "error: f*n+h: overflow at (t, u, v) = (0.0, " in err
    assert "on the derived sample box |u| <= " in err


@pytest.mark.parametrize("text,message", [
    # phi^{-1}(x) = x^2 for power 1.5, so r = phi^{-1}(L + 2e200) overflows
    (CLASSIC_BENCH.replace("phi = power 4", "phi = power 1.5").replace(
        'c = "-1"', 'c = "-1e200"'), "r = inf with T = 1.0"),
    # L is finite, but the box 2 * (L + L*T) is not
    (DIRICHLET_BENCH.replace("T = 0.1", "T = 1e308").replace(
        'h = "4"', 'h = "4.9e-309"'), "L = 4.924685294770148 with T = 1e+308"),
], ids=["signs", "growth"])
def test_check_overflow_of_the_derivative_bound_is_named(tmp_path, capsys, text,
                                                         message):
    assert main(["check", write(tmp_path, text)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert f"error: derived bound {message} leaves no finite sample box" in err
    assert not list(tmp_path.glob("prob.*.txt"))


def test_check_failure_detail_prints_plain_floats(tmp_path, capsys):
    path = write(tmp_path, CLASSIC_BENCH.replace('c = "-1"', 'c = "0"'))
    assert main(["check", path]) == EXIT_UNCERTIFIED
    out = capsys.readouterr().out
    cert = (tmp_path / "prob.certificate.txt").read_text()
    assert "detail=f = -0.99" in cert and "< c(t) = 0.0" in cert
    assert "np." not in out + cert


@pytest.mark.parametrize("text,message", [
    (DIRICHLET_BENCH.replace('h = "4"', 'h = "4 + 1/t"'),
     "h: division by zero at t = 0.0"),
    (DIRICHLET_BENCH.replace('n = "u"', 'n = "sqrt(u)"'),
     "n: sqrt of negative value at u = -"),
    (DIRICHLET_BENCH.replace('dn = "1"', 'dn = "1/u"'),
     "dn: division by zero at u = 0.0"),
    (CLASSIC_BENCH.replace('c = "-1"', 'c = "-1/t"'),
     "c: division by zero at t = 0.0"),
], ids=["h", "n", "dn", "c"])
def test_check_fault_of_a_profile_names_key_and_point(tmp_path, capsys, text,
                                                      message):
    assert main(["check", write(tmp_path, text)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "sample index" not in err


def test_check_dirichlet_missing_majorant_keys(tmp_path, capsys):
    text = "\n".join(line for line in DIRICHLET_BENCH.splitlines()
                     if not line.startswith(("h ", "n ", "dn "))) + "\n"
    path = write(tmp_path, text)
    assert main(["check", path]) == EXIT_BAD_INPUT
    assert "error:" in capsys.readouterr().err


# -------------------------------------------------------------------- qphi


def test_qphi_fault_of_h_names_the_point(tmp_path, capsys):
    path = write(tmp_path, 'phi = mean_curvature 1\nT = 1\nh = "1/t"\n')
    assert main(["qphi", path]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "error: h: division by zero at t = 0.0" in err
    assert "sample index" not in err


def test_qphi_profile_depending_on_u_is_bad_input(tmp_path, capsys):
    path = write(tmp_path, 'phi = mean_curvature 1\nT = 1\nh = "u"\n')
    assert main(["qphi", path]) == EXIT_BAD_INPUT
    assert "h may only depend on ['t'], uses u" in capsys.readouterr().err
    assert not (tmp_path / "prob.qphi.txt").exists()


def test_qphi_constant_projects_to_itself(tmp_path, capsys):
    path = write(tmp_path, "phi = mean_curvature 1\nT = 1\nh = \"0.4\"\n")
    assert main(["qphi", path]) == EXIT_OK
    text = (tmp_path / "prob.qphi.txt").read_text()
    s = float(text.splitlines()[0].split("=")[1])
    assert s == 0.4
    assert "residual=" in text and "iterations=" in text


def test_qphi_odd_profile_has_zero_projection(tmp_path, capsys):
    path = write(tmp_path, 'phi = mean_curvature 1\nT = 1\nh = "sin(2*pi*t)/4"\n')
    assert main(["qphi", path]) == EXIT_OK
    s = float(capsys.readouterr().out.splitlines()[-1].split("=")[1])
    assert abs(s) <= 1e-6


def test_qphi_guard_when_profile_reaches_half_range(tmp_path, capsys):
    path = write(tmp_path, 'phi = mean_curvature 1\nT = 1\nh = "2*t - 1"\n')
    assert main(["qphi", path]) == EXIT_GUARD
    assert "error:" in capsys.readouterr().err


def test_qphi_overflowing_profile_is_bad_input(tmp_path, capsys):
    path = write(tmp_path, 'phi = identity\nT = 1\nh = "1e308*t - 1e308*(1-t)"\n')
    assert main(["qphi", path]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "error: the integral of phi^-1(h - s) overflows at s = -1e+308" in err


# ------------------------------------------------------------------ degree


def test_degree_benchmark(tmp_path, capsys):
    path = write(tmp_path,
                 'f = "exp(v)/2 - 1"\nT = 1\nrho = 4.3267487109222245\n')
    assert main(["degree", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "winding = -1" in out
    assert "min_boundary_norm" in out
    assert "winding=-1" in (tmp_path / "prob.degree.txt").read_text()


def test_degree_boundary_zero_is_uncertified(tmp_path, capsys):
    path = write(tmp_path, 'f = "0"\nT = 1\nrho = 1\n')
    assert main(["degree", path]) == EXIT_UNCERTIFIED
    assert "error:" in capsys.readouterr().err
    text = (tmp_path / "prob.degree.txt").read_text()
    assert "winding=undefined" in text


@pytest.mark.parametrize("T", ["0", "-1"])
def test_degree_requires_positive_horizon(tmp_path, capsys, T):
    path = write(tmp_path, f'f = "exp(v)/2 - 1"\nT = {T}\nrho = 4\n')
    assert main(["degree", path]) == EXIT_BAD_INPUT
    assert "T must be positive" in capsys.readouterr().err
    assert not (tmp_path / "prob.degree.txt").exists()


def test_degree_requires_positive_radius(tmp_path, capsys):
    path = write(tmp_path, 'f = "1"\nT = 1\nrho = -2\n')
    assert main(["degree", path]) == EXIT_BAD_INPUT
    assert "rho must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["check", "degree"])
@pytest.mark.parametrize("rho", ["nan", "inf"])
def test_non_finite_radius_is_bad_input(tmp_path, capsys, cmd, rho):
    path = write(tmp_path, CLASSIC_BENCH.replace("rho = 0", f"rho = {rho}"))
    assert main([cmd, path]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "rho must be" in err
    assert "non-finite result" not in err  # blames the radius, not f
    assert not list(tmp_path.glob("prob.*.txt"))


@pytest.mark.parametrize("cmd", ["check", "degree"])
def test_radius_too_large_for_f_names_the_radius(tmp_path, capsys, cmd):
    # exp(v) overflows on most of the circles of radius 1e300 and 1e308
    for rho in ("1e300", "1e308"):
        path = write(tmp_path, CLASSIC_BENCH.replace("rho = 0", f"rho = {rho}"))
        assert main([cmd, path]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "f: non-finite result" in err
        assert f"radius {float(rho)!r}" in err
        assert not list(tmp_path.glob("prob.*.txt"))


def test_radius_where_the_planar_map_overflows_is_bad_input(tmp_path, capsys):
    # f = u is finite on the circle of radius 1e308, but its Simpson sum
    # and the map overflow: the user sees the error, and no numpy warning
    # (tier-1 turns a RuntimeWarning into a failure)
    path = write(tmp_path, 'f = "u"\nT = 1\nrho = 1e308\n')
    assert main(["degree", path]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err == (
        "error: map_fn is not finite at angle 0.0: (-inf, -1e+308)\n")
    assert not list(tmp_path.glob("prob.*.txt"))


@pytest.mark.parametrize("key,value", [("m1", "-inf"), ("m2", "inf"),
                                       ("m2", "nan")])
def test_non_finite_sign_threshold_is_bad_input(tmp_path, capsys, recwarn,
                                                key, value):
    default = {"m1": "-1", "m2": "1"}[key]
    path = write(tmp_path, CLASSIC_BENCH.replace(f"{key} = {default}\n",
                                                 f"{key} = {value}\n"))
    assert main(["check", path]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert f"{key} must be finite" in err
    assert "non-finite result" not in err  # blames the threshold, not f
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not list(tmp_path.glob("prob.*.txt"))


# ----------------------------------------------------------- problem files


def test_parse_problem_file_quotes_and_comments(tmp_path):
    path = write(tmp_path, '# heading\nf = "u - 2"  # trailing\nT = 0.1\n\n')
    parsed = parse_problem_file(path)
    assert parsed == {"f": "u - 2", "T": "0.1"}


@pytest.mark.parametrize("text,fragment", [
    ("bogus = 1\n", "unknown key"),
    ("T = 1\nT = 2\n", "duplicate key"),
    ('f = "1\n', "quote"),
    ("T =\n", "empty value"),
    ("just some words\n", "expected 'key = value'"),
])
def test_parse_problem_file_rejects(tmp_path, text, fragment):
    path = write(tmp_path, text)
    with pytest.raises(Exception) as ei:
        parse_problem_file(path)
    msg = str(ei.value)
    assert fragment in msg
    assert str(path) in msg  # message carries file and line


def test_readme_key_table_is_known_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("\nKeys:\n\n", 1)[1].split("\n\n", 1)[0]
    first_cells = [row.split("|")[1] for row in table.splitlines()[2:]]
    listed = {key for cell in first_cells for key in re.findall(r"`(\w+)`", cell)}
    assert listed == cli.KNOWN_KEYS


def test_bad_input_exit_codes(tmp_path, capsys):
    cases = [
        "problem = heat\nphi = mean_curvature 1\nT = 0.1\nf = \"0\"\n",
        "problem = dirichlet\nphi = spiral 1\nT = 0.1\nf = \"0\"\n",
        "problem = dirichlet\nphi = mean_curvature 1\nT = 0.1\nf = \"2 * foo\"\n",
        "problem = dirichlet\nphi = mean_curvature 1\nT = 0.1\nf = \"1 + * 2\"\n",
        "problem = dirichlet\nphi = mean_curvature 1\nT = -1\nf = \"0\"\n",
        "problem = dirichlet\nphi = power 4\nT = 0.1\nf = \"0\"\n",
        "problem = dirichlet\nphi = mean_curvature 1\nT = 0.1\nf = \"0\"\n"
        "tol = nan\n",
        "problem = dirichlet\nphi = mean_curvature 1\nT = 0.1\nf = \"0\"\n"
        "lambda_step = 1e-9\n",
        "problem = dirichlet\nphi = mean_curvature 1\nT = 0.1\nf = \"0\"\n"
        "grid_n = 2\n",
        "problem = dirichlet\nphi = mean_curvature 1\nT = abc\nf = \"0\"\n",
        "problem = dirichlet\nphi = mean_curvature 1\nT = 0.1\nf = \"0\"\n"
        "grid_n = 2.5\n",
    ]
    messages = [
        "unknown problem class 'heat'", "phi: unknown homeomorphism 'spiral'",
        "f: unknown identifier 'foo' at position 4", "f: got '*' at position 4",
        "T must be positive, got -1.0",
        "dirichlet needs a bounded homeomorphism, got power",
        "tol must be positive and finite, got nan",
        "lambda_step must lie in [0.001, 1], got 1e-09",
        "grid_n must be at least 3, got 2", "T: expected a number, got 'abc'",
        "grid_n: expected an integer, got '2.5'",
    ]
    for i, (text, message) in enumerate(zip(cases, messages, strict=True)):
        path = write(tmp_path, text, f"bad{i}.txt")
        assert main(["solve", path]) == EXIT_BAD_INPUT, text
        err = capsys.readouterr().err
        assert "error:" in err and message in err, err


@pytest.mark.parametrize("cmd,name,text", [
    ("solve", "solve", DIRICHLET_BENCH),
    ("qphi", "Grid", 'phi = mean_curvature 1\nT = 1\nh = "0.1"\n'),
], ids=["solve", "qphi"])
def test_grid_too_large_to_allocate_is_bad_input(tmp_path, capsys, monkeypatch,
                                                 cmd, name, text):
    # the grid's first array fails to allocate; nothing is allocated here
    def refuse(*args):
        raise MemoryError("Unable to allocate 745. GiB for an array with "
                          "shape (100000000000,) and data type float64")

    monkeypatch.setattr(cli, name, refuse)
    path = write(tmp_path, text + "grid_n = 100000000000\n")
    assert main([cmd, path]) == EXIT_BAD_INPUT
    assert "error: Unable to allocate 745. GiB" in capsys.readouterr().err


def test_malformed_expression_reports_position(tmp_path, capsys):
    path = write(tmp_path,
                 'problem = dirichlet\nphi = mean_curvature 1\nT = 0.1\n'
                 'f = "2 * foo"\n')
    assert main(["solve", path]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "position 4" in err


def test_missing_file_is_bad_input(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.txt")]) == EXIT_BAD_INPUT
    assert "error:" in capsys.readouterr().err


def test_missing_required_key(tmp_path, capsys):
    path = write(tmp_path, "problem = dirichlet\nphi = mean_curvature 1\nT = 0.1\n")
    assert main(["solve", path]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "f" in err


# -------------------------------------------------------- shipped examples

PROBLEMS_DIR = Path(__file__).resolve().parent.parent / "problems"

# every shipped file under every subcommand, with its exit code: a file
# that lacks a subcommand's keys (or, classic_cubic.txt, has rho = 0) is
# bad input (4); qphi accepts dirichlet_short.txt's h = 4, whose
# oscillation 0 is below a, and its shift is s = 4.0
SHIPPED = [
    ("solve", "dirichlet_short.txt", EXIT_OK),
    ("check", "dirichlet_short.txt", EXIT_OK),
    ("qphi", "dirichlet_short.txt", EXIT_OK),
    ("degree", "dirichlet_short.txt", EXIT_BAD_INPUT),
    ("solve", "classic_cubic.txt", EXIT_OK),
    ("check", "classic_cubic.txt", EXIT_OK),
    ("qphi", "classic_cubic.txt", EXIT_BAD_INPUT),
    ("degree", "classic_cubic.txt", EXIT_BAD_INPUT),
    ("solve", "singular_constant.txt", EXIT_OK),
    ("check", "singular_constant.txt", EXIT_OK),
    ("qphi", "singular_constant.txt", EXIT_BAD_INPUT),
    ("degree", "singular_constant.txt", EXIT_BAD_INPUT),
    ("solve", "qphi_profile.txt", EXIT_BAD_INPUT),
    ("check", "qphi_profile.txt", EXIT_BAD_INPUT),
    ("qphi", "qphi_profile.txt", EXIT_OK),
    ("degree", "qphi_profile.txt", EXIT_BAD_INPUT),
    ("solve", "degree_cubic.txt", EXIT_BAD_INPUT),
    ("check", "degree_cubic.txt", EXIT_BAD_INPUT),
    ("qphi", "degree_cubic.txt", EXIT_BAD_INPUT),
    ("degree", "degree_cubic.txt", EXIT_OK),
]


@pytest.mark.parametrize("cmd,name,code", SHIPPED,
                         ids=["%s-%s" % (c, n.split(".")[0]) for c, n, _ in SHIPPED])
def test_shipped_problem_files(cmd, name, code, tmp_path, capsys):
    path = PROBLEMS_DIR / name
    assert path.is_file()
    assert main([cmd, str(path), "--out-dir", str(tmp_path)]) == code


@pytest.mark.parametrize("cmd,name,code", SHIPPED,
                         ids=["%s-%s" % (c, n.split(".")[0]) for c, n, _ in SHIPPED])
def test_output_is_byte_identical_across_runs(cmd, name, code, tmp_path, capsys,
                                              caplog):
    # two runs in one process: the same exit code, terminal output, log
    # records and written files, byte for byte
    runs = []
    for _ in range(2):
        got = main([cmd, str(PROBLEMS_DIR / name), "--out-dir", str(tmp_path)])
        files = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
        for p in tmp_path.iterdir():
            p.unlink()
        runs.append((got, capsys.readouterr(), caplog.messages, files))
        caplog.clear()
    assert runs[0][0] == code
    assert runs[0] == runs[1]


def test_main_reuses_one_parser_and_leaves_no_cyclic_garbage(tmp_path, capsys):
    # a parser built per call left 166-218 objects of cyclic garbage behind
    # it, and each kernel expr._compile built 13 more, so gen-0 collections
    # came at call-dependent times; rejected and successful calls alike
    # must leave none (solve on classic_cubic.txt is left out: scipy's
    # Newton-Krylov leaves 39 objects of its own)
    calls = [(["degree", write(tmp_path, DIRICHLET_BENCH)], EXIT_BAD_INPUT)]
    calls += [([cmd, str(PROBLEMS_DIR / name), "--out-dir", str(tmp_path)], EXIT_OK)
              for cmd, name in [("degree", "degree_cubic.txt"),
                                ("qphi", "qphi_profile.txt"),
                                ("solve", "dirichlet_short.txt"),
                                ("check", "dirichlet_short.txt")]]
    for argv, code in calls:
        assert main(argv) == code
    assert cli.build_parser() is cli.build_parser()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for argv, code in calls:
            gc.collect()
            gc.garbage.clear()
            for _ in range(3):
                assert main(argv) == code
            gc.collect()
            assert gc.garbage == [], argv
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_no_kernel_outlives_its_call(tmp_path, monkeypatch):
    # each check call parses its own forcing and profiles, and each tree
    # keeps its own kernels, so reference counting frees them with the
    # call's trees
    compiled = []
    compile_kernel = expr._compile

    def recording(e, lenient):
        run = compile_kernel(e, lenient)
        compiled.append(weakref.ref(run))
        return run

    monkeypatch.setattr(expr, "_compile", recording)
    argv = ["check", str(PROBLEMS_DIR / "classic_cubic.txt"), "--out-dir", str(tmp_path)]
    for k in range(1, 6):
        assert main(argv) == EXIT_OK
        assert len(compiled) == 2 * k
        assert all(ref() is None for ref in compiled)
