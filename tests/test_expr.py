import math
import re
from pathlib import Path

import numpy as np
import pytest

from phibvp.expr import (
    FUNCTIONS,
    EvalDomainError,
    ParseError,
    UnknownIdentifierError,
    eval_expr,
    eval_many,
    parse_expr,
    to_string,
    variables,
)


def ev(src, t=0.0, u=0.0, v=0.0):
    return eval_expr(parse_expr(src), t, u, v)


# at least 20 precedence / arithmetic fixtures, all exact
PRECEDENCE_CASES = [
    ("2+3*4", 14.0),
    ("2*3+4", 10.0),
    ("2^3^2", 512.0),          # ^ is right-associative
    ("(2^3)^2", 64.0),
    ("-2^2", -4.0),            # unary minus binds looser than ^
    ("(-2)^2", 4.0),
    ("2^-1", 0.5),
    ("-2^-2", -0.25),
    ("1-2-3", -4.0),           # - is left-associative
    ("8/4/2", 1.0),            # / is left-associative
    ("8/(4/2)", 4.0),
    ("1+2-3+4", 4.0),
    ("2*3^2", 18.0),
    ("(2*3)^2", 36.0),
    ("-(1+2)", -3.0),
    ("--2", 2.0),
    ("3*-2", -6.0),
    ("2--3", 5.0),
    ("1/2^2", 0.25),
    ("(1/2)^2", 0.25),
    ("2^2*3", 12.0),
    ("10-2^3", 2.0),
    ("1+2*3^2-4", 15.0),
    ("2^(1+1)", 4.0),
]


@pytest.mark.parametrize("src,expected", PRECEDENCE_CASES)
def test_precedence(src, expected):
    assert ev(src) == expected


def test_variables_and_eval():
    e = parse_expr("u - 2")
    assert variables(e) == frozenset({"u"})
    assert eval_expr(e, 0.0, 3.0, 0.0) == 1.0
    assert eval_expr(e, 0.0, 2.0, 0.0) == 0.0


def test_three_variables():
    e = parse_expr("t + 2*u - v")
    assert variables(e) == frozenset({"t", "u", "v"})
    assert eval_expr(e, 1.0, 2.0, 3.0) == 2.0


def test_functions():
    assert ev("sin(0)") == 0.0
    assert ev("cos(0)") == 1.0
    assert ev("exp(0)") == 1.0
    assert ev("log(e)") == pytest.approx(1.0, abs=1e-15)
    assert ev("sqrt(16)") == 4.0
    assert ev("abs(-3)") == 3.0
    assert ev("tanh(0)") == 0.0
    assert ev("exp(v)/2 - 1", v=math.log(2.0)) == pytest.approx(0.0, abs=1e-16)


def test_readme_function_list_is_what_the_parser_accepts():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    match = re.search(r"the constants `pi` and `e`, and\s+`([^`]+)`", readme)
    assert match is not None
    listed = match.group(1).split()
    for name in listed:
        parse_expr(f"{name}(t)")
    assert sorted(listed) == sorted(FUNCTIONS)


def test_constants():
    assert ev("pi") == math.pi
    assert ev("e") == math.e
    assert ev("t^2 + sin(pi*t)", t=1.0) == pytest.approx(1.0, abs=1e-15)


def test_number_formats():
    assert ev("1.5e2") == 150.0
    assert ev("2.5E-1") == 0.25
    assert ev(".5") == 0.5
    assert ev("3.") == 3.0


# at least 10 malformed inputs; positions are 0-based character offsets
MALFORMED_CASES = [
    ("1 + * 2", 4),
    ("", 0),
    ("   ", 3),
    ("1 +", 3),
    ("(1 + 2", 6),
    ("1 + 2)", 5),
    ("sin", 3),
    ("sin 2", 4),
    ("1 2", 2),
    ("* 3", 0),
    ("1 $ 2", 2),
    ("sin(1,2)", 5),
    ("2 ^", 3),
    ("1e999", 0),
    ("2*1e400", 2),
]


@pytest.mark.parametrize("src,pos", MALFORMED_CASES)
def test_malformed_rejected_with_position(src, pos):
    with pytest.raises(ParseError) as info:
        parse_expr(src)
    assert info.value.position == pos
    assert str(info.value.position) in str(info.value)


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as info:
        parse_expr("2 * foo")
    assert info.value.position == 4
    with pytest.raises(ParseError):
        parse_expr("x + 1")


def test_eval_domain_errors():
    with pytest.raises(EvalDomainError):
        ev("log(0)")
    with pytest.raises(EvalDomainError):
        ev("log(-1)")
    with pytest.raises(EvalDomainError):
        ev("sqrt(-4)")
    with pytest.raises(EvalDomainError):
        ev("1/u", u=0.0)
    with pytest.raises(EvalDomainError):
        ev("(-2)^0.5")
    with pytest.raises(EvalDomainError):
        ev("exp(1000)")  # overflow is a domain fault, not inf
    # one evaluator: a scalar fault is the 0-d case of the array fault
    zero = np.zeros(1)
    for src in ("log(0)", "log(-1)", "sqrt(-4)", "1/u", "(-2)^0.5",
                "exp(1000)", "0^-1", "2^2000"):
        e = parse_expr(src)
        with pytest.raises(EvalDomainError) as scalar:
            eval_expr(e, 0.0, 0.0, 0.0)
        assert scalar.value.index is None, src
        with pytest.raises(EvalDomainError) as array:
            eval_many(e, zero, zero, zero)
        assert str(array.value) == str(scalar.value) + " at sample index 0", src


def test_eval_many_matches_scalar():
    rng = np.random.default_rng(11)
    # +-*/ are correctly rounded in both paths: bitwise agreement
    exact = ["t + u*v", "u - 2", "(t - v)/2 + u", "abs(v) - t"]
    # pow and transcendentals may differ by an ulp between the numpy
    # loops over 40-element arrays and over 0-d arrays, which can take
    # different (vectorized or not) kernels
    close = ["sin(t)*exp(u/10)", "sqrt(u^2 + 1)", "tanh(t - v)",
             "exp(v)/2 - 1"]
    t = rng.uniform(-2, 2, 40)
    u = rng.uniform(-2, 2, 40)
    v = rng.uniform(-2, 2, 40)
    for src in exact + close:
        e = parse_expr(src)
        vec = eval_many(e, t, u, v)
        sca = np.array([eval_expr(e, t[i], u[i], v[i]) for i in range(40)])
        if src in exact:
            assert np.array_equal(vec, sca)
        else:
            assert np.allclose(vec, sca, rtol=1e-14, atol=0.0)


def test_eval_many_broadcasts_constants():
    e = parse_expr("1")
    out = eval_many(e, np.zeros(7), np.zeros(7), np.zeros(7))
    assert out.shape == (7,)
    assert np.all(out == 1.0)


def test_eval_many_reports_first_bad_index():
    e = parse_expr("log(t)")
    t = np.array([1.0, 2.0, -1.0, 0.5])
    with pytest.raises(EvalDomainError) as info:
        eval_many(e, t, t, t)
    assert info.value.index == 2


def test_eval_many_lenient_substitutes_nan():
    e = parse_expr("sqrt(t)")
    t = np.array([4.0, -1.0, 9.0])
    out = eval_many(e, t, t, t, lenient=True)
    assert out[0] == 2.0 and out[2] == 3.0
    assert np.isnan(out[1])


def test_print_parse_round_trip():
    sources = [s for s, _ in PRECEDENCE_CASES] + [
        "u - 2", "exp(v)/2 - 1", "t^2 + sin(pi*t)", "-(u + v)/2",
        "sqrt(abs(t))*tanh(u)", "1/(1 + v^2)",
    ]
    rng = np.random.default_rng(23)
    pts = rng.uniform(0.1, 2.0, (8, 3))
    for src in sources:
        e = parse_expr(src)
        printed = to_string(e)
        again = parse_expr(printed)
        assert to_string(again) == printed  # canonical printer is stable
        for t, u, v in pts:
            a = eval_expr(e, t, u, v)
            b = eval_expr(again, t, u, v)
            assert a == b  # bit-identical through the round trip


def test_eval_pure():
    e = parse_expr("sin(t)*exp(u) - v^3")
    a = eval_expr(e, 0.3, 0.7, 1.1)
    b = eval_expr(e, 0.3, 0.7, 1.1)
    assert a == b
