import gc
import math
import re
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import phibvp.expr as expr_module
from phibvp import ProblemClass, ProblemSpec, make_homeomorphism, shooting_oracle
from phibvp.expr import (
    FUNCTIONS,
    VARIABLES,
    BinOp,
    Call,
    EvalDomainError,
    Neg,
    Num,
    ParseError,
    UnknownIdentifierError,
    Var,
    eval_expr,
    eval_many,
    parse_expr,
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


def test_eval_pure():
    e = parse_expr("sin(t)*exp(u) - v^3")
    a = eval_expr(e, 0.3, 0.7, 1.1)
    b = eval_expr(e, 0.3, 0.7, 1.1)
    assert a == b


# ------------------------------------------------- the compiled evaluator

# A tree walker that evaluates node by node, with the domain checks where
# it meets them.  The compiled kernels must agree with it bit for bit, and
# fault for fault.
_REFERENCE_DOMAIN_FAULTS = {
    "log": (lambda x: x <= 0.0, "log of non-positive value"),
    "sqrt": (lambda x: x < 0.0, "sqrt of negative value"),
}


def _reference_first_index(mask):
    if mask.ndim == 0:
        return None
    flat = int(np.argmax(mask))
    if mask.ndim == 1:
        return flat
    return tuple(int(k) for k in np.unravel_index(flat, mask.shape))


def reference_eval_many(e, t, u, v, lenient=False):
    env = {name: np.asarray(x, dtype=float) for name, x in zip(VARIABLES, (t, u, v))}
    shape = np.broadcast_shapes(*(x.shape for x in env.values()))

    def guard(mask, message):
        if not lenient and np.any(mask):
            raise EvalDomainError(
                message, _reference_first_index(np.broadcast_to(mask, shape)))

    def rec(node):
        if isinstance(node, Num):
            return np.asarray(node.value)
        if isinstance(node, Var):
            return env[node.name]
        if isinstance(node, Neg):
            return -rec(node.operand)
        if isinstance(node, Call):
            x = rec(node.arg)
            if node.func in _REFERENCE_DOMAIN_FAULTS:
                faulty, message = _REFERENCE_DOMAIN_FAULTS[node.func]
                bad = faulty(x)
                guard(bad, message)
                if lenient:
                    x = np.where(bad, np.nan, x)
            return getattr(np, node.func)(x)
        a = rec(node.left)
        b = rec(node.right)
        op = node.op
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            guard(b == 0.0, "division by zero")
            return a / b
        guard((a == 0.0) & (b < 0.0), "zero raised to a negative power")
        guard((a < 0.0) & (b != np.round(b)),
              "negative base with non-integer exponent")
        return a ** b

    with np.errstate(all="ignore"):
        out = np.asarray(rec(e), dtype=float)
    if not lenient:
        guard(~np.isfinite(out), "non-finite result")
    if out.shape != shape:
        out = np.ascontiguousarray(np.broadcast_to(out, shape))
    return out


# values that reach every guard: zeros of both signs, integers and
# non-integers of both signs, and magnitudes that overflow
_SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -2.5, 3.0, 1e300, -1e-300]
_VALUES = st.sampled_from(_SPECIAL) | st.floats(-50.0, 50.0)
_TREES = st.recursive(
    st.builds(Num, _VALUES) | st.builds(Var, st.sampled_from(VARIABLES)),
    lambda kids: (st.builds(Neg, kids)
                  | st.builds(Call, st.sampled_from(FUNCTIONS), kids)
                  | st.builds(BinOp, st.sampled_from("+-*/^"), kids, kids)),
    max_leaves=10)
# (t, u, v) shapes as callers use them: scalars, equal samples, the RK4
# sweep's scalar t with vector (u, v), and a certificate's (t, x, y) slice
_SHAPES = [((), (), ()), ((5,), (5,), (5,)), ((), (4,), (4,)),
           ((1, 1), (3, 1), (1, 4))]


@st.composite
def _inputs(draw):
    args = []
    for shape in draw(st.sampled_from(_SHAPES)):
        size = math.prod(shape)
        values = draw(st.lists(_VALUES, min_size=size, max_size=size))
        args.append(np.array(values).reshape(shape) if shape else values[0])
    return tuple(args)


def _outcome(evaluate, e, args, lenient):
    try:
        out = evaluate(e, *args, lenient=lenient)
    except EvalDomainError as exc:
        return "fault", str(exc), exc.fault, exc.index
    return "value", out.shape, out.dtype, out.flags.writeable, out.tobytes()


@settings(max_examples=400, deadline=None)
@given(tree=_TREES, args=_inputs(), lenient=st.booleans())
# two faults of ^ at once: the walker reports 0^negative first
@example(tree=parse_expr("u^v"),
         args=(0.0, np.array([-1.0, 0.0]), np.array([-0.5, -0.5])), lenient=False)
def test_compiled_kernel_matches_tree_walker(tree, args, lenient):
    want = _outcome(reference_eval_many, tree, args, lenient)
    assert _outcome(eval_many, tree, args, lenient) == want
    assert _outcome(eval_many, tree, args, lenient) == want  # cached kernel


@pytest.fixture
def compiles(monkeypatch):
    """The (id of the expression, lenient) pairs compiled while the test
    runs; ids, so that the record keeps no tree alive."""
    seen = []
    compile_kernel = expr_module._compile

    def counting(e, lenient):
        seen.append((id(e), lenient))
        return compile_kernel(e, lenient)

    monkeypatch.setattr(expr_module, "_compile", counting)
    return seen


def test_oracle_compiles_its_forcing_once_per_mode(compiles):
    f = parse_expr("u - 2")
    spec = ProblemSpec(ProblemClass.DIRICHLET_BOUNDED,
                       make_homeomorphism("mean_curvature", 1.0), f, 0.1, grid_n=101)
    shooting_oracle(spec)
    modes = [lenient for key, lenient in compiles if key == id(f)]
    assert modes.count(True) == 1
    assert modes.count(False) <= 1


def test_equal_but_distinct_expressions_get_their_own_kernels(compiles):
    # Num(0.0) == Num(-0.0): a kernel looked up by equality would give the
    # second tree of that pair the first one's sign bit
    pairs = [(parse_expr("u*2 + t"), parse_expr("u*2 + t")),
             (BinOp("*", Var("u"), Num(0.0)), BinOp("*", Var("u"), Num(-0.0)))]
    u = np.arange(3.0)
    for a, b in pairs:
        assert a == b and a is not b
        for e in (a, b):
            got, want = eval_many(e, 1.0, u, u), reference_eval_many(e, 1.0, u, u)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
    assert compiles == [(id(e), False) for pair in pairs for e in pair]


def test_reused_id_never_gets_a_stale_kernel(compiles):
    # each tree dies before the next is parsed, so CPython hands its
    # memory, and with it its id, to a later tree
    ids = set()
    n = 600
    for k in range(n):
        e = parse_expr(f"u + {k}")
        ids.add(id(e))
        assert eval_many(e, 0.0, 1.0, 0.0) == k + 1.0
        del e
    assert len(ids) < n  # some ids were reused
    assert len(compiles) == n



def test_a_dead_expression_takes_its_kernels_with_it():
    # each tree keeps its own kernels, so reference counting frees them
    # with the tree, without the cyclic collector
    e = parse_expr("u + 41")
    refs = [weakref.ref(expr_module.kernel(e, lenient)) for lenient in (False, True)]
    assert all(ref() is not None for ref in refs)
    gc.disable()
    try:
        del e
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_lenient_kernel_does_not_stand_in_for_strict():
    e = parse_expr("log(u)")
    u = np.array([1.0, 0.0])
    assert np.isnan(eval_many(e, 0.0, u, u, lenient=True)[1])
    with pytest.raises(EvalDomainError) as info:
        eval_many(e, 0.0, u, u)
    assert info.value.index == 1


def test_kernel_is_the_cached_entry_eval_many_uses(compiles):
    e = parse_expr("u*v + t")
    strict = expr_module.kernel(e)
    assert expr_module.kernel(e) is strict
    assert expr_module.kernel(e, lenient=True) is not strict
    u = np.arange(3.0)
    assert np.array_equal(eval_many(e, 1.0, u, u), u * u + 1)
    assert compiles == [(id(e), False), (id(e), True)]
