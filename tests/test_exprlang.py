import gc
import importlib
import sys
import time
import weakref
from fractions import Fraction

import pytest

from conftest import EXPR_CORPUS, EXPR_CORPUS_VARIABLES
from tsgronwall.errors import (
    DivisionByZero,
    ExprSyntaxError,
    FloatOverflow,
    ModeRequired,
    NegativeSqrt,
    PowerTooLarge,
    UnknownVariable,
)
from tsgronwall.exprlang import (
    MAX_DEPTH,
    Bin,
    Lit,
    Neg,
    Var,
    compile_fn,
    evaluate,
    parse,
    to_source,
)
from tsgronwall.numeric import Mode
from tree_evaluator import tree_evaluate


def test_parse_rational_literal():
    ast = parse("1/4")
    assert ast == Bin("/", Lit(Fraction(1)), Lit(Fraction(4)))
    assert evaluate(ast, {}) == Fraction(1, 4)


def test_parse_decimal_literal_is_exact():
    ast = parse("0.25")
    assert ast == Lit(Fraction(1, 4))


def test_parse_product_node():
    ast = parse("t2*u", ["t1", "t2", "u"])
    assert ast == Bin("*", Var("t2"), Var("u"))


def test_parse_error_carries_position():
    with pytest.raises(ExprSyntaxError) as info:
        parse("t1+", ["t1"])
    assert info.value.position == 3


def test_unknown_variable_is_rejected_at_parse_time():
    with pytest.raises(UnknownVariable) as info:
        parse("t2*u", ["t1"])
    assert info.value.name == "t2"


def test_unknown_function_is_a_syntax_error():
    with pytest.raises(ExprSyntaxError):
        parse("floor(t1)", ["t1"])


def test_trailing_input_is_rejected():
    with pytest.raises(ExprSyntaxError) as info:
        parse("1 2")
    assert info.value.position == 2


def test_precedence_power_above_unary_minus_above_product():
    assert parse("-t1^2", ["t1"]) == Neg(Bin("^", Var("t1"), Lit(Fraction(2))))
    assert parse("-2*3") == Bin("*", Neg(Lit(Fraction(2))), Lit(Fraction(3)))
    assert parse("2^3^2") == Bin(
        "^", Lit(Fraction(2)), Bin("^", Lit(Fraction(3)), Lit(Fraction(2)))
    )
    assert evaluate(parse("2^3^2"), {}) == 512


def test_eval_simple_sum():
    ast = parse("t1+t2", ["t1", "t2"])
    assert evaluate(ast, {"t1": Fraction(1), "t2": Fraction(2)}) == 3


def test_eval_qscale_graininess_formula():
    ast = parse("(q-1)*s", ["q", "s"])
    assert evaluate(ast, {"q": Fraction(2), "s": Fraction(4)}) == 4


def test_eval_division_by_zero():
    ast = parse("1/(t1-1)", ["t1"])
    with pytest.raises(DivisionByZero):
        evaluate(ast, {"t1": Fraction(1)})
    with pytest.raises(ZeroDivisionError):
        evaluate(ast, {"t1": 1.0}, Mode.FLOAT)


def test_eval_zero_to_negative_power():
    ast = parse("t1^-1", ["t1"])
    with pytest.raises(DivisionByZero):
        evaluate(ast, {"t1": Fraction(0)})


def test_eval_power_rules_in_exact_mode():
    assert evaluate(parse("t1^3", ["t1"]), {"t1": Fraction(1, 2)}) == Fraction(1, 8)
    with pytest.raises(ModeRequired):
        evaluate(parse("2^(1/2)"), {})
    assert evaluate(parse("2^(1/2)"), {}, Mode.FLOAT) == pytest.approx(2**0.5)


def test_eval_sqrt_rules():
    assert evaluate(parse("sqrt(9/4)"), {}) == Fraction(3, 2)
    with pytest.raises(ModeRequired):
        evaluate(parse("sqrt(2)"), {})
    with pytest.raises(NegativeSqrt):
        evaluate(parse("sqrt(0-4)"), {})
    with pytest.raises(NegativeSqrt):
        evaluate(parse("sqrt(0-4)"), {}, Mode.FLOAT)
    assert evaluate(parse("sqrt(2)"), {}, Mode.FLOAT) == pytest.approx(2**0.5)


def test_float_power_overflow_has_its_own_error():
    with pytest.raises(FloatOverflow, match=r"^10\.0 \*\* 400\.0 overflows the float64 range$"):
        compile_fn("10^400", (), Mode.FLOAT)()
    with pytest.raises(NegativeSqrt, match=r"^-8\.0 \*\* 0\.5 has no real value$"):
        compile_fn("(0-8)^0.5", (), Mode.FLOAT)()


def test_eval_min_max():
    env = {"t1": Fraction(2), "t2": Fraction(5)}
    assert evaluate(parse("min(t1,t2)", ["t1", "t2"]), env) == 2
    assert evaluate(parse("max(t1,t2,7)", ["t1", "t2"]), env) == 7


def test_eval_rejects_unbound_variable():
    ast = parse("t1", ["t1"])
    with pytest.raises(UnknownVariable):
        evaluate(ast, {})


def test_eval_mode_consistency_of_environment():
    from tsgronwall.errors import ModeMismatch

    ast = parse("t1", ["t1"])
    with pytest.raises(ModeMismatch):
        evaluate(ast, {"t1": 0.5}, Mode.EXACT)


def test_round_trip_identity_on_corpus():
    for source in EXPR_CORPUS:
        first = parse(source, EXPR_CORPUS_VARIABLES)
        printed = to_source(first)
        second = parse(printed, EXPR_CORPUS_VARIABLES)
        assert second == first, f"{source!r} -> {printed!r} changed the tree"


def test_eval_is_deterministic():
    ast = parse("t1^2+t2/3", ["t1", "t2"])
    env = {"t1": Fraction(5, 7), "t2": Fraction(1, 9)}
    assert evaluate(ast, env) == evaluate(ast, env)


def test_compile_fn_binds_positionally():
    fn = compile_fn("t2*u", ("t1", "t2", "u"))
    assert fn(Fraction(9), Fraction(2), Fraction(3)) == 6
    with pytest.raises(TypeError):
        fn(Fraction(1))


# Variable values for the differential test, one row per environment in
# EXPR_CORPUS_VARIABLES order (t1, t2, u, q, s); each row runs in both
# modes, converted to the mode's type and also left mismatched.
_ROWS = [
    ("3/2", "5", "1/3", "2", "7/4"),
    ("0", "0", "0", "0", "0"),
    ("-2", "-1/3", "-4", "-1", "-5/2"),
    ("-1", "1", "0", "1", "-1"),
    ("9/4", "4", "1/9", "3", "0"),
    ("1", "-1", "2", "1/2", "3"),
]


def _environments(mode):
    names = EXPR_CORPUS_VARIABLES
    for row in _ROWS:
        exact = [Fraction(v) for v in row]
        if mode is Mode.EXACT:
            yield dict(zip(names, exact))
            # ints are exact too; a float or a bool is a mode mismatch
            yield dict(zip(names, [int(v) if v.denominator == 1 else v for v in exact]))
            yield dict(zip(names, [float(exact[0])] + exact[1:]))
            yield dict(zip(names, exact[:2] + [True] + exact[3:]))
        else:
            floats = [float(v) for v in exact]
            yield dict(zip(names, floats))
            yield dict(zip(names, floats[:1] + [exact[1]] + floats[2:]))
            yield dict(zip(names, floats[:2] + [1] + floats[3:]))


def _outcome(call):
    try:
        return "value", call()
    except Exception as exc:  # every failure is compared, type and message
        return "error", (type(exc), str(exc))


def _assert_same(got, want, mode, context):
    assert got[0] == want[0], context
    if want[0] == "error":
        assert got[1] == want[1], context
        return
    assert type(got[1]) is type(want[1]), context
    if mode is Mode.EXACT:
        assert got[1] == want[1], context
    else:
        assert repr(got[1]) == repr(want[1]), context


@pytest.mark.parametrize("mode", [Mode.EXACT, Mode.FLOAT])
def test_compiled_expressions_match_the_tree_walk(mode):
    names = EXPR_CORPUS_VARIABLES
    checked = errors = 0
    for source in EXPR_CORPUS:
        tree = parse(source, names)
        fn = compile_fn(source, names, mode)
        for env in _environments(mode):
            want = _outcome(lambda: tree_evaluate(tree, env, mode))
            context = (source, mode, env)
            _assert_same(_outcome(lambda: fn(*env.values())), want, mode, context)
            _assert_same(_outcome(lambda: evaluate(tree, env, mode)), want, mode, context)
            checked += 1
            errors += want[0] == "error"
        # an unbound variable is found when evaluation reaches it
        partial = {"t2": Fraction(0) if mode is Mode.EXACT else 0.0}
        want = _outcome(lambda: tree_evaluate(tree, partial, mode))
        _assert_same(_outcome(lambda: evaluate(tree, partial, mode)), want, mode, source)
    assert errors and checked - errors  # the environments reach both outcomes


# Source text nesting `depth` levels deep (see MAX_DEPTH), per shape.
DEPTH_SHAPES = {
    "negations": lambda depth: "-" * (depth - 1) + "t",
    "parentheses": lambda depth: "(" * (depth - 1) + "t" + ")" * (depth - 1),
    "sum": lambda depth: "+".join(["t"] * depth),
    "quotients": lambda depth: "t" + "/2" * (depth - 1),
    "power-tower": lambda depth: "^".join(["2"] * (depth - 1) + ["1"]),
    "calls": lambda depth: "min(" * (depth - 1) + "t" + ",1)" * (depth - 1),
}


@pytest.mark.parametrize("shape", DEPTH_SHAPES)
@pytest.mark.parametrize("mode", [Mode.EXACT, Mode.FLOAT])
def test_expressions_at_the_depth_cap_compile_and_evaluate(shape, mode):
    source = DEPTH_SHAPES[shape](MAX_DEPTH)
    t = Fraction(3) if mode is Mode.EXACT else 3.0
    want = _outcome(lambda: tree_evaluate(parse(source, ("t",)), {"t": t}, mode))
    _assert_same(_outcome(lambda: compile_fn(source, ("t",), mode)(t)), want, mode, source)
    if shape == "power-tower":
        # 2^2^2^2^2 is 2^65536; one more 2 has no representable value
        assert want[1][0] is (PowerTooLarge if mode is Mode.EXACT else FloatOverflow)
    else:
        assert want[0] == "value"


@pytest.mark.parametrize("shape", DEPTH_SHAPES)
def test_expressions_past_the_depth_cap_are_refused_at_once(shape):
    for depth in (MAX_DEPTH + 1, 10 * MAX_DEPTH):
        start = time.perf_counter()
        with pytest.raises(ExprSyntaxError, match=rf"MAX_DEPTH = {MAX_DEPTH} \(position \d+\)$"):
            compile_fn(DEPTH_SHAPES[shape](depth), ("t",))
        assert time.perf_counter() - start < 1.0


def test_a_power_tower_of_ones_evaluates_at_the_depth_cap():
    assert compile_fn("^".join(["2"] + ["1"] * (MAX_DEPTH - 1)), ())() == 2


def test_exact_power_over_the_bit_budget_is_refused_at_its_call():
    start = time.perf_counter()
    fn = compile_fn("t*2^10^9", ("t",))
    with pytest.raises(PowerTooLarge, match="MAX_POWER_BITS allows"):
        fn(Fraction(1))
    assert time.perf_counter() - start < 1.0


def test_reimporting_the_package_frees_earlier_copies():
    def own(name):
        return name == "tsgronwall" or name.startswith("tsgronwall.")

    saved = {name: module for name, module in sys.modules.items() if own(name)}
    copies = []
    try:
        for _ in range(3):
            for name in [name for name in sys.modules if own(name)]:
                del sys.modules[name]
            copies.append(weakref.ref(importlib.import_module("tsgronwall.exprlang").Lit))
    finally:
        for name in [name for name in sys.modules if own(name)]:
            del sys.modules[name]
        sys.modules.update(saved)
    gc.collect()
    assert [copy() for copy in copies] == [None, None, None]
