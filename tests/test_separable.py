"""The separable-kernel path against the direct path.

Scenarios come from config.load_scenario, so kernels carry the compiled
factor split exactly as the CLI builds it. Each one runs twice: with a
counting wrapper around the kernel (the separable path when its factors
qualify) and with kernel_terms removed (the direct path). A run that
never calls the kernel took the separable path.

The last section covers what a scenario keeps: its factor table, read
once for the scenario's life, and its kernel table, with which inside
BoundScenario.shared_kernel_values() every kernel sum on one scenario
reads each kernel value once; outside the block no kernel value is kept.
"""

import dataclasses
import random
import warnings
from fractions import Fraction

import pytest

from kernel_reference import reference_equality_case_kernel
from tsgronwall import config
from tsgronwall.bounds import (
    BoundScenario,
    compute_bound,
    cor31_bound,
    thm2_bound,
    thm4_bound,
)
from tsgronwall.errors import DivisionByZero, KernelDomain, NonPositiveA
from tsgronwall.exprlang import MAX_TERMS, compile_separable, parse, separate, to_source
from tsgronwall.numeric import Mode
from tsgronwall.oracle import equality_case_kernel, random_kernel_scenario

TARGET, SOURCE = ("t", "s"), ("tau", "xi")

# name -> (kernel_g, the path a run that raises nothing takes: "fast",
# "fallback" when the split exists but a factor is negative, "direct"
# when the kernel does not split). A run whose factor raises falls back
# to the direct path, which raises the same error.
KERNELS = {
    "sep-product": ("5/8*tau*xi/50", "fast"),
    "sep-poly": ("3/8/10 + 5/8*t*tau/100 + 1/8*s*xi/100 + 7/8*tau^2*xi/1000", "fast"),
    "sep-factored": ("(3/8 + t + s)*(5/8 + tau*xi)/300", "fast"),
    "product": ("tau*xi", "fast"),
    "negative-factor": ("t*tau - s*xi", "fallback"),
    "phi-divides-by-zero": ("tau*xi/(t - 1)", "fast"),
    "min": ("min(t - tau + 1, s - xi + 1)/30", "direct"),
    "max": ("max(tau*s, t*xi, 1/2)/90", "direct"),
    "sqrt": ("sqrt(t*tau + s*xi + 1)/20", "direct"),
}

# Every window contains the point 1, where "tau*xi/(t - 1)" divides by zero.
INTEGERS = {"kind": "integers", "a": "0", "b": "5"}
SEQUENCE1 = {"kind": "sequence", "t0": "0", "alphas": ["1", "1/2", "1", "3/2", "1/2"]}
SEQUENCE2 = {"kind": "sequence", "t0": "0", "alphas": ["1/2", "1/2", "1", "1/2"]}

F_GRIDS = {
    "positive": "1/8 + t1*t2/16",
    "with-zeros": "max(t1 - 2, 0)*t2/4",
    # zero on the far rows: thm4 and cor31 skip their targets, but the
    # factor tables still cover every source below the last row and column
    "zero-far-rows": "max(3 - t1, 0)*t2/4",
}


def load(theorem, mode, kernel_g, f, p, q, a="1 + t1/2 + t2/4"):
    cor31 = theorem == "cor31"
    doc = {
        "theorem": theorem,
        "mode": mode,
        "scale1": SEQUENCE1 if cor31 else INTEGERS,
        "scale2": SEQUENCE2 if cor31 else dict(INTEGERS, b="4"),
        "a": a,
        "f": f,
        "kernel_g": kernel_g,
        "p": p,
        "q": q,
    }
    return config.load_scenario(doc).bound_scenario


def counting(kernel):
    calls = []

    def wrapped(*args):
        calls.append(args)
        return kernel(*args)

    return wrapped, calls


def outcome(fn, sc):
    """(result, exception, warning messages) of fn(sc)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result, error = fn(sc), None
        except Exception as exc:  # compared by type and message below
            result, error = None, exc
    return result, error, [str(w.message) for w in caught]


def assert_values_match(fast, direct, mode):
    if mode is Mode.EXACT:
        assert fast == direct
        return
    for row_f, row_d in zip(fast, direct, strict=True):
        for x, y in zip(row_f, row_d, strict=True):
            assert abs(x - y) <= 1e-12 * max(abs(x), abs(y)), (x, y)


def run_both(fn, sc):
    """Run fn on the scenario as loaded and on its direct-path copy;
    require the same exception and warnings from both. Returns (fast
    result, direct result, exception, kernel calls the first run made)."""
    kernel, calls = counting(sc.kernel)
    fast, fast_exc, fast_warned = outcome(fn, dataclasses.replace(sc, kernel=kernel))
    direct, direct_exc, direct_warned = outcome(fn, dataclasses.replace(sc, kernel_terms=None))
    assert type(fast_exc) is type(direct_exc)
    assert str(fast_exc) == str(direct_exc)
    assert fast_warned == direct_warned
    return fast, direct, fast_exc, calls


def check_path(expected, calls, error):
    if isinstance(error, DivisionByZero):
        assert calls
    elif error is None:
        assert bool(calls) is (expected != "fast")


CASES = [
    (theorem, mode, name, f_name, p, q)
    for theorem in ("thm2", "thm4", "cor31")
    for mode in ("exact", "float")
    for name in KERNELS
    for f_name in F_GRIDS
    for p, q in (("1", "1"), ("2", "2"), ("2", "1"))
    if not (mode == "exact" and name == "sqrt")
]


@pytest.mark.parametrize("theorem,mode,name,f_name,p,q", CASES)
def test_separable_bound_matches_the_direct_path(theorem, mode, name, f_name, p, q):
    kernel_g, expected = KERNELS[name]
    sc = load(theorem, mode, kernel_g, F_GRIDS[f_name], p, q)
    assert (sc.kernel_terms is None) == (expected == "direct")
    fast, direct, error, calls = run_both(lambda s: compute_bound(theorem, s), sc)
    check_path(expected, calls, error)
    if error is None:
        assert fast.hypotheses == direct.hypotheses
        assert (fast.powered, fast.power) == (direct.powered, direct.power)
        assert_values_match(fast.values, direct.values, sc.mode)
        if sc.mode is Mode.EXACT:
            assert config.report_to_json(fast) == config.report_to_json(direct)


@pytest.mark.parametrize(
    "theorem,mode,name,f_name,p,q", [c for c in CASES if c[0] != "thm2"]
)
def test_separable_equality_case_matches_the_direct_path(theorem, mode, name, f_name, p, q):
    kernel_g, expected = KERNELS[name]
    sc = load(theorem, mode, kernel_g, F_GRIDS[f_name], p, q)
    fast, direct, error, calls = run_both(equality_case_kernel, sc)
    check_path(expected, calls, error)
    if error is None:
        assert_values_match(fast.values, direct.values, sc.mode)


def test_a_factor_error_falls_back_to_the_direct_error():
    sc = load("thm2", "exact", "tau*xi/(t - 1)", "1", "1", "1")
    for fn in (lambda s: compute_bound("thm2", s), equality_case_kernel):
        fast, direct, error, calls = run_both(fn, sc)
        assert isinstance(error, DivisionByZero) and calls


@pytest.mark.parametrize("kernel_g,error_type", [("tau*xi", None), ("1 + tau*xi", NonPositiveA)])
def test_a_negative_power_of_a_zero_offset_falls_back(kernel_g, error_type):
    # a vanishes on both axes. Where the kernel vanishes too (tau*xi), the
    # direct path never takes the negative power of a zero, so the report
    # stands; where it does not, the direct path raises.
    sc = load("thm4", "float", kernel_g, F_GRIDS["positive"], "2", "1", a="t1*t2")
    fast, direct, error, calls = run_both(lambda s: compute_bound("thm4", s), sc)
    assert calls
    if error_type is None:
        assert error is None
        assert fast.hypotheses == direct.hypotheses
        assert_values_match(fast.values, direct.values, sc.mode)
    else:
        assert isinstance(error, error_type) and "negative power" in str(error)


@pytest.mark.parametrize("theorem,flag", [("thm2", False), ("thm4", True), ("cor31", True)])
@pytest.mark.parametrize("kernel_g", ["t - 3/2 + tau*xi", "max(t - 3/2, t - 3/2 + tau*xi)"])
def test_kernel_flag_ignores_targets_with_zero_weight_except_in_thm2(theorem, flag, kernel_g):
    # The kernel is negative only at the targets t = 1, where f = 0. thm2
    # reads the kernel at every target, thm4 and cor31 skip f = 0.
    unit = {"kind": "sequence", "t0": "0", "alphas": ["1"] * 4}
    doc = {
        "theorem": theorem,
        "mode": "exact",
        "scale1": unit,
        "scale2": unit,
        "a": "1",
        "f": "max(t1 - 1, 0)",
        "kernel_g": kernel_g,
    }
    sc = config.load_scenario(doc).bound_scenario
    fast, direct, error, calls = run_both(lambda s: compute_bound(theorem, s), sc)
    assert error is None
    assert fast.hypotheses["kernel_nonnegative"] is flag
    assert direct.hypotheses["kernel_nonnegative"] is flag
    assert fast.values == direct.values
    if sc.kernel_terms is not None:
        check_path("fast" if flag else "fallback", calls, None)


def test_separate_splits_sums_of_one_sided_products():
    def split(source):
        found = separate(parse(source, TARGET + SOURCE), TARGET, SOURCE)
        return None if found is None else [(to_source(p), to_source(q)) for p, q in found]

    assert split("tau*xi") == [("1", "tau*xi")]
    assert split("t*tau - s*xi") == [("t", "tau"), ("-s", "xi")]
    assert split("(1 + t + s)*(2 + tau*xi)/300") == [("(1+t+s)/300", "2+tau*xi")]
    assert split("tau/(t + s)") == [("1/(t+s)", "tau")]
    assert split("-(t + tau)*xi") == [("-t", "xi"), ("-1", "tau*xi")]
    assert split("sqrt(t)*min(tau, xi)") == [("sqrt(t)", "min(tau, xi)")]
    assert split("t*s") == [("t*s", "1")]
    for source in ("min(t, tau)", "sqrt(t*tau)", "(t + tau)^2", "tau/(t + xi)", "t^tau"):
        assert split(source) is None


def test_separate_caps_the_expansion():
    factor = "(t + tau)"
    small = "*".join([factor] * 4)  # 16 terms
    assert len(separate(parse(small, TARGET + SOURCE), TARGET, SOURCE)) == MAX_TERMS == 16
    large = "*".join([factor] * 5)
    assert separate(parse(large, TARGET + SOURCE), TARGET, SOURCE) is None


@pytest.mark.parametrize("mode", [Mode.EXACT, Mode.FLOAT])
def test_compiled_factors_multiply_back_to_the_kernel(mode):
    rng = random.Random(5)
    for source, _ in KERNELS.values():
        terms = compile_separable(source, TARGET, SOURCE, mode)
        if terms is None:
            continue
        kernel = config.parse_kernel(source, mode)
        for _ in range(20):
            # above 1, where "tau*xi/(t - 1)" is defined
            t, s, tau, xi = (Fraction(rng.randint(5, 40), rng.randint(1, 4)) for _ in range(4))
            if mode is Mode.FLOAT:
                t, s, tau, xi = float(t), float(s), float(tau), float(xi)
            total = sum(phi(t, s) * psi(tau, xi) for phi, psi in terms)
            if mode is Mode.EXACT:
                assert total == kernel(t, s, tau, xi)
            else:
                assert total == pytest.approx(kernel(t, s, tau, xi), rel=1e-12, abs=0)


def test_python_kernels_keep_the_direct_path():
    sc = random_kernel_scenario(random.Random(0), max_window=4)
    assert sc.kernel_terms is None
    plain = BoundScenario(a=sc.a, f=sc.f, kernel=lambda t1, t2, s1, s2: s1 * s2)
    assert plain.kernel_terms is None


def _python_kernel(t1, t2, s1, s2):
    return (t1 + 1) * s2 / 8 + s1 * t2 / 16 + t1 * t2 * s1 * s2 / 64


# name -> target-dependent kernel: an expression that splits, one that
# does not, or a Python callable (which has no split).
REFERENCE_KERNELS = {
    "separable": "(1 + t*s/8)*(1/2 + tau*xi/16) + t*xi/32",
    "non-separable": "max(t - tau, s*xi/4) + 1/8",
    "python": _python_kernel,
}


@pytest.mark.parametrize("theorem,mode,p,q", [
    ("thm2", "exact", "1", "1"),
    ("thm2", "float", "1", "1"),
    ("thm4", "exact", "2", "2"),
    ("thm4", "float", "2", "1"),
    ("cor31", "exact", "1", "1"),
    ("cor31", "float", "3", "2"),
])
@pytest.mark.parametrize("name", sorted(REFERENCE_KERNELS))
@pytest.mark.parametrize("f_name", sorted(F_GRIDS))
def test_equality_case_matches_the_brute_force_reference(theorem, mode, p, q, name, f_name):
    kernel = REFERENCE_KERNELS[name]
    if callable(kernel):
        sc = load(theorem, mode, "1", F_GRIDS[f_name], p, q)
        sc = dataclasses.replace(sc, kernel=kernel, kernel_terms=None)
    else:
        sc = load(theorem, mode, kernel, F_GRIDS[f_name], p, q)
        assert (sc.kernel_terms is not None) == (name == "separable")
    solved = equality_case_kernel(sc).values
    reference = reference_equality_case_kernel(sc)
    if sc.mode is Mode.EXACT:
        assert solved == tuple(tuple(row) for row in reference)
    else:
        assert_values_match(solved, reference, sc.mode)


# -- the scenario's kernel table ----------------------------------------


def _pairs(sc):
    n1, n2 = sc.a.shape
    return n1 * (n1 - 1) // 2 * (n2 * (n2 - 1) // 2)


def _python_scenario(theorem, mode, kernel, f=F_GRIDS["positive"], p="1", q="1",
                     a="1 + t1/2 + t2/4"):
    """A scenario of `load` with a Python kernel, so the direct path."""
    sc = load(theorem, mode, "1", f, p, q, a=a)
    return dataclasses.replace(sc, kernel=kernel, kernel_terms=None)


@pytest.mark.parametrize("theorem,readers", [
    ("thm2", (thm2_bound, equality_case_kernel)),
    ("cor31", (equality_case_kernel, cor31_bound, thm4_bound)),
])
@pytest.mark.parametrize("f_name", sorted(F_GRIDS))
def test_each_kernel_value_is_evaluated_once_per_scenario(theorem, readers, f_name):
    kernel, calls = counting(_python_kernel)
    sc = _python_scenario(theorem, "exact", kernel, f=F_GRIDS[f_name])
    with sc.shared_kernel_values():
        for read in readers:
            read(sc)
        assert sc._kernel_table
    assert len(calls) == len(set(calls)) == _pairs(sc)
    assert sc._kernel_table is None


@pytest.mark.parametrize("readers", [(thm2_bound,), (thm2_bound, equality_case_kernel)])
def test_outside_the_block_each_kernel_sum_reads_afresh_and_keeps_nothing(readers):
    kernel, calls = counting(_python_kernel)
    sc = _python_scenario("thm2", "exact", kernel)
    for read in readers:
        read(sc)
        assert sc._kernel_table is None
    assert len(calls) == len(readers) * _pairs(sc)


def test_the_block_drops_its_table_on_exit():
    kernel, calls = counting(_python_kernel)
    sc = _python_scenario("thm2", "exact", kernel)
    with pytest.raises(RuntimeError):
        with sc.shared_kernel_values() as shared:
            assert shared is sc
            thm2_bound(sc)
            equality_case_kernel(sc)
            assert sc._kernel_table
            raise RuntimeError
    assert sc._kernel_table is None
    assert len(calls) == _pairs(sc)
    with sc.shared_kernel_values():
        thm2_bound(sc)
    assert len(calls) == 2 * _pairs(sc)


def _counted_terms(sc):
    """The scenario with each factor counted; a call is recorded as
    (term, side, arguments), so repeated evaluations show as duplicates."""
    calls = []

    def counted(factor, key):
        def wrapped(*args):
            calls.append((key, args))
            return factor(*args)
        return wrapped

    terms = tuple(
        (counted(phi, (k, 0)), counted(psi, (k, 1)))
        for k, (phi, psi) in enumerate(sc.kernel_terms)
    )
    return dataclasses.replace(sc, kernel_terms=terms), calls


@pytest.mark.parametrize("theorem,f,p,readers", [
    ("thm2", "1/1000", "1", (thm2_bound, equality_case_kernel)),
    # thm4 and cor31 skip the f = 0 targets; the equality case reads them.
    ("thm4", "max(t1 - 2, 0)/1000", "2", (thm4_bound, equality_case_kernel)),
    ("cor31", "max(t1 - 2, 0)/1000", "1", (cor31_bound, equality_case_kernel, thm4_bound)),
])
@pytest.mark.parametrize("name", ["sep-poly", "negative-factor"])
def test_factor_tables_are_built_once_per_scenario(theorem, f, p, readers, name):
    # negative-factor keeps its None: the fallback is decided once, and
    # the direct path then reads each kernel value once too.
    sc, calls = _counted_terms(load(theorem, "exact", KERNELS[name][0], f, p, p))
    kernel, kernel_calls = counting(sc.kernel)
    sc = dataclasses.replace(sc, kernel=kernel)
    with sc.shared_kernel_values():
        for read in readers:
            read(sc)
        assert sc._factor_table is sc._factor_table
    assert calls and len(calls) == len(set(calls))
    assert len(kernel_calls) == len(set(kernel_calls))
    assert len(kernel_calls) == (_pairs(sc) if KERNELS[name][1] == "fallback" else 0)


def _bits(values, mode):
    """Values as compared here: exact ones as they are, floats bit for bit."""
    if mode is Mode.EXACT:
        return values
    return tuple(tuple(v.hex() for v in row) for row in values)


@pytest.mark.parametrize("theorem,mode,p,q,name", [
    (theorem, mode, p, q, name)
    for theorem, p, q in (("thm2", "1", "1"), ("thm4", "2", "2"), ("cor31", "1", "1"))
    for mode in ("exact", "float")
    for name in ("min", "max", "sqrt")
    if not (mode == "exact" and name == "sqrt")
] + [("thm4", "float", "2", "1", name) for name in ("min", "max", "sqrt")])
@pytest.mark.parametrize("f_name", sorted(F_GRIDS))
def test_shared_table_gives_the_values_and_flags_of_fresh_scenarios(
    theorem, mode, p, q, name, f_name
):
    kernel_g = KERNELS[name][0]

    def fresh():
        return load(theorem, mode, kernel_g, F_GRIDS[f_name], p, q)

    shared = fresh()
    assert shared.kernel_terms is None
    steps = [equality_case_kernel, lambda s: compute_bound(theorem, s)]
    if theorem == "cor31":
        steps.append(thm4_bound)
    with shared.shared_kernel_values():
        for order in (steps, steps[::-1]):
            for step in order:
                got, want = step(shared), step(fresh())
                assert _bits(got.values, shared.mode) == _bits(want.values, shared.mode)
                if hasattr(got, "hypotheses"):
                    assert got.hypotheses == want.hypotheses


def test_a_stored_negative_value_at_a_zero_weight_target_leaves_thm4_nonnegative():
    # The kernel is negative only at the targets t = 1, where f = 0. The
    # equality case reads them and stores the values; thm4 skips those
    # targets, thm2 does not.
    unit = {"kind": "sequence", "t0": "0", "alphas": ["1"] * 4}
    doc = {
        "theorem": "thm4", "mode": "exact", "scale1": unit, "scale2": unit,
        "a": "1", "f": "max(t1 - 1, 0)", "kernel_g": "max(t - 3/2, t - 3/2 + tau*xi)",
    }
    sc = config.load_scenario(doc).bound_scenario
    assert sc.kernel_terms is None
    with sc.shared_kernel_values():
        equality_case_kernel(sc)
        assert thm4_bound(sc).hypotheses["kernel_nonnegative"] is True
        assert cor31_bound(sc).hypotheses["kernel_nonnegative"] is True
        assert thm2_bound(sc).hypotheses["kernel_nonnegative"] is False
        assert thm4_bound(sc).hypotheses["kernel_nonnegative"] is True


def test_a_kernel_error_mid_target_leaves_no_entry_and_repeats():
    bad = (3, 2, 1, 0)  # target (3, 2), its third source

    def kernel(*args):
        if args == bad:
            raise KernelDomain("no value at (3, 2, 1, 0)")
        return _python_kernel(*args)

    sc = _python_scenario("thm2", "exact", kernel)
    errors = []
    with sc.shared_kernel_values():
        for _ in range(2):
            with pytest.raises(KernelDomain) as caught:
                thm2_bound(sc)
            errors.append(str(caught.value))
            assert (3, 2) not in sc._kernel_table
            assert (3, 1) in sc._kernel_table
    assert errors == ["no value at (3, 2, 1, 0)"] * 2


def test_a_missing_coefficient_raises_before_a_later_kernel_error():
    # Float thm4 with p = 2, q = 1 and a = 0 at the source (0, 0) only:
    # that source has no coefficient. At the target (2, 2) the kernel is
    # nonzero there and raises at the next source, (0, 1).
    def kernel(t1, t2, s1, s2):
        if (t1, t2) != (2.0, 2.0):
            return 0.0
        if (s1, s2) == (0.0, 1.0):
            raise KernelDomain("no value at (2, 2, 0, 1)")
        return 1.0

    def scenario():
        return _python_scenario("thm4", "float", kernel, p="2", q="1", a="t1 + t2")

    for sc in (scenario(), scenario()):
        with pytest.raises(NonPositiveA, match="negative power"):
            thm4_bound(sc)
        with sc.shared_kernel_values():
            with pytest.raises(NonPositiveA, match="negative power"):
                thm4_bound(sc)
            assert (2, 2) not in sc._kernel_table
    # Read back from the table, the values raise the same error.
    sc = scenario()
    sc = dataclasses.replace(sc, kernel=lambda t1, t2, s1, s2: 1.0)
    with sc.shared_kernel_values():
        thm2_bound(sc)
        assert (2, 2) in sc._kernel_table
        with pytest.raises(NonPositiveA, match="negative power"):
            thm4_bound(sc)


def test_the_table_is_not_part_of_the_scenario_value():
    kernel, calls = counting(_python_kernel)
    sc = _python_scenario("thm2", "exact", kernel)
    twin = dataclasses.replace(sc)
    before = repr(sc)

    def doubled(*args):
        return 2 * _python_kernel(*args)

    other, other_calls = counting(doubled)
    with sc.shared_kernel_values():
        thm2_bound(sc)
        assert sc._kernel_table and twin._kernel_table is None
        assert sc == twin and hash(sc) == hash(twin) and repr(sc) == before == repr(twin)
        swapped = dataclasses.replace(sc, kernel=other)
        assert swapped._kernel_table is None
        with swapped.shared_kernel_values():
            assert not swapped._kernel_table
            swapped_values = thm2_bound(swapped).values
    assert "_kernel_table" not in before
    fresh = _python_scenario("thm2", "exact", doubled)
    assert swapped_values == thm2_bound(fresh).values
    assert len(other_calls) == _pairs(sc)
    with pytest.raises(TypeError):
        BoundScenario(a=sc.a, f=sc.f, _kernel_table={})
