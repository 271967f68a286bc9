"""The separable-kernel path against the direct path.

Scenarios come from config.load_scenario, so kernels carry the compiled
factor split exactly as the CLI builds it. Each one runs twice: with a
counting wrapper around the kernel (the separable path when its factors
qualify) and with kernel_terms removed (the direct path). A run that
never calls the kernel took the separable path.
"""

import dataclasses
import random
import warnings
from fractions import Fraction

import pytest

from kernel_reference import reference_equality_case_kernel
from tsgronwall import config
from tsgronwall.bounds import BoundScenario, compute_bound
from tsgronwall.errors import DivisionByZero, NonPositiveA
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
