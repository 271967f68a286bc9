import dataclasses
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import tsgronwall
from tsgronwall import config
from tsgronwall.bounds import MAX_DIRECT_KERNEL_PAIRS, kernel_generator
from tsgronwall.cli import main
from tsgronwall.errors import ConfigError
from tsgronwall.numeric import Mode


EXAMPLE_TABLE = {
    "points1": ["0", "1", "2"],
    "points2": ["0", "1"],
    "rows": [["1/4", "1/2"], ["1/5", "0"], ["1", "5"]],
}

EXAMPLE_CONFIG = {
    "theorem": "thm1-in2",
    "mode": "exact",
    "scale1": {"kind": "integers", "h": "1", "a": "0", "b": "3"},
    "scale2": {"kind": "integers", "h": "1", "a": "0", "b": "2"},
    "a": "1",
    "f": {"table": EXAMPLE_TABLE},
}


def write_config(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_parse_timescale_kinds():
    ts = config.parse_timescale({"kind": "integers", "h": "1", "a": "0", "b": "4"}, Mode.EXACT)
    assert ts.points == (0, 1, 2, 3, 4)
    ts = config.parse_timescale({"kind": "qscale", "q": "2", "t0": "1", "k_max": 5}, Mode.EXACT)
    assert ts.points[-1] == 32
    ts = config.parse_timescale(
        {"kind": "sequence", "t0": "0", "alphas": ["1/4", "1/2"]}, Mode.EXACT
    )
    assert ts.points == (0, Fraction(1, 4), Fraction(3, 4))
    ts = config.parse_timescale(
        {"kind": "sample", "left": "0", "step": "1/64", "count": 65}, Mode.FLOAT
    )
    assert len(ts.points) == 65 and ts.approximate


def test_parse_timescale_errors():
    with pytest.raises(ConfigError):
        config.parse_timescale({"kind": "spiral"}, Mode.EXACT)
    with pytest.raises(ConfigError):
        config.parse_timescale({"kind": "integers", "a": "0", "b": "4", "h": "-1"}, Mode.EXACT)
    with pytest.raises(ConfigError):
        config.parse_timescale(
            {"kind": "sample", "left": "0", "step": "1/64", "count": 65}, Mode.EXACT
        )
    with pytest.raises(ConfigError):
        config.parse_timescale({"kind": "qscale", "q": "2"}, Mode.EXACT)


def test_parse_grid_from_table_defaults_unlisted_points_to_zero():
    ts1 = config.parse_timescale({"kind": "integers", "a": "0", "b": "3"}, Mode.EXACT)
    ts2 = config.parse_timescale({"kind": "integers", "a": "0", "b": "2"}, Mode.EXACT)
    grid = config.parse_grid({"table": EXAMPLE_TABLE}, ts1, ts2, Mode.EXACT)
    assert grid.value(0, 0) == Fraction(1, 4)
    assert grid.value(2, 1) == 5
    assert grid.value(3, 2) == 0  # not in the table


def test_parse_grid_rejects_foreign_table_points_and_bad_shapes():
    ts1 = config.parse_timescale({"kind": "integers", "a": "0", "b": "3"}, Mode.EXACT)
    ts2 = config.parse_timescale({"kind": "integers", "a": "0", "b": "2"}, Mode.EXACT)
    bad_point = {"points1": ["9"], "points2": ["0"], "rows": [["1"]]}
    with pytest.raises(ConfigError):
        config.parse_grid({"table": bad_point}, ts1, ts2, Mode.EXACT)
    bad_shape = {"points1": ["0", "1"], "points2": ["0"], "rows": [["1"]]}
    with pytest.raises(ConfigError):
        config.parse_grid({"table": bad_shape}, ts1, ts2, Mode.EXACT)
    with pytest.raises(ConfigError):
        config.parse_grid(42, ts1, ts2, Mode.EXACT)


def test_parse_grid_rejects_bad_expressions():
    ts1 = config.parse_timescale({"kind": "integers", "a": "0", "b": "2"}, Mode.EXACT)
    with pytest.raises(ConfigError):
        config.parse_grid("t1+", ts1, ts1, Mode.EXACT)
    with pytest.raises(ConfigError):
        config.parse_grid("u", ts1, ts1, Mode.EXACT)


def test_load_scenario_validations():
    with pytest.raises(ConfigError):
        config.load_scenario({**EXAMPLE_CONFIG, "theorem": "thm9"})
    missing_kernel = {**EXAMPLE_CONFIG, "theorem": "thm2"}
    with pytest.raises(ConfigError):
        config.load_scenario(missing_kernel)
    bad_powers = {**EXAMPLE_CONFIG, "p": "1", "q": "2"}
    with pytest.raises(ConfigError):
        config.load_scenario(bad_powers)


def test_load_scenario_with_kernel_and_powers():
    doc = {
        **EXAMPLE_CONFIG,
        "theorem": "thm4",
        "kernel_g": "tau*xi+1",
        "p": "2",
        "q": "2",
    }
    scenario = config.load_scenario(doc)
    assert scenario.theorem == "thm4"
    assert scenario.bound_scenario.kernel(2, 2, Fraction(3), Fraction(4)) == 13


def test_cmd_bound_reproduces_the_example_factor(tmp_path, capsys):
    path = write_config(tmp_path, EXAMPLE_CONFIG)
    out = tmp_path / "report.json"
    assert main(["bound", str(path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["theorem"] == "thm1-in2"
    assert payload["certified"] is True
    assert payload["bounds"][2][1] == "3/2"
    assert payload["bounds"][3][2] == "147/10"
    assert payload["oracle"] is None
    assert payload["sharpness"] is None


def refuse_non_finite(name):
    raise ValueError(f"non-finite number {name} in output")


OVERFLOW_WINDOW = {"kind": "integers", "a": "0", "b": "40"}
OVERFLOW_CONFIG = {"theorem": "thm1-in2", "mode": "float", "scale1": OVERFLOW_WINDOW,
                   "scale2": OVERFLOW_WINDOW, "a": "1", "f": "10^300"}


def test_cmd_bound_overflow_is_valid_json_and_not_dominated(tmp_path, capsys):
    # f = 10^300 on 41 x 41 points overflows: bounds go to inf and the
    # equality case to nan. That proves no domination, and JSON has no
    # inf or nan, so they are written as strings. Every hypothesis holds,
    # but an overflowed float report is not certified: the exit is 2.
    doc = {**OVERFLOW_CONFIG, "oracle": True}
    assert main(["bound", str(write_config(tmp_path, doc))]) == 2
    payload = json.loads(capsys.readouterr().out, parse_constant=refuse_non_finite)
    assert payload["certified"] is False
    assert all(payload["hypotheses"].values())
    assert payload["oracle"]["dominated"] is False
    assert payload["oracle"]["worst_margin"] == "-inf"
    assert payload["bounds"][40][40] == "inf"
    assert "nan" in payload["oracle"]["u_star"][40]


def test_cmd_bound_overflow_without_oracle_is_not_certified(tmp_path, capsys):
    assert main(["bound", str(write_config(tmp_path, OVERFLOW_CONFIG))]) == 2
    payload = json.loads(capsys.readouterr().out, parse_constant=refuse_non_finite)
    assert payload["certified"] is False
    assert all(payload["hypotheses"].values())
    assert payload["bounds"][40][40] == "inf"


@pytest.mark.parametrize("scale", [
    {"kind": "integers", "a": "0", "b": "1e9"},
    {"kind": "qscale", "q": "2", "t0": "1", "k_max": 10**9},
    {"kind": "sample", "left": "0", "step": "1", "count": 10**9},
    {"kind": "sequence", "alphas": ["1"] * 10_000},
], ids=lambda scale: scale["kind"])
def test_cmd_bound_refuses_an_oversized_window_at_once(tmp_path, capsys, scale):
    doc = {**EXAMPLE_CONFIG, "mode": "float", "scale1": scale, "f": "1"}
    start = time.perf_counter()
    assert main(["bound", str(write_config(tmp_path, doc))]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("config error: bad ") and "MAX_WINDOW_POINTS allows 10000" in err


def run_refused(tmp_path, capsys, doc):
    """Run `bound` on doc; it must exit 1 within 1 s. Returns stderr."""
    path = write_config(tmp_path, doc)
    start = time.perf_counter()
    assert main(["bound", str(path)]) == 1
    assert time.perf_counter() - start < 1.0
    return capsys.readouterr().err


def test_cmd_bound_refuses_an_expression_nested_past_the_cap(tmp_path, capsys):
    doc = {**EXAMPLE_CONFIG, "theorem": "thm2", "kernel_g": "(" * 300 + "tau" + ")" * 300}
    err = run_refused(tmp_path, capsys, doc)
    assert err.startswith("config error: bad kernel expression ")
    assert "MAX_DEPTH = 100" in err


@pytest.mark.parametrize("key, value, prefix", [
    ("a", "2^10^9", "config error: bad grid expression "),
    ("kernel_g", "tau*2^10^9", "error: "),
])
def test_cmd_bound_refuses_an_exact_power_over_the_bit_budget(tmp_path, capsys, key, value, prefix):
    doc = {**EXAMPLE_CONFIG, "theorem": "thm2", "kernel_g": "tau*xi", key: value}
    tracemalloc.start()
    try:
        err = run_refused(tmp_path, capsys, doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.startswith(prefix)
    assert "exact power needs about 1000000000 bits; MAX_POWER_BITS allows 1048576" in err
    assert peak < 10**9 // 8 // 100  # far below the 10^9 bits asked for


LARGE_WINDOW = {"kind": "integers", "a": "0", "b": "299"}
LARGE_KERNEL_CONFIG = {"theorem": "thm2", "mode": "float", "scale1": LARGE_WINDOW,
                       "scale2": LARGE_WINDOW, "a": "1", "f": "1/1000",
                       "kernel_g": "min(t, tau) + xi"}


def test_cmd_bound_refuses_a_direct_kernel_sum_over_the_pair_cap(tmp_path, capsys):
    err = run_refused(tmp_path, capsys, LARGE_KERNEL_CONFIG)
    pairs = (300 * 299 // 2) ** 2
    assert err == (
        f"error: the direct kernel sum on 300 x 300 points reads {pairs} target-source "
        f"pairs; MAX_DIRECT_KERNEL_PAIRS allows {MAX_DIRECT_KERNEL_PAIRS}\n"
    )


def test_the_pair_cap_leaves_a_separable_kernel_alone():
    sc = config.load_scenario({**LARGE_KERNEL_CONFIG, "kernel_g": "tau*xi"}).bound_scenario
    generator = kernel_generator(sc, [([sc.ts2.graininesses()] * 299, False, {})])
    assert generator(2, 2, 1.0) == [[0.0, 1.0]]  # tau*xi summed over xi in {0, 1}


def test_cmd_bound_with_oracle_block(tmp_path):
    doc = {**EXAMPLE_CONFIG, "theorem": "best-linear", "oracle": True}
    out = tmp_path / "report.json"
    assert main(["bound", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["oracle"]["dominated"] is True
    assert payload["sharpness"][2][1] == "in6"
    assert payload["oracle"]["u_star"][2][1] == "29/20"


@pytest.mark.parametrize("oracle", [True, False])
def test_cmd_bound_reads_each_kernel_value_once(tmp_path, monkeypatch, capsys, oracle):
    # A kernel that does not split, so the direct path: with the oracle,
    # the equality case reads the bound's values from the shared table.
    doc = {
        **EXAMPLE_CONFIG, "theorem": "thm2", "f": "1/8 + t1*t2/16",
        "scale1": {"kind": "integers", "a": "0", "b": "5"},
        "scale2": {"kind": "integers", "a": "0", "b": "4"},
        "kernel_g": "min(t - tau + 1, s - xi + 1)/30", "oracle": oracle,
    }
    calls = []
    load = config.load_scenario

    def counted_load(*args, **kwargs):
        scenario = load(*args, **kwargs)
        sc = scenario.bound_scenario
        assert sc.kernel_terms is None

        def counted(*point):
            calls.append(point)
            return sc.kernel(*point)

        return dataclasses.replace(scenario, bound_scenario=dataclasses.replace(sc, kernel=counted))

    monkeypatch.setattr(config, "load_scenario", counted_load)
    assert main(["bound", str(write_config(tmp_path, doc))]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["oracle"] is not None) is oracle
    assert len(calls) == len(set(calls)) == (6 * 5 // 2) * (5 * 4 // 2)


def test_cmd_bound_zero_weight_equals_the_offset(tmp_path):
    doc = {**EXAMPLE_CONFIG, "f": "0", "a": "t1+t2+1"}
    out = tmp_path / "report.json"
    assert main(["bound", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    for i, t1 in enumerate((0, 1, 2, 3)):
        for j, t2 in enumerate((0, 1, 2)):
            assert payload["bounds"][i][j] == str(t1 + t2 + 1)


def test_cmd_bound_flags_non_monotone_offset(tmp_path):
    doc = {**EXAMPLE_CONFIG, "a": "10-t1"}
    out = tmp_path / "report.json"
    assert main(["bound", str(write_config(tmp_path, doc)), "--out", str(out)]) == 2
    payload = json.loads(out.read_text())
    assert payload["certified"] is False
    assert payload["hypotheses"]["a_nondecreasing"] is False


def test_cmd_bound_csv_output(tmp_path):
    path = write_config(tmp_path, EXAMPLE_CONFIG)
    out = tmp_path / "report.csv"
    assert main(["bound", str(path), "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].split(",") == ["t1\\t2", "0", "1", "2"]
    assert lines[3].split(",")[0] == "2"
    assert lines[3].split(",")[2] == "3/2"


def test_cmd_bound_reports_are_byte_stable(tmp_path):
    path = write_config(tmp_path, EXAMPLE_CONFIG)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["bound", str(path), "--out", str(out1)]) == 0
    assert main(["bound", str(path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cmd_bound_config_error_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, {"theorem": "thm1-in2"})
    assert main(["bound", str(path)]) == 1
    assert "config error" in capsys.readouterr().err


def test_cmd_bound_mode_override(tmp_path):
    doc = {**EXAMPLE_CONFIG, "a": "1"}
    out = tmp_path / "report.json"
    path = write_config(tmp_path, doc)
    assert main(["bound", str(path), "--mode", "float", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["mode"] == "float"
    assert payload["bounds"][2][1] == 1.5


def test_cmd_verify_small_campaign(tmp_path, capsys):
    assert main(["verify", "--theorem", "thm1", "--cases", "5", "--seed", "7"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["failures"] == 0
    assert payload["cases"] == 5
    assert payload["seed"] == 7


def test_cmd_verify_zero_cases(capsys):
    assert main(["verify", "--theorem", "thm3", "--cases", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cases"] == 0
    assert payload["worst_margin"] is None


def test_cmd_verify_output_is_stable(capsys):
    assert main(["verify", "--theorem", "thm2", "--cases", "3", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--theorem", "thm2", "--cases", "3", "--seed", "5"]) == 0
    assert capsys.readouterr().out == first


def run_cli(*argv):
    """The CLI as its own process, so a crash shows as a traceback."""
    env = dict(os.environ)
    src = str(Path(tsgronwall.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "tsgronwall", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


@pytest.mark.parametrize("argv, named", [
    (("verify", "--theorem", "thm2", "--cases", "-1"), "argument --cases"),
    (("verify", "--theorem", "thm2", "--max-window", "1"), "argument --max-window"),
    (("verify", "--theorem", "thm4", "--cases", "1", "--max-window", "100000"),
     "argument --max-window"),
    (("verify", "--theorem", "thm9"), "argument --theorem"),
    (("bound",), "config"),
], ids=["negative-cases", "window-too-small", "window-too-large", "unknown-theorem",
        "bound-without-path"])
def test_usage_errors_exit_1_without_a_traceback(argv, named):
    done = run_cli(*argv)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stdout == ""
    assert named in done.stderr.strip().splitlines()[-1]


def test_help_still_exits_0():
    done = run_cli("verify", "--help")
    assert done.returncode == 0
    assert "--max-window" in done.stdout


def test_max_window_at_the_window_cap_is_accepted(capsys):
    assert main(["verify", "--theorem", "thm1", "--cases", "0", "--max-window", "10000"]) == 0
    assert json.loads(capsys.readouterr().out)["cases"] == 0


@pytest.mark.parametrize("theorem, window", [("thm2", 200), ("thm4", 54), ("cor31", 54)])
def test_kernel_campaigns_refuse_a_window_past_the_pair_cap_at_once(capsys, theorem, window):
    start = time.perf_counter()
    assert main(["verify", "--theorem", theorem, "--cases", "3", "--max-window", str(window)]) == 1
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.endswith("the largest side it allows is 53\n")


@pytest.mark.parametrize("theorem, window", [
    ("thm2", 53), ("thm4", 53), ("cor31", 53), ("thm1", 200), ("thm3", 200),
])
def test_only_kernel_campaigns_are_capped_by_the_pair_cap(capsys, theorem, window):
    assert main(["verify", "--theorem", theorem, "--cases", "0", "--max-window", str(window)]) == 0
    assert json.loads(capsys.readouterr().out)["cases"] == 0


IBVP_CONFIG = {
    "g": "t1",
    "h": "t2^2",
    "F": "t2*u",
    "scale1": {"kind": "integers", "h": "1", "a": "0", "b": "7"},
    "scale2": {"kind": "integers", "h": "1", "a": "0", "b": "7"},
}


@pytest.mark.parametrize("command, doc", [
    ("bound", {**EXAMPLE_CONFIG, "kernel_g": None}),
    ("bound", {**EXAMPLE_CONFIG, "theorem": "thm2", "kernel_g": 3}),
    ("ibvp", {**IBVP_CONFIG, "g": None}),
    ("ibvp", {**IBVP_CONFIG, "h": 3}),
    ("ibvp", {**IBVP_CONFIG, "F": ["t2*u"]}),
    ("bound", {**EXAMPLE_CONFIG, "mode": "float", "p": "1e999"}),
    ("bound", {**EXAMPLE_CONFIG, "mode": "float", "a": "1" + "0" * 400}),
    ("bound", {**EXAMPLE_CONFIG, "scale1": {"kind": "qscale", "q": "2", "t0": "1",
                                            "k_max": float("inf")}}),
], ids=["kernel_g-null", "kernel_g-number", "ibvp-g-null", "ibvp-h-number", "ibvp-F-list",
        "float-p-past-range", "float-literal-past-range", "k_max-infinite"])
def test_malformed_fields_are_config_errors(tmp_path, capsys, command, doc):
    assert main([command, str(write_config(tmp_path, doc))]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith("config error:")


QSCALE = {"kind": "qscale", "q": "2", "t0": "1", "k_max": 3}


@pytest.mark.parametrize("command, doc, message", [
    ("bound", {**EXAMPLE_CONFIG, "theorem": "best-linear", "orcale": True},
     "unknown key 'orcale' in a scenario; allowed keys: theorem, mode, scale1, scale2, a, f, "
     "kernel_g, p, q, oracle"),
    ("bound", {**EXAMPLE_CONFIG, "theorem": "thm2", "kernel_g": "tau*xi", "kernal_g": "1"},
     "unknown key 'kernal_g' in a scenario; "),
    ("bound", {**EXAMPLE_CONFIG, "oracle": "false"}, "'oracle' must be true or false, got 'false'"),
    ("bound", {**EXAMPLE_CONFIG, "oracle": 1}, "'oracle' must be true or false, got 1"),
    ("bound", {**EXAMPLE_CONFIG, "scale1": {**QSCALE, "k_max": 3.7}},
     "'k_max' must be a JSON integer, got 3.7"),
    ("bound", {**EXAMPLE_CONFIG, "scale1": {**QSCALE, "k_max": True}},
     "'k_max' must be a JSON integer, got True"),
    ("bound", {**EXAMPLE_CONFIG, "mode": "float", "scale1": {
        "kind": "sample", "left": "0", "step": "1", "count": "4"}},
     "'count' must be a JSON integer, got '4'"),
    ("bound", {**EXAMPLE_CONFIG, "scale2": {**EXAMPLE_CONFIG["scale2"], "step": "1"}},
     "unknown key 'step' in a scale of kind 'integers'; allowed keys: kind, h, a, b"),
    ("bound", {**EXAMPLE_CONFIG, "f": {"table": EXAMPLE_TABLE, "default": "1"}},
     "unknown key 'default' in a grid; allowed keys: table"),
    ("bound", {**EXAMPLE_CONFIG, "f": {"table": {**EXAMPLE_TABLE, "cols": []}}},
     "unknown key 'cols' in a table; allowed keys: points1, points2, rows"),
    ("ibvp", {**IBVP_CONFIG, "mode": "float"},
     "unknown key 'mode' in an ibvp document; allowed keys: scale1, scale2, g, h, F"),
], ids=["orcale", "kernal_g", "oracle-string", "oracle-number", "k_max-fraction", "k_max-true",
        "count-string", "scale-extra-key", "grid-extra-key", "table-extra-key", "ibvp-extra-key"])
def test_what_no_reader_reads_is_a_config_error(tmp_path, capsys, command, doc, message):
    # Each of these ran at one time, ignoring the key or misreading the
    # value: a typo silently turned the oracle off, "false" turned it on,
    # and 3.7 built the window of k_max = 3.
    assert main([command, str(write_config(tmp_path, doc))]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.strip().splitlines()[-1].startswith("config error: " + message)


def test_cmd_ibvp_solves_and_checks(tmp_path):
    out = tmp_path / "ibvp.json"
    path = write_config(tmp_path, IBVP_CONFIG, "ibvp.json.in")
    assert main(["ibvp", str(path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["dominated"] is True
    assert payload["solution"][0][2] == 2.0  # sqrt(h(2)) on the t1 = 0 edge
    assert payload["margins"][0][0] == 0.0
    assert len(payload["estimate"]) == 8


def test_cmd_ibvp_csv_sections(tmp_path, capsys):
    path = write_config(tmp_path, IBVP_CONFIG, "ibvp.json.in")
    assert main(["ibvp", str(path), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "# solution" in out and "# estimate" in out and "# margins" in out


def test_cmd_ibvp_negative_control(tmp_path, capsys):
    doc = {**IBVP_CONFIG, "F": "2*t2*u"}
    path = write_config(tmp_path, doc, "bad.json")
    assert main(["ibvp", str(path)]) == 2
    assert "hypothesis violated" in capsys.readouterr().err


def test_cmd_example31_output_and_determinism(capsys):
    assert main(["example31"]) == 0
    first = capsys.readouterr().out
    assert "(2,1): in2=3/2 in6=29/20" in first
    assert "(3,2): in2=147/10 in6=637/40" in first
    assert "all factors match" in first
    assert main(["example31"]) == 0
    assert capsys.readouterr().out == first
