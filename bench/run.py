"""End-to-end benchmark of the tsgronwall CLI, with an optional traced run.

    python3 bench/run.py --workload kernel|sweep_campaign|all --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory and nowhere else. One op is one in-process
``tsgronwall.cli.main([...])`` call with stdout and stderr captured, sent
in a closed loop by a single client (the next op starts when the previous
one returns; no extra threads or processes). Set-up imports the package
and writes the workload's inputs, made from ``--seed``, under
``.bench_out/``. It runs once before the first op and, in a fresh module
table, is timed again before every round, outside the op timings, so its
samples spread over the run like the ops do; ``setup_s`` is their median.

``--trace 0`` loops over the workload's op cycle until the summed op time
reaches ``--seconds`` and at least ``MIN_OPS`` ops ran, stopping only at a
round boundary, and reports the end-to-end metrics. A host-speed probe
(hostspeed.py) runs before every op, outside the op timings, and every
reported time is normalised by the run's mean probe time, so that the
shared host's drift in speed cancels; the run record keeps the times as
measured too. ``--trace 1`` runs a fixed op set (``TRACE_ROUNDS``;
``--seconds`` does not apply) four times: plain, traced, plain, traced.
It reports the per-layer metrics of the traced passes and their cost
over the plain ones, checks that their deterministic counts agree, and
writes the spans to ``.bench_out/``.
``--workload all`` runs every workload, one after the other.

Every op's output is checked (see checks.py). The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it list the metrics with units and a run record (seed,
commit, Python, nproc, CPU model). The exit code is 0 whenever a result
is printed, and 2 when the checkout holds no package to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
PACKAGE = "tsgronwall"

sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
# At least ten samples beyond the p90.
MIN_OPS = 100
# A run stops issuing ops after this much wall time whatever else holds,
# so it always ends well inside the 180 s a run may take.
WALL_CAP_S = 150.0
# Rounds in the traced run's fixed op set; its four passes send at
# least MIN_OPS ops in all.
TRACE_ROUNDS = {"kernel": 2, "sweep_campaign": 1}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> the span groups (see tracing.SPAN_GROUPS) whose
# self time or call count it sums; COUNTER_METRICS are read as counted.
SELF_TIME_METRICS = {
    "exprlang.self_s": ("exprlang.grid", "exprlang.kernel", "exprlang.ibvp"),
    "exprlang.grid.self_s": ("exprlang.grid",),
    "exprlang.kernel.self_s": ("exprlang.kernel",),
    "exprlang.ibvp.self_s": ("exprlang.ibvp",),
    "bounds.self_s": ("bounds",),
    "oracle.equality_case.self_s": ("oracle.equality_case",),
    "oracle.check_domination.self_s": ("oracle.check_domination",),
    "oracle.campaign.self_s": ("oracle.campaign",),
    "timescale.exp_prefix.self_s": ("timescale.exp_prefix",),
    "grid2.build.self_s": ("grid2.build",),
    "grid2.monotone_flags.self_s": ("grid2.monotone_flags",),
    "ibvp.solve.self_s": ("ibvp.solve",),
    "ibvp.estimate.self_s": ("ibvp.estimate",),
    "config.load.self_s": ("config.load",),
    "config.serialize.self_s": ("config.serialize",),
    "cli.self_s": ("cli",),
}
CALL_METRICS = {
    "exprlang.calls": ("exprlang.grid", "exprlang.kernel", "exprlang.ibvp"),
    "exprlang.grid.calls": ("exprlang.grid",),
    "exprlang.kernel.calls": ("exprlang.kernel",),
    "exprlang.ibvp.calls": ("exprlang.ibvp",),
}
COUNTER_METRICS = (
    "bounds.kernel_calls",
    "oracle.kernel_calls",
    "timescale.exp_factors",
    "grid2.cells",
    "ibvp.F_calls",
)
UNITS = {"config.output_bytes": "bytes", "config.max_bits": "bits",
         "trace.overhead_ratio": "ratio"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- set-up ------------------------------------------------------------


def _forget_package() -> None:
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]


def set_up(workload: str, seed: int, work_dir: Path):
    """Import the package from a clean module table and write the inputs;
    returns (package, cli module, ops, argvs, seconds)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    _forget_package()
    start = perf_counter()
    package = importlib.import_module(PACKAGE)
    cli = importlib.import_module(PACKAGE + ".cli")
    ops = workloads.build_ops(workload, seed)
    argvs = workloads.write_inputs(ops, work_dir)
    return package, cli, ops, argvs, perf_counter() - start


def time_set_up(workload: str, seed: int, work_dir: Path) -> float:
    """Seconds for one more set-up into work_dir. The run's own modules
    are put back afterwards, so later ops run the code they ran before."""
    kept = {n: m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")}
    elapsed = set_up(workload, seed, work_dir)[-1]
    _forget_package()
    sys.modules.update(kept)
    return elapsed


def package_is_local() -> bool:
    return (SRC / PACKAGE / "__init__.py").is_file()


# -- one op --------------------------------------------------------------


def run_op(cli, argv):
    """Make one CLI call; returns (exit code or crash text, stdout,
    stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the loop must go on; the crash is the op's result
            code = "crash: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
        elapsed = perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def check_op(op, code, text, err, reference, rel_tol):
    """Why the op's result is wrong, or None."""
    if code != 0:
        detail = err.strip().splitlines()[-1] if err.strip() else ""
        return f"exit code {code!r} {detail}".strip()
    try:
        doc = checks.parse_strict(text)
    except ValueError as exc:
        return f"invalid JSON: {exc}"
    problem = checks.semantic_problem(op.command, doc)
    if problem is None and reference is not None:
        problem = checks.reference_problem(text, doc, reference, rel_tol)
    return problem


class Runner:
    """Sends ops and keeps every failed op with its cause, and every
    problem of the run itself (missing references, unstable counts)."""

    def __init__(self, cli, ops, argvs, references, rel_tol):
        self.cli, self.ops, self.argvs = cli, ops, argvs
        self.references = references
        self.rel_tol = rel_tol
        self.failures = []
        self.problems = []
        self.attempted = 0

    def send(self, index: int, tracer=None):
        slot = index % len(self.ops)
        op = self.ops[slot]
        if tracer is not None:
            tracer.op = index
        code, text, err, elapsed = run_op(self.cli, self.argvs[slot])
        self.attempted += 1
        reference = self.references[op.label] if self.references is not None else None
        problem = check_op(op, code, text, err, reference, self.rel_tol)
        if problem is not None:
            self.failures.append({"op": index, "label": op.label, "cause": problem})
        return elapsed, text


def load_references(workload, seed, ops):
    """References by op label for the default seed; (dict or None,
    problem)."""
    if seed != DEFAULT_SEED:
        return None, None
    document = checks.load_references(workload)
    if document is None:
        return None, f"no references recorded for {workload}"
    references = document.get("ops", {})
    if set(references) != {op.label for op in ops}:
        return None, "recorded references do not match this workload's ops"
    return references, None


# -- the two kinds of run ----------------------------------------------------


def measure(runner, workload, seed, seconds, work_dir):
    """Send ops until the stop rule holds, each after a host-speed probe,
    and time a set-up before every round. Returns the op latencies, the
    probe times and the set-up times."""
    latencies, probes, setup_times = [], [], []
    round_length = workloads.ROUND_LENGTH[workload]
    wall_start = perf_counter()
    busy = 0.0
    index = 0
    while True:
        if index % round_length == 0:
            if index >= MIN_OPS and busy >= seconds:
                break
            setup_times.append(time_set_up(workload, seed, work_dir / "setup"))
        probes.append(hostspeed.probe())
        elapsed, _ = runner.send(index)
        latencies.append(elapsed)
        busy += elapsed
        index += 1
        if perf_counter() - wall_start > WALL_CAP_S:
            break
    return latencies, probes, setup_times


def time_metrics(latencies, setup_times, factor):
    """The timing metrics, every time multiplied by factor."""
    ops = [t * factor for t in latencies]
    return {
        "setup_s": statistics.median(setup_times) * factor,
        "ops_per_s": len(ops) / sum(ops),
        "op_ms_p50": statistics.median(ops) * 1e3,
        "op_ms_p90": statistics.quantiles(ops, n=10)[8] * 1e3,
    }


def run_pass(runner, package, count, tracer=None):
    """Run ops 0..count-1 once, traced when a tracer is given; returns
    (summed op seconds, output bytes, max exact bits)."""
    missing = tracer.install(package) if tracer is not None else []
    if missing:
        runner.problems.append("not found to trace: " + ", ".join(missing))
    busy, output_bytes, max_bits = 0.0, 0, 0
    try:
        for index in range(count):
            elapsed, text = runner.send(index, tracer)
            busy += elapsed
            output_bytes += len(text.encode())
            max_bits = max(max_bits, checks.max_exact_bits(text))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return busy, output_bytes, max_bits


def layer_values(tracer, output_bytes, max_bits):
    values = {}
    for name, groups in CALL_METRICS.items():
        values[name] = tracer.calls(*groups)
    for name in COUNTER_METRICS:
        values[name] = tracer.counts.get(name, 0)
    values["config.output_bytes"] = output_bytes
    values["config.max_bits"] = max_bits
    times = {name: tracer.self_seconds(*groups) for name, groups in SELF_TIME_METRICS.items()}
    return values, times


def trace_run(runner, package, workload, seed):
    count = TRACE_ROUNDS[workload] * workloads.ROUND_LENGTH[workload]
    plain_a, _, _ = run_pass(runner, package, count)
    tracer_a = tracing.Tracer()
    traced_a, bytes_a, bits_a = run_pass(runner, package, count, tracer_a)
    plain_b, _, _ = run_pass(runner, package, count)
    tracer_b = tracing.Tracer()
    traced_b, bytes_b, bits_b = run_pass(runner, package, count, tracer_b)

    counts_a, times_a = layer_values(tracer_a, bytes_a, bits_a)
    counts_b, times_b = layer_values(tracer_b, bytes_b, bits_b)
    for name in counts_a:
        if counts_a[name] != counts_b[name]:
            runner.problems.append(
                f"deterministic count {name} differs between traced passes: "
                f"{counts_a[name]} vs {counts_b[name]}"
            )
    metrics = dict(counts_a)
    for name in times_a:
        metrics[name] = (times_a[name] + times_b[name]) / 2
    metrics["trace.overhead_ratio"] = (traced_a + traced_b) / (plain_a + plain_b)

    labels = [runner.ops[i % len(runner.ops)].label for i in range(count)]
    spans_path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    tracing.write_spans(spans_path, tracer_a.spans_document(labels))
    return metrics, spans_path


# -- record ----------------------------------------------------------------


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def read_commit() -> str:
    """HEAD of the checkout's git metadata, read from the files; the
    checkout may not be a git repository at all."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 over the package sources, which names the code measured
    when there is no commit to name it."""
    sha = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).rglob("*.py")):
        sha.update(path.relative_to(SRC).as_posix().encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(workload, args, setup_times, runner, metrics, extra):
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": read_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "setup_times_s": setup_times,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "fail_ratio": len(runner.failures) / runner.attempted,
        "failures": runner.failures,
        "problems": runner.problems,
        "metrics": metrics,
        **extra,
    }


def run_workload(workload, args):
    """Set up, run and report one workload; returns the result object,
    or None when the package was imported from outside the checkout."""
    work_dir = OUT_DIR / f"{workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        package, cli, ops, argvs, setup_seconds = set_up(workload, args.seed, work_dir)
        setup_times = [setup_seconds]
        if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"error: imported {PACKAGE} from {package.__file__}, not from {SRC}",
                  file=sys.stderr)
            return None
        references, problem = load_references(workload, args.seed, ops)
        rel_tol = importlib.import_module(PACKAGE + ".oracle").REL_TOL
        runner = Runner(cli, ops, argvs, references, rel_tol)
        if problem is not None:
            runner.problems.append(problem)
        extra = {}
        if args.trace:
            metrics, spans_path = trace_run(runner, package, workload, args.seed)
            extra["spans_file"] = str(spans_path.relative_to(ROOT))
            units = {name: UNITS.get(name, "s" if name.endswith("_s") else "count")
                     for name in metrics}
        else:
            latencies, probes, measured_setups = measure(
                runner, workload, args.seed, args.seconds, work_dir)
            # Reported times are normalised to the reference host speed
            # (see hostspeed.py); the record keeps them as measured too.
            metrics = time_metrics(latencies, measured_setups, hostspeed.speed_factor(probes))
            metrics["ok_ratio"] = (runner.attempted - len(runner.failures)) / runner.attempted
            metrics["peak_rss_mb"] = peak_rss_mb()
            setup_times += measured_setups
            extra["raw_metrics"] = time_metrics(latencies, measured_setups, 1.0)
            extra["ops_measured"] = len(latencies)
            extra["measured_s"] = sum(latencies)
            extra["latencies_ms"] = [round(x * 1e3, 3) for x in latencies]
            extra["probes_ms"] = [round(x * 1e3, 4) for x in probes]
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    record = run_record(workload, args, setup_times, runner, metrics, extra)
    OUT_DIR.mkdir(exist_ok=True)
    record_path = OUT_DIR / f"record-{workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2))

    for failure in runner.failures:
        print(f"FAILED op {failure['op']} {failure['label']}: {failure['cause']}",
              file=sys.stderr)
    for problem in runner.problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    print(f"# workload={workload} seed={args.seed} trace={args.trace} "
          f"attempted={runner.attempted} failed={len(runner.failures)} "
          f"fail_ratio={record['fail_ratio']:.4g}")
    for name, value in metrics.items():
        print(f"{name:34s} {value:>16.6g} {units[name]}")
    brief = {k: v for k, v in record.items() if k not in ("metrics", "latencies_ms", "probes_ms")}
    print("record " + json.dumps(brief))
    return {
        "correct": not runner.failures and not runner.problems,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not package_is_local():
        print(f"error: no {PACKAGE} package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(name, args)
        if result is None:
            return 2
        results[name] = result
    if len(results) == 1:
        (result,) = results.values()
    else:
        # One line for the whole set; metric names get the workload prefix.
        for name, result in results.items():
            print(f"{name} " + json.dumps(result))
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
