"""Record the reference outputs the default seed is checked against.

    python3 bench/record_references.py [workload ...]

Runs each distinct op of the named workloads' cycles (all by default)
once with the default seed, refuses to record an op whose output fails
its checks, and writes ``bench/references/<workload>.json.gz``, keyed by
op label. Re-record only when a
change is meant to alter the program's output, and say so in that change.
"""

from __future__ import annotations

import shutil
import sys

import run
from run import DEFAULT_SEED, OUT_DIR, PACKAGE, checks, workloads


def record(workload: str) -> int:
    work_dir = OUT_DIR / f"record-{workload}"
    try:
        _, cli, ops, argvs, _ = run.set_up(workload, DEFAULT_SEED, work_dir)
        entries = {}
        for op, argv in zip(ops, argvs):
            if op.label in entries:
                continue
            code, text, err, _ = run.run_op(cli, argv)
            problem = run.check_op(op, code, text, err, None, 0.0)
            if problem is not None:
                print(f"{workload}: {op.label}: {problem}", file=sys.stderr)
                return 1
            entries[op.label] = checks.digest(text, checks.parse_strict(text))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    document = {"workload": workload, "seed": DEFAULT_SEED, "commit": run.read_commit(),
                "ops": entries}
    path = checks.save_references(workload, document)
    print(f"{workload}: {len(entries)} references -> {path.relative_to(run.ROOT)}")
    return 0


def main(argv) -> int:
    if not run.package_is_local():
        print(f"error: no {PACKAGE} package under {run.SRC}", file=sys.stderr)
        return 2
    names = argv or list(workloads.WORKLOADS)
    return max(record(name) for name in names)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
