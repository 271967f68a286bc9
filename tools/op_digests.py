"""Print a digest of every benchmark op's output, to diff two checkouts.

    python3 tools/op_digests.py [--root CHECKOUT] [--workload NAME|all] \
        [--seeds 0 1 7] > digests.txt

For each workload and seed, the checkout's ``bench/run.py`` builds the
op cycle with ``set_up`` and runs each op in process with ``run_op``;
neither is modified. A bound op runs twice, as given (JSON) and with
``--format csv``. Each run prints one line: workload, seed, op index,
output format, op label and the sha256 of its exit code, stdout and
stderr. Two checkouts give byte-identical outputs when their files are
identical (``diff parent.txt change.txt``).

What differs between checkouts is masked before hashing: the op's work
directory, the checkout root, and where a warning was issued (its
``file:line`` prefix and the source line printed under it). Only the standard library is used. A run takes minutes,
so the tool is opt-in and out of CI.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import re
import shutil
import sys
import tempfile
from pathlib import Path

DEFAULT_ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("kernel", "sweep_campaign")
# A warning as Python prints it: "file:line: Category: message", then the
# source line that issued it, indented by two spaces.
_WARNING = re.compile(r"^\S.*?:\d+: (\w*Warning: .*)\n  .*$", re.MULTILINE)


def _bench(root: Path):
    """The checkout's bench/run.py, imported from its own directory."""
    sys.path.insert(0, str(root / "bench"))
    for name in ("run", "checks", "hostspeed", "tracing", "workloads"):
        sys.modules.pop(name, None)
    return importlib.import_module("run")


def _masked(text: str, root: Path, work_dir: Path) -> str:
    text = text.replace(str(work_dir), "<work>").replace(str(root), "<root>")
    return _WARNING.sub(r"<location>: \1\n  <source>", text)


def digest(code, out: str, err: str) -> str:
    payload = "\0".join((repr(code), out, err))
    return hashlib.sha256(payload.encode()).hexdigest()


def digest_lines(bench, root: Path, workload: str, seed: int):
    """One line per op run of the workload's op cycle at this seed."""
    work_dir = Path(tempfile.mkdtemp(prefix="op-digests-"))
    try:
        _, cli, ops, argvs, _ = bench.set_up(workload, seed, work_dir)
        for index, (op, argv) in enumerate(zip(ops, argvs)):
            formats = [("json", ())]
            if op.command == "bound":
                formats.append(("csv", ("--format", "csv")))
            for name, extra in formats:
                code, out, err, _ = bench.run_op(cli, tuple(argv) + extra)
                out, err = (_masked(text, root, work_dir) for text in (out, err))
                yield f"{workload} {seed} {index} {name} {op.label} {digest(code, out, err)}"
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=DEFAULT_ROOT,
                        help="checkout whose bench/ and src/ to run (default: this one)")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 7])
    args = parser.parse_args(argv)
    root = args.root.resolve()
    bench = _bench(root)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        for seed in args.seeds:
            for line in digest_lines(bench, root, workload, seed):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
