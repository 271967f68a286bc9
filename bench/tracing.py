"""Spans and counts around the package's layers, installed from outside.

``Tracer.install`` replaces the public functions each CLI call reaches
with timing wrappers, in every ``tsgronwall`` module namespace and module
level dict that holds them, and ``uninstall`` puts the originals back.
The program itself is not edited. Each wrapper opens a span named
``<group>`` (the layer it belongs to, see ``SPAN_GROUPS``); a span's self
time is its duration minus the time its child spans cover.

Compiled expressions (the callables ``exprlang.compile_fn`` returns) are
leaf spans: they are timed and counted per role but, being called up to
O(n^4) times per op, are aggregated instead of kept one by one. Every
other span is also kept as a record (op, group, start, end, parent) until
``spans_document`` writes them out at the end of the run.
"""

from __future__ import annotations

import json
import sys
import types
from time import perf_counter

# (module, attribute or Class.method) -> span group. Names missing from
# the package are skipped, so the table survives refactors that delete a
# function; new public functions fall into their caller's self time.
SPAN_GROUPS = {
    ("cli", "main"): "cli",
    ("cli", "cmd_bound"): "cli",
    ("cli", "cmd_verify"): "cli",
    ("cli", "cmd_ibvp"): "cli",
    ("config", "load_scenario"): "config.load",
    ("config", "load_ibvp"): "config.load",
    ("config", "parse_mode"): "config.load",
    ("config", "parse_timescale"): "config.load",
    ("config", "parse_grid"): "config.load",
    ("config", "parse_kernel"): "config.load",
    ("config", "report_to_json"): "config.serialize",
    ("config", "oracle_to_json"): "config.serialize",
    ("config", "summary_to_json"): "config.serialize",
    ("config", "matrix_to_json"): "config.serialize",
    ("config", "report_to_csv"): "config.serialize",
    ("config", "matrix_to_csv"): "config.serialize",
    ("bounds", "compute_bound"): "bounds",
    ("bounds", "thm1_bound_in2"): "bounds",
    ("bounds", "thm1_bound_in6"): "bounds",
    ("bounds", "best_linear_bound"): "bounds",
    ("bounds", "thm2_bound"): "bounds",
    ("bounds", "thm3_bound"): "bounds",
    ("bounds", "thm4_bound"): "bounds",
    ("bounds", "cor31_bound"): "bounds",
    ("oracle", "equality_case_linear"): "oracle.equality_case",
    ("oracle", "equality_case_power"): "oracle.equality_case",
    ("oracle", "equality_case_kernel"): "oracle.equality_case",
    ("oracle", "check_domination"): "oracle.check_domination",
    ("oracle", "domination_summary"): "oracle.check_domination",
    ("oracle", "run_campaign"): "oracle.campaign",
    ("oracle", "random_linear_scenario"): "oracle.campaign",
    ("oracle", "random_power_scenario"): "oracle.campaign",
    ("oracle", "random_kernel_scenario"): "oracle.campaign",
    ("ibvp", "solve_ibvp"): "ibvp.solve",
    ("ibvp", "check_estimate"): "ibvp.solve",
    ("ibvp", "estimate_in7"): "ibvp.estimate",
    ("timescale", "exp_prefix_from_increments"): "timescale.exp_prefix",
    ("timescale", "TimeScale.exp_prefix"): "timescale.exp_prefix",
    ("grid2", "GridFunction2.from_callable"): "grid2.build",
    ("grid2", "GridFunction2.from_rows"): "grid2.build",
    ("grid2", "GridFunction2.constant"): "grid2.build",
    ("grid2", "GridFunction2.__post_init__"): "grid2.build",
    ("grid2", "GridFunction2.monotone_flags"): "grid2.monotone_flags",
}

# Wrappers that count instead of timing: kernel evaluations are charged
# to the layer of the span that made them (bounds or oracle).
KERNEL_VALUE = ("bounds", "kernel_value")
COMPILE_FN = ("exprlang", "compile_fn")


def expression_role(variables) -> str:
    """Which config slot a compiled expression fills, read off its
    variable names: kernels use t, s, tau, xi; grids t1, t2; the ibvp
    edge functions and F take one variable or three."""
    names = tuple(variables)
    if "tau" in names:
        return "kernel"
    if names == ("t1", "t2"):
        return "grid"
    return "ibvp"


class Tracer:
    """Span stack, per-group totals and counters for one traced pass."""

    def __init__(self):
        # frames: [group, child seconds, counter for kernel calls made here]
        self.stack = [["root", 0.0, "root.kernel_calls"]]
        self.totals = {}  # group -> [calls, total seconds, self seconds]
        self.counts = {}
        self.records = []  # (op, group, start, end, parent group)
        self.op = -1
        self._undo = []

    # -- recording ------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _stats(self, group: str) -> list:
        return self.totals.setdefault(group, [0, 0.0, 0.0])

    def span(self, group: str, fn):
        stack, records, stats = self.stack, self.records, self._stats(group)

        kernel_counter = group.split(".", 1)[0] + ".kernel_calls"

        def wrapper(*args, **kwargs):
            frame = [group, 0.0, kernel_counter]
            parent = stack[-1]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                parent[1] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                records.append((self.op, group, start, end, parent[0]))

        return wrapper

    def leaf(self, group: str, fn):
        """Cheap span for hot callables: timed and counted, not recorded.
        A call that raises fails its op, so it is left untimed."""
        stack, stats = self.stack, self._stats(group)

        def wrapper(*args):
            start = perf_counter()
            value = fn(*args)
            duration = perf_counter() - start
            stack[-1][1] += duration
            stats[0] += 1
            stats[1] += duration
            stats[2] += duration
            return value

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def _kernel_counter(self, fn):
        stack, counts = self.stack, self.counts

        def wrapper(*args):
            key = stack[-1][2]
            counts[key] = counts.get(key, 0) + 1
            return fn(*args)

        return wrapper

    def _compile_wrapper(self, compile_fn):
        tracer = self

        def wrapper(source, variables, *args, **kwargs):
            fn = compile_fn(source, variables, *args, **kwargs)
            timed = tracer.leaf(f"exprlang.{expression_role(variables)}", fn)
            if "u" in tuple(variables):
                return tracer.counted("ibvp.F_calls", timed)
            return timed

        return wrapper

    def _exp_prefix_wrapper(self, fn):
        """Counts regressivity factors, one per generator value; both
        exp_prefix forms take the generator values second."""
        spanned = self.span("timescale.exp_prefix", fn)
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.count("timescale.exp_factors", len(args[1]))
            return spanned(*args, **kwargs)

        return wrapper

    def _post_init_wrapper(self, fn):
        spanned = self.span("grid2.build", fn)
        tracer = self

        def wrapper(grid):
            tracer.count("grid2.cells", sum(len(row) for row in grid.values))
            return spanned(grid)

        return wrapper

    # -- installing -------------------------------------------------------

    def install(self, package) -> list[str]:
        """Wrap every traced function of ``package``; returns the names
        that were not found (a refactor removed or renamed them)."""
        modules = _package_modules(package)
        missing = []
        wanted = dict(SPAN_GROUPS)
        wanted[KERNEL_VALUE] = None
        wanted[COMPILE_FN] = None
        for (module_name, attr), group in wanted.items():
            module = modules.get(module_name)
            owner, name = module, attr
            if module is not None and "." in attr:
                class_name, name = attr.split(".", 1)
                owner = getattr(module, class_name, None)
            if owner is None or name not in vars(owner):
                missing.append(f"{module_name}.{attr}")
                continue
            raw = vars(owner)[name]
            is_classmethod = isinstance(raw, classmethod)
            original = raw.__func__ if is_classmethod else raw
            replacement = self._wrap(module_name, attr, group, original)
            if is_classmethod:
                self._set(vars(owner), owner, name, raw, classmethod(replacement))
            elif owner is module:
                for target in modules.values():
                    self._replace_everywhere(target, original, replacement)
            else:
                self._set(vars(owner), owner, name, raw, replacement)
        cli = modules.get("cli")
        if cli is not None and isinstance(vars(cli).get("json"), types.ModuleType):
            real = vars(cli)["json"]
            proxy = types.SimpleNamespace(
                dumps=self.span("config.serialize", real.dumps), loads=real.loads
            )
            self._set(vars(cli), cli, "json", real, proxy)
        return missing

    def _wrap(self, module_name, attr, group, original):
        if (module_name, attr) == KERNEL_VALUE:
            return self._kernel_counter(original)
        if (module_name, attr) == COMPILE_FN:
            return self._compile_wrapper(original)
        if group == "timescale.exp_prefix":
            return self._exp_prefix_wrapper(original)
        if attr == "GridFunction2.__post_init__":
            return self._post_init_wrapper(original)
        return self.span(group, original)

    def _replace_everywhere(self, module, original, replacement) -> None:
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                self._set(namespace, module, key, original, replacement)
            elif isinstance(value, dict):
                for dkey, dvalue in list(value.items()):
                    if dvalue is original:
                        self._set(value, None, dkey, original, replacement)

    def _set(self, namespace, owner, key, original, replacement) -> None:
        if isinstance(owner, type):
            setattr(owner, key, replacement)
        else:
            namespace[key] = replacement
        self._undo.append((namespace, owner, key, original))

    def uninstall(self) -> None:
        for namespace, owner, key, original in reversed(self._undo):
            if isinstance(owner, type):
                setattr(owner, key, original)
            else:
                namespace[key] = original
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def self_seconds(self, *groups: str) -> float:
        return sum(self.totals.get(g, (0, 0.0, 0.0))[2] for g in groups)

    def calls(self, *groups: str) -> int:
        return sum(self.totals.get(g, (0, 0.0, 0.0))[0] for g in groups)

    def spans_document(self, labels) -> dict:
        """All kept span records plus the per-group totals, as JSON-ready
        data; times are seconds from the first recorded start."""
        origin = min((r[2] for r in self.records), default=0.0)
        return {
            "ops": list(labels),
            "fields": ["op", "group", "start_s", "end_s", "parent"],
            "spans": [
                [op, group, round(start - origin, 9), round(end - origin, 9), parent]
                for op, group, start, end, parent in self.records
            ],
            "totals": {
                group: {"calls": c, "total_s": t, "self_s": s}
                for group, (c, t, s) in sorted(self.totals.items())
            },
            "counts": dict(sorted(self.counts.items())),
        }


def _package_modules(package) -> dict:
    prefix = package.__name__ + "."
    out = {}
    for name, module in list(sys.modules.items()):
        if module is not None and name.startswith(prefix):
            out[name[len(prefix):]] = module
    out[""] = package
    return out


def write_spans(path, document) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, separators=(",", ":")))
