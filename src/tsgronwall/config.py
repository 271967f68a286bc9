"""Scenario configuration: JSON documents to domain objects and back.

A bound scenario document looks like

    {
      "theorem": "thm1-in2",
      "mode": "exact",
      "scale1": {"kind": "integers", "h": "1", "a": "0", "b": "3"},
      "scale2": {"kind": "integers", "h": "1", "a": "0", "b": "2"},
      "a": "1",
      "f": {"table": {"points1": ["0", "1", "2"], "points2": ["0", "1"],
                      "rows": [["1/4", "1/2"], ["1/5", "0"], ["1", "5"]]}},
      "kernel_g": "tau*xi",
      "p": "2", "q": "1",
      "oracle": true
    }

Scale kinds: integers (h, a, b), qscale (q, t0, k_max), sequence
(t0, alphas) and sample (left, step, count; float mode only). Grids are
either expression strings in t1, t2 or inline tables; table cells cover
any subset of the window and unlisted points default to 0. Kernels are
expressions in t, s, tau, xi; one that splits into a sum of products
phi(t, s) * psi(tau, xi) also gets its compiled factors, which the
kernel bounds and oracle use for a faster path with equal results.
Scalars serialize as "num/den" strings or decimal literals.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

from .bounds import THEOREMS, BoundReport, BoundScenario
from .errors import ConfigError, ExprError, GridMismatch, TsgronwallError
from .exprlang import compile_fn, compile_separable
from .grid2 import GridFunction2
from .ibvp import IbvpProblem
from .numeric import Mode, Scalar, format_scalar, parse_scalar, zero
from .oracle import CampaignSummary, OracleResult
from .timescale import TimeScale

_KERNEL_VARIABLES = ("t", "s", "tau", "xi")
_KERNEL_THEOREMS = ("thm2", "thm4", "cor31")


@dataclass(frozen=True)
class Scenario:
    """A deserialized scenario config, ready to run."""

    theorem: str
    mode: Mode
    bound_scenario: BoundScenario
    run_oracle: bool = False


def parse_mode(text: str) -> Mode:
    try:
        return Mode(text)
    except ValueError:
        raise ConfigError(f"unknown mode {text!r}; use 'exact' or 'float'") from None


def _require_key(doc: dict, key: str):
    if key not in doc:
        raise ConfigError(f"missing required key {key!r}")
    return doc[key]


def parse_timescale(record: dict, mode: Mode) -> TimeScale:
    if not isinstance(record, dict):
        raise ConfigError("a scale must be a JSON object")
    kind = _require_key(record, "kind")
    try:
        if kind == "integers":
            return TimeScale.integers(
                parse_scalar(_require_key(record, "a"), mode),
                parse_scalar(_require_key(record, "b"), mode),
                parse_scalar(record.get("h", "1"), mode),
                mode=mode,
            )
        if kind == "qscale":
            return TimeScale.qscale(
                parse_scalar(_require_key(record, "q"), mode),
                parse_scalar(_require_key(record, "t0"), mode),
                int(_require_key(record, "k_max")),
                mode=mode,
            )
        if kind == "sequence":
            alphas = [parse_scalar(a, mode) for a in _require_key(record, "alphas")]
            return TimeScale.sequence(
                parse_scalar(record.get("t0", "0"), mode), alphas, mode=mode
            )
        if kind == "sample":
            if mode is not Mode.FLOAT:
                raise ConfigError("sample scales require float mode")
            return TimeScale.sample(
                parse_scalar(_require_key(record, "left"), Mode.FLOAT),
                parse_scalar(_require_key(record, "step"), Mode.FLOAT),
                int(_require_key(record, "count")),
            )
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad {kind} scale: {exc}") from exc
    raise ConfigError(f"unknown scale kind {kind!r}")


def parse_grid(obj, ts1: TimeScale, ts2: TimeScale, mode: Mode,
               variables=("t1", "t2")) -> GridFunction2:
    if isinstance(obj, str):
        try:
            fn = compile_fn(obj, variables, mode)
            return GridFunction2.from_callable(ts1, ts2, fn)
        except (ExprError, ValueError) as exc:
            raise ConfigError(f"bad grid expression {obj!r}: {exc}") from exc
    if isinstance(obj, dict) and "table" in obj:
        return _grid_from_table(obj["table"], ts1, ts2, mode)
    raise ConfigError("a grid must be an expression string or a {'table': ...} object")


def _grid_from_table(table: dict, ts1: TimeScale, ts2: TimeScale, mode: Mode) -> GridFunction2:
    try:
        points1 = [parse_scalar(x, mode) for x in _require_key(table, "points1")]
        points2 = [parse_scalar(x, mode) for x in _require_key(table, "points2")]
        rows = _require_key(table, "rows")
        if len(rows) != len(points1) or any(len(r) != len(points2) for r in rows):
            raise ConfigError("table rows must be len(points1) x len(points2)")
        cells = {}
        for i, p1 in enumerate(points1):
            ts1.index(p1)
            for j, p2 in enumerate(points2):
                ts2.index(p2)
                cells[(p1, p2)] = parse_scalar(rows[i][j], mode)
    except (TsgronwallError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad table: {exc}") from exc
    default = zero(mode)
    return GridFunction2.from_callable(
        ts1, ts2, lambda t1, t2: cells.get((t1, t2), default)
    )


def _expression(doc: dict, key: str) -> str:
    """The expression string under `key`, which must be present."""
    source = _require_key(doc, key)
    if not isinstance(source, str):
        raise ConfigError(f"{key!r} must be an expression string")
    return source


def parse_kernel(source: str, mode: Mode):
    try:
        return compile_fn(source, _KERNEL_VARIABLES, mode)
    except (ExprError, ValueError) as exc:
        raise ConfigError(f"bad kernel expression {source!r}: {exc}") from exc


def load_scenario(doc, mode_override: Optional[Mode] = None) -> Scenario:
    """Build a Scenario from a JSON document, a path to one, or a dict."""
    if isinstance(doc, (str, Path)):
        doc = json.loads(Path(doc).read_text())
    if not isinstance(doc, dict):
        raise ConfigError("a scenario config must be a JSON object")
    theorem = _require_key(doc, "theorem")
    if theorem not in THEOREMS:
        raise ConfigError(f"unknown theorem {theorem!r}; choose one of {THEOREMS}")
    mode = mode_override or parse_mode(doc.get("mode", "exact"))
    ts1 = parse_timescale(_require_key(doc, "scale1"), mode)
    ts2 = parse_timescale(_require_key(doc, "scale2"), mode)
    a = parse_grid(_require_key(doc, "a"), ts1, ts2, mode)
    f = parse_grid(_require_key(doc, "f"), ts1, ts2, mode)
    kernel = kernel_terms = None
    if "kernel_g" in doc:
        source = _expression(doc, "kernel_g")
        kernel = parse_kernel(source, mode)
        kernel_terms = compile_separable(
            source, _KERNEL_VARIABLES[:2], _KERNEL_VARIABLES[2:], mode
        )
    elif theorem in _KERNEL_THEOREMS:
        raise ConfigError(f"{theorem} needs a 'kernel_g' expression")
    try:
        p = parse_scalar(doc.get("p", "1"), mode)
        q = parse_scalar(doc.get("q", "1"), mode)
        bound_scenario = BoundScenario(
            a=a, f=f, kernel=kernel, p=p, q=q, kernel_terms=kernel_terms
        )
    except (ValueError, GridMismatch) as exc:
        raise ConfigError(str(exc)) from exc
    return Scenario(theorem, mode, bound_scenario, bool(doc.get("oracle", False)))


def load_ibvp(doc) -> IbvpProblem:
    """Build an IbvpProblem (always float mode) from a JSON document."""
    if isinstance(doc, (str, Path)):
        doc = json.loads(Path(doc).read_text())
    if not isinstance(doc, dict):
        raise ConfigError("an ibvp config must be a JSON object")
    ts1 = parse_timescale(_require_key(doc, "scale1"), Mode.FLOAT)
    ts2 = parse_timescale(_require_key(doc, "scale2"), Mode.FLOAT)
    try:
        g = compile_fn(_expression(doc, "g"), ("t1",), Mode.FLOAT)
        h = compile_fn(_expression(doc, "h"), ("t2",), Mode.FLOAT)
        F = compile_fn(_expression(doc, "F"), ("t1", "t2", "u"), Mode.FLOAT)
    except (ExprError, ValueError) as exc:
        raise ConfigError(f"bad ibvp expression: {exc}") from exc
    try:
        return IbvpProblem(ts1, ts2, F=F, g=g, h=h)
    except (ValueError, TsgronwallError) as exc:
        raise ConfigError(f"bad ibvp problem: {exc}") from exc


# -- serialization -----------------------------------------------------


def scalar_to_json(value: Scalar):
    """Exact values go out as "num/den" strings; finite floats stay JSON
    numbers, and inf, -inf and nan, which JSON cannot hold, go out as
    those strings."""
    if isinstance(value, float) and math.isfinite(value):
        return value
    return format_scalar(value)


def matrix_to_json(values) -> list:
    return [[scalar_to_json(v) for v in row] for row in values]


def oracle_to_json(result: OracleResult) -> dict:
    return {
        "dominated": result.dominated,
        "worst_margin": scalar_to_json(result.worst_margin),
        "attained_count": len(result.attained_points),
        "attained_points": [
            [scalar_to_json(p1), scalar_to_json(p2)]
            for p1, p2 in result.attained_points
        ],
        "u_star": matrix_to_json(result.u_star.values),
    }


def report_to_json(report: BoundReport, oracle: Optional[OracleResult] = None) -> dict:
    return {
        "theorem": report.theorem,
        "mode": report.mode.value,
        "certified": report.certified,
        "hypotheses": dict(report.hypotheses),
        "approximate": report.approximate,
        "powered": report.powered,
        "grid": {
            "points1": [scalar_to_json(p) for p in report.ts1.points],
            "points2": [scalar_to_json(p) for p in report.ts2.points],
        },
        "bounds": matrix_to_json(report.values),
        "oracle": oracle_to_json(oracle) if oracle is not None else None,
        "sharpness": [list(row) for row in report.sharpness] if report.sharpness else None,
    }


def summary_to_json(summary: CampaignSummary) -> dict:
    """The summary's fields, with a worst margin through scalar_to_json
    and None (no cases) as null."""
    doc = asdict(summary)
    if summary.worst_margin is not None:
        doc["worst_margin"] = scalar_to_json(summary.worst_margin)
    return doc


def matrix_to_csv(points1, points2, values) -> str:
    """Header row of second-axis points, then one row per first-axis point."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["t1\\t2"] + [format_scalar(p) for p in points2])
    for p1, row in zip(points1, values):
        writer.writerow([format_scalar(p1)] + [format_scalar(v) for v in row])
    return buffer.getvalue()


def report_to_csv(report: BoundReport) -> str:
    return matrix_to_csv(report.ts1.points, report.ts2.points, report.values)
