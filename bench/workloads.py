"""Seeded inputs for the two benchmark workloads.

``kernel`` is a fixed list of kernel-selector op *shapes* (selector, mode,
window size, kernel template). ``sweep_campaign`` rounds combine a fixed
list of sweep shapes (linear and power selectors, ibvp) with campaign ops
(``verify`` on seeds derived from the workload seed). The seed fills in
the data: rational coefficients, table entries, window increments and
campaign seeds. So the work per round, and with it the latency mix,
depends on the workload and hardly on the seed, while every seed still
gives fresh inputs. One op is one ``tsgronwall`` command line; bound and
ibvp ops read a scenario file that ``write_inputs`` puts in the run's
work directory.

All data keeps the hypotheses of its selector (``a`` positive and
nondecreasing, ``f`` nonnegative and for kernel selectors nondecreasing,
kernels nonnegative on their domain), so every op should exit 0 with a
certified, dominated report.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("kernel", "sweep_campaign")


@dataclass(frozen=True)
class Op:
    """One command line: ``argv`` for ``tsgronwall.cli.main`` and the
    document it reads (or None), written to ``filename``."""

    label: str
    command: str
    argv: tuple
    document: dict | None = None
    filename: str | None = None


# Seeded rationals share one denominator, so exact-mode cost (bit growth)
# depends on the op's shape and hardly on the seed.
DENOMINATOR = 8


def _frac(rng: random.Random, lo: int, hi: int) -> str:
    return str(Fraction(rng.randint(lo, hi), DENOMINATOR))


def _integers(n: int, h: str = "1") -> dict:
    step = Fraction(h)
    return {"kind": "integers", "h": h, "a": "0", "b": str(step * (n - 1))}


def _qscale(n: int, q: str) -> dict:
    return {"kind": "qscale", "q": q, "t0": "1", "k_max": n - 1}


def _sequence(rng: random.Random, n: int, choices) -> dict:
    return {"kind": "sequence", "t0": "0", "alphas": [rng.choice(choices) for _ in range(n - 1)]}


def _affine_grid(rng: random.Random, lowest_constant: int, scale: int) -> str:
    """c0 + c1*t1 + c2*t2 + c3*t1*t2 with nonnegative coefficients:
    nonnegative and nondecreasing on windows inside [0, inf)."""
    c = [_frac(rng, lowest_constant, 9)] + [_frac(rng, 0, 9) for _ in range(3)]
    return f"({c[0]} + {c[1]}*t1 + {c[2]}*t2 + {c[3]}*t1*t2)/{scale}"


def _running_sum_rows(rng: random.Random, n1: int, n2: int, scale: int, positive: bool) -> list:
    """n1 x n2 rows of 2-D running sums of nonnegative rationals:
    nonnegative and nondecreasing along both axes."""
    den = DENOMINATOR * scale
    rows = [[Fraction(rng.randint(0, 9), den) for _ in range(n2)] for _ in range(n1)]
    if positive:
        rows[0][0] = Fraction(rng.randint(1, 9), den)
    for i in range(n1):
        for j in range(n2):
            if i:
                rows[i][j] += rows[i - 1][j]
            if j:
                rows[i][j] += rows[i][j - 1]
            if i and j:
                rows[i][j] -= rows[i - 1][j - 1]
    return [[str(v) for v in row] for row in rows]


def _points(scale: dict) -> list[str]:
    if scale["kind"] == "integers":
        h = Fraction(scale["h"])
        n = int(Fraction(scale["b"]) / h) + 1
        return [str(k * h) for k in range(n)]
    if scale["kind"] == "sequence":
        out = [Fraction(scale["t0"])]
        for alpha in scale["alphas"]:
            out.append(out[-1] + Fraction(alpha))
        return [str(v) for v in out]
    q, t0 = Fraction(scale["q"]), Fraction(scale["t0"])
    return [str(t0 * q**k) for k in range(scale["k_max"] + 1)]


def _table(rng, scale1, scale2, divisor, positive):
    points1, points2 = _points(scale1), _points(scale2)
    rows = _running_sum_rows(rng, len(points1), len(points2), divisor, positive)
    return {"table": {"points1": points1, "points2": points2, "rows": rows}}


# -- kernel workload ---------------------------------------------------

# kernel_g templates in t, s (target) and tau, xi (source). The first
# three are separable sums of products; the rest mix target and source
# inside sqrt/min/max. Every one is nonnegative on tau <= t, xi <= s
# inside [0, inf)^2.
_KERNELS = {
    "sep-product": lambda r: f"{_frac(r, 4, 12)}*tau*xi/50",
    "sep-poly": lambda r: (
        f"{_frac(r, 1, 9)}/10 + {_frac(r, 0, 9)}*t*tau/100"
        f" + {_frac(r, 0, 9)}*s*xi/100 + {_frac(r, 0, 9)}*tau^2*xi/1000"
    ),
    "sep-factored": lambda r: (
        f"({_frac(r, 1, 9)} + t + s)*({_frac(r, 1, 9)} + tau*xi)/300"
    ),
    "min": lambda r: f"min(t - tau + {_frac(r, 1, 9)}, s - xi + {_frac(r, 1, 9)})/30",
    "max": lambda r: f"max(tau*s, t*xi, {_frac(r, 1, 9)})/90",
    "sqrt": lambda r: f"sqrt(t*tau + s*xi + {_frac(r, 1, 9)})/20",
}

# (theorem, mode, side, kernel, p, q). sqrt kernels are float only: an
# exact sqrt of a non-square is refused by design. Exact power selectors
# need p = q.
_KERNEL_SHAPES = (
    ("thm2", "exact", 10, "sep-product", 1, 1),
    ("thm2", "float", 14, "sqrt", 1, 1),
    ("thm4", "exact", 9, "min", 2, 2),
    ("cor31", "float", 12, "sep-poly", 2, 1),
    ("thm2", "float", 16, "sep-factored", 1, 1),
    ("thm4", "float", 12, "max", 3, 2),
    ("cor31", "exact", 8, "sep-factored", 1, 1),
    ("thm2", "exact", 12, "max", 1, 1),
    ("thm4", "float", 20, "sep-product", 2, 1),
    ("cor31", "float", 10, "min", 1, 1),
    ("thm4", "exact", 11, "sep-poly", 1, 1),
    ("thm2", "float", 12, "min", 1, 1),
    ("cor31", "exact", 9, "max", 2, 2),
    ("thm4", "float", 14, "sqrt", 2, 1),
    ("thm2", "exact", 8, "sep-poly", 1, 1),
    ("cor31", "float", 16, "sqrt", 3, 2),
)


def _kernel_ops(seed: int) -> list[Op]:
    ops = []
    for index, (theorem, mode, side, kernel, p, q) in enumerate(_KERNEL_SHAPES):
        rng = random.Random(f"kernel:{seed}:{index}")
        n1, n2 = side, side - 1
        if theorem == "cor31":
            scale1 = _sequence(rng, n1, ("1/2", "1", "3/2"))
            scale2 = _sequence(rng, n2, ("1/2", "1", "3/2"))
        else:
            scale1, scale2 = _integers(n1), _integers(n2)
        doc = {
            "theorem": theorem,
            "mode": mode,
            "scale1": scale1,
            "scale2": scale2,
            "a": _affine_grid(rng, 1, 4),
            "f": (_table(rng, scale1, scale2, 40, False) if index % 2
                  else _affine_grid(rng, 0, 40)),
            "kernel_g": _KERNELS[kernel](rng),
            "p": str(p),
            "q": str(q),
            "oracle": True,
        }
        label = f"{theorem}-{mode}-{n1}x{n2}-{kernel}-p{p}q{q}"
        ops.append(_file_op(index, label, "bound", doc))
    return ops


# -- sweep workload ----------------------------------------------------

# (theorem, mode, window kind, side, p, q). q-scales use q = 21/20 so
# float runs stay finite at 64 points; exact q-scale and sequence runs
# are where rational bit growth shows.
_SWEEP_SHAPES = (
    ("best-linear", "exact", "qscale", 32, 1, 1),
    ("thm1-in2", "float", "integers", 64, 1, 1),
    ("thm3", "float", "sequence", 48, 2, 1),
    ("thm1-in6", "exact", "integers", 40, 1, 1),
    ("ibvp", "float", "integers", 96, 2, 1),
    ("best-linear", "float", "qscale", 64, 1, 1),
    ("thm3", "exact", "integers", 36, 2, 2),
    ("thm1-in2", "exact", "sequence", 32, 1, 1),
    ("thm3", "float", "qscale", 56, 2, 1),
    ("ibvp", "float", "sequence", 48, 2, 1),
    ("best-linear", "exact", "integers", 44, 1, 1),
    ("thm1-in6", "float", "sequence", 60, 1, 1),
    ("thm3", "float", "integers", 64, 3, 2),
    ("ibvp", "float", "integers", 32, 2, 1),
)


def _sweep_scale(rng, kind, n, mode):
    if kind == "qscale":
        return _qscale(n, "21/20")
    if kind == "sequence":
        return _sequence(rng, n, ("1/8", "1/4", "3/8") if mode == "exact" else ("1/16", "1/8", "3/16"))
    return _integers(n, "1/4" if mode == "exact" else "1/16")


def _ibvp_doc(rng, kind, n):
    if kind == "sequence":
        scale1 = _sequence(rng, n, ("1/32", "1/16", "3/32"))
        scale2 = _sequence(rng, n, ("1/32", "1/16", "3/32"))
    else:
        h = str(Fraction(3, n))
        scale1, scale2 = _integers(n, h), _integers(n, h)
    # Both windows stay inside [0, 4.5], where t1/(t1 + 3) < 3/5, so
    # 0 <= F <= t2*u as the estimate requires.
    return {
        "g": f"{_frac(rng, 1, 9)}*t1 + t1^2",
        "h": f"{_frac(rng, 1, 9)}*t2^2",
        "F": f"t2*u*t1/(t1 + 3) + min(t2*u, {_frac(rng, 1, 9)}*t1*t2)/4",
        "scale1": scale1,
        "scale2": scale2,
    }


def _sweep_ops(seed: int) -> list[Op]:
    ops = []
    for index, (theorem, mode, kind, side, p, q) in enumerate(_SWEEP_SHAPES):
        rng = random.Random(f"sweep:{seed}:{index}")
        if theorem == "ibvp":
            ops.append(_file_op(index, f"ibvp-{kind}-{side}x{side}", "ibvp",
                                _ibvp_doc(rng, kind, side)))
            continue
        n1, n2 = side, side - 2
        scale1 = _sweep_scale(rng, kind, n1, mode)
        scale2 = _sweep_scale(rng, kind, n2, mode)
        doc = {
            "theorem": theorem,
            "mode": mode,
            "scale1": scale1,
            "scale2": scale2,
            # Float q-scale points are products, not the decimal a table
            # would spell, so tables go on the other window kinds.
            "a": (_table(rng, scale1, scale2, 1, True) if index % 2 and kind != "qscale"
                  else _affine_grid(rng, 1, 1)),
            "f": _affine_grid(rng, 0, 8 * side),
            "p": str(p),
            "q": str(q),
            "oracle": True,
        }
        label = f"{theorem}-{mode}-{kind}-{n1}x{n2}-p{p}q{q}"
        ops.append(_file_op(index, label, "bound", doc))
    return ops


# -- campaign ops ------------------------------------------------------

# (theorem, cases per op): sized so one op of each theorem costs about
# the same on average. Case counts are multiples of the power pairs the
# campaign cycles through (three for thm3, four for thm4 and cor31).
_CAMPAIGN_SHAPES = (("thm1", 12), ("thm2", 4), ("thm3", 48), ("thm4", 8), ("cor31", 4))
_CAMPAIGN_PER_ROUND = 3 * len(_CAMPAIGN_SHAPES)
# Rounds in the sweep_campaign cycle; a run never gets through it, so no
# campaign repeats within a run.
_ROUNDS = 24


def _campaign_ops(seed: int, count: int) -> list[Op]:
    ops = []
    for index in range(count):
        theorem, cases = _CAMPAIGN_SHAPES[index % len(_CAMPAIGN_SHAPES)]
        op_seed = random.Random(f"campaign:{seed}:{index}").randrange(2**31)
        argv = ("verify", "--theorem", theorem, "--cases", str(cases),
                "--seed", str(op_seed), "--max-window", "12")
        ops.append(Op(f"verify-{theorem}-{cases}-seed{op_seed}", "verify", argv))
    return ops


def _file_op(index: int, label: str, command: str, doc: dict) -> Op:
    filename = f"op{index:02d}.json"
    return Op(label, command, (command, filename), doc, filename)


def _sweep_campaign_ops(seed: int) -> list[Op]:
    """Each round: every sweep shape once (the same documents each
    round), then fresh campaign ops."""
    sweep = _sweep_ops(seed)
    campaign = _campaign_ops(seed, _ROUNDS * _CAMPAIGN_PER_ROUND)
    ops = []
    for r in range(_ROUNDS):
        ops += sweep + campaign[r * _CAMPAIGN_PER_ROUND:(r + 1) * _CAMPAIGN_PER_ROUND]
    return ops


_OP_CYCLES = {"kernel": _kernel_ops, "sweep_campaign": _sweep_campaign_ops}

# Ops per round: a run stops only at a round boundary, so every run has
# the same mix of shapes.
ROUND_LENGTH = {
    "kernel": len(_KERNEL_SHAPES),
    "sweep_campaign": len(_SWEEP_SHAPES) + _CAMPAIGN_PER_ROUND,
}


def build_ops(workload: str, seed: int) -> list[Op]:
    """The workload's op cycle for this seed, documents not yet written."""
    return _OP_CYCLES[workload](seed)


def write_inputs(ops: list[Op], work_dir: Path) -> list[tuple]:
    """Write every op's document into work_dir; returns the argv lists
    with file names resolved against work_dir."""
    work_dir.mkdir(parents=True, exist_ok=True)
    argvs = []
    written = set()
    for op in ops:
        if op.document is not None:
            path = work_dir / op.filename
            if op.filename not in written:
                path.write_text(json.dumps(op.document))
                written.add(op.filename)
            argvs.append(tuple(str(path) if a == op.filename else a for a in op.argv))
        else:
            argvs.append(op.argv)
    return argvs
