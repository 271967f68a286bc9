"""Command line front end.

Subcommands: bound (scenario config to a report file), verify (seeded
certification campaigns), ibvp (solve and estimate), example31 (the
built-in worked example on the integer lattice). Exit codes: 0 on
success and certified, 2 when a report comes back hypothesis-violated,
1 on errors or verification failures, a certified bound that its oracle
finds not dominating included, and on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import config
from .bounds import BoundScenario, compute_bound, thm1_bound_in2, thm1_bound_in6
from .errors import ConfigError, HypothesisViolated, TsgronwallError
from .grid2 import GridFunction2
from .ibvp import check_estimate
from .numeric import Mode, format_scalar
from .oracle import CAMPAIGN_THEOREMS, bound_and_equality_case, check_domination, run_campaign
from .timescale import MAX_WINDOW_POINTS, TimeScale

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNCERTIFIED = 2
DEFAULT_SEED = 0

# Built-in worked example: six tabulated weights on the 4 x 3 integer
# window with unit offset, and the exact factors both linear bounds must
# produce at the two target points.
_EXAMPLE31_F = {
    (0, 0): Fraction(1, 4),
    (1, 0): Fraction(1, 5),
    (2, 0): Fraction(1, 1),
    (0, 1): Fraction(1, 2),
    (1, 1): Fraction(0),
    (2, 1): Fraction(5),
}
EXAMPLE31_TARGETS = ((2, 1), (3, 2))
EXAMPLE31_EXPECTED = {
    (2, 1): (Fraction(3, 2), Fraction(29, 20)),
    (3, 2): (Fraction(147, 10), Fraction(637, 40)),
}


def example31_scenario() -> BoundScenario:
    ts1 = TimeScale.integers(0, 3)
    ts2 = TimeScale.integers(0, 2)
    f = GridFunction2.from_callable(
        ts1, ts2, lambda t1, t2: _EXAMPLE31_F.get((t1, t2), Fraction(0))
    )
    a = GridFunction2.constant(ts1, ts2, Fraction(1))
    return BoundScenario(a=a, f=f)


def _write_output(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", type=Path, default=None, help="output file (default stdout)")
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )


def cmd_bound(args) -> int:
    scenario = config.load_scenario(args.config, mode_override=args.mode and Mode(args.mode))
    sc = scenario.bound_scenario
    run_oracle = scenario.run_oracle and sc.ts1.is_discrete and sc.ts2.is_discrete
    oracle_result = None
    if run_oracle:
        report, u_star = bound_and_equality_case(scenario.theorem, sc)
        oracle_result = check_domination(u_star, report)
    else:
        report = compute_bound(scenario.theorem, sc)
    if args.format == "csv":
        text = config.report_to_csv(report)
    else:
        text = json.dumps(
            config.report_to_json(report, oracle_result), indent=2, allow_nan=False
        )
    _write_output(text, args.out)
    if not report.certified:
        return EXIT_UNCERTIFIED
    if oracle_result is not None and not oracle_result.dominated:
        return EXIT_ERROR
    return EXIT_OK


def cmd_verify(args) -> int:
    summary = run_campaign(args.theorem, args.cases, args.seed, args.max_window)
    text = json.dumps(config.summary_to_json(summary), indent=2, allow_nan=False)
    _write_output(text, args.out)
    return EXIT_OK if summary.failures == 0 else EXIT_ERROR


def cmd_ibvp(args) -> int:
    problem = config.load_ibvp(args.config)
    try:
        result = check_estimate(problem)
    except HypothesisViolated as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return EXIT_UNCERTIFIED
    solution, estimate = result.u_star.values, result.bound_values
    margins = [
        [e - u for u, e in zip(u_row, e_row)]
        for u_row, e_row in zip(solution, estimate)
    ]
    if args.format == "csv":
        sections = (
            ("solution", solution),
            ("estimate", estimate),
            ("margins", margins),
        )
        blocks = []
        for name, values in sections:
            blocks.append(f"# {name}")
            blocks.append(
                config.matrix_to_csv(problem.ts1.points, problem.ts2.points, values).rstrip("\n")
            )
        text = "\n".join(blocks)
    else:
        text = json.dumps(
            {
                "mode": "float",
                "dominated": result.dominated,
                "worst_margin": config.scalar_to_json(result.worst_margin),
                "grid": {
                    "points1": [config.scalar_to_json(p) for p in problem.ts1.points],
                    "points2": [config.scalar_to_json(p) for p in problem.ts2.points],
                },
                "solution": config.matrix_to_json(solution),
                "estimate": config.matrix_to_json(estimate),
                "margins": config.matrix_to_json(margins),
            },
            indent=2,
            allow_nan=False,
        )
    _write_output(text, args.out)
    return EXIT_OK if result.dominated else EXIT_ERROR


def cmd_example31(args) -> int:
    sc = example31_scenario()
    report_in2 = thm1_bound_in2(sc)
    report_in6 = thm1_bound_in6(sc)
    all_match = True
    for t1, t2 in EXAMPLE31_TARGETS:
        got = (report_in2.value(t1, t2), report_in6.value(t1, t2))
        expected = EXAMPLE31_EXPECTED[(t1, t2)]
        print(f"({t1},{t2}): in2={format_scalar(got[0])} in6={format_scalar(got[1])}")
        if got != expected:
            all_match = False
            print(
                f"({t1},{t2}): MISMATCH, expected in2={format_scalar(expected[0])} "
                f"in6={format_scalar(expected[1])}",
                file=sys.stderr,
            )
    print("all factors match" if all_match else "factor mismatch")
    return EXIT_OK if all_match else EXIT_ERROR


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on EXIT_ERROR: exit code 2 belongs to
    hypothesis-violated reports. Subcommand parsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _int_in(low: int, high: int | None):
    """argparse type: an integer in [low, high] (no upper end if None)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low or (high is not None and value > high):
            span = f"at least {low}" if high is None else f"between {low} and {high}"
            raise argparse.ArgumentTypeError(f"must be {span}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tsgronwall",
        description="Bounds, certification campaigns and the boundary problem "
        "for double-integral inequalities on time-scale windows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="compute a bound report from a scenario config")
    p_bound.add_argument("config", type=Path, help="path to a scenario JSON document")
    p_bound.add_argument(
        "--mode", choices=("exact", "float"), default=None,
        help="override the config's numeric mode",
    )
    _add_output_flags(p_bound)
    p_bound.set_defaults(func=cmd_bound)

    p_verify = sub.add_parser("verify", help="run a seeded certification campaign")
    p_verify.add_argument("--theorem", required=True, choices=CAMPAIGN_THEOREMS)
    p_verify.add_argument("--cases", type=_int_in(0, None), default=20)
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument(
        "--max-window", type=_int_in(2, MAX_WINDOW_POINTS), default=12,
        help=f"largest window side, 2 to {MAX_WINDOW_POINTS}",
    )
    p_verify.add_argument("--out", type=Path, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_ibvp = sub.add_parser("ibvp", help="solve the boundary problem and check the estimate")
    p_ibvp.add_argument("config", type=Path, help="path to an ibvp JSON document")
    _add_output_flags(p_ibvp)
    p_ibvp.set_defaults(func=cmd_ibvp)

    p_example = sub.add_parser("example31", help="reproduce the built-in worked example")
    p_example.set_defaults(func=cmd_example31)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except TsgronwallError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
