"""Command-line front end: bounds, chain counts, brute-force verification, reproduction.

Exit codes: 0 success, 1 usage or parse error, 2 verification mismatch,
3 search budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .binom import chain_weight
from .chaincount import (
    SearchBudgetExceeded,
    count_chains_levels,
    optimal_levels_for_chains,
)
from .conditions import (
    allowed_levels,
    Antichain,
    Condition,
    CustomPairwise,
    ErdosWindow,
    IntegerRatio,
    KatonaGap,
    RatioLambda,
    load_custom_condition,
)
from .families import (
    CHAIN_OPTIMIZE_MAX_N,
    FamilyMask,
    OPTIMIZE_MAX_N,
    count_chains_family,
    family_satisfies,
    max_chains_family,
    max_family,
)
from .levelbounds import (
    best_ratio_window,
    erdos_bound,
    katona_bound,
    residue_class_weights,
    size_bound,
    sperner_bound,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_BUDGET = 3

THREADS_ENV_VAR = "CHAINWEIGHT_THREADS"


class UsageError(ValueError):
    """Bad command-line input; maps to exit code 1."""


class MismatchReport(Exception):
    """Carries a finished report whose checks failed; maps to exit code 2."""

    def __init__(self, report: RunReport, message: str = "verification mismatch"):
        super().__init__(message)
        self.report = report


# The condition grammar: name -> (condition type, parameter key).  The
# condition types check parameter ranges themselves.
CONDITION_GRAMMAR = {
    "antichain": (Antichain, None),
    "erdos": (ErdosWindow, "k"),
    "katona": (KatonaGap, "k"),
    "ratio": (RatioLambda, "lambda"),
    "intratio": (IntegerRatio, "c"),
    "custom": (CustomPairwise, "file"),
}


def parse_condition(text: str) -> Condition:
    """Parse the condition grammar.

    antichain | erdos:k=<int> | katona:k=<int> | ratio:lambda=<p>/<q>
    | intratio:c=<int> | custom:file=<path>
    """
    name, _, params = text.partition(":")
    if name not in CONDITION_GRAMMAR:
        raise UsageError(f"unknown condition '{name}'")
    kind, key = CONDITION_GRAMMAR[name]
    if key is None:
        if params:
            raise UsageError(f"{name} takes no parameters, got '{params}'")
        return kind()
    got_key, sep, value = params.partition("=")
    if not sep or got_key != key or not value:
        raise UsageError(f"{name} expects {key}=<value>, got '{params}'")
    try:
        if key == "file":
            return load_custom_condition(value)
        return kind(_parse_ratio(value) if key == "lambda" else _parse_int(value))
    except (OSError, ValueError) as exc:
        raise UsageError(f"bad condition '{text}': {exc}") from exc


def condition_to_string(cond: Condition) -> str:
    for name, (kind, key) in CONDITION_GRAMMAR.items():
        if type(cond) is kind:
            break
    else:
        raise TypeError(f"not a condition: {cond!r}")
    if key is None:
        return name
    if key == "file":
        return f"{name}:n={cond.n}:pairs={len(cond.forbidden)}"
    if key == "lambda":  # p/q even for whole ratios: the parser needs the slash
        return f"{name}:lambda={cond.ratio.numerator}/{cond.ratio.denominator}"
    return f"{name}:{key}={getattr(cond, key)}"


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"expected an integer, got '{text}'") from None


def _parse_ratio(text: str) -> Fraction:
    # Both signs are checked here: Fraction(-3, -2) would pass the ratio's
    # own check, and a zero denominator would not reach it.
    num, sep, den = text.partition("/")
    if not sep:
        raise UsageError(f"lambda must look like p/q, got '{text}'")
    p, q = _parse_int(num), _parse_int(den)
    if p <= 0 or q <= 0:
        raise UsageError(f"lambda needs p > 0 and q > 0, got '{text}'")
    return Fraction(p, q)


def _positive_int(text: str) -> int:
    """argparse type for counts; rejects anything but an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got '{text}'")
    return value


@dataclass
class RunReport:
    """Self-describing result record; identical inputs reproduce identical outputs."""

    command: str
    inputs: dict
    outputs: dict
    provenance: str
    timing_ms: float = field(default=0.0)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "provenance": self.provenance,
            "timing_ms": self.timing_ms,
        }

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        if fmt == "csv":
            rows = [("command", self.command)]
            rows.extend(_flatten("inputs", self.inputs))
            rows.extend(_flatten("outputs", self.outputs))
            rows.append(("provenance", self.provenance))
            rows.append(("timing_ms", _plain(self.timing_ms)))
            return "key,value\n" + "\n".join(f"{k},{_csv_cell(v)}" for k, v in rows)
        if fmt == "text":
            lines = [f"command: {self.command}"]
            lines.extend(f"{k}: {v}" for k, v in _flatten("", self.inputs))
            lines.extend(f"{k}: {v}" for k, v in _flatten("", self.outputs))
            lines.append(f"provenance: {self.provenance}")
            lines.append(f"timing_ms: {self.timing_ms}")
            return "\n".join(lines)
        raise UsageError(f"unknown format '{fmt}'")


def _flatten(prefix: str, value) -> list[tuple[str, str]]:
    if isinstance(value, dict):
        out = []
        for key in value:
            sub = f"{prefix}.{key}" if prefix else key
            out.extend(_flatten(sub, value[key]))
        return out
    if isinstance(value, list) and value and isinstance(value[0], dict):
        out = []
        for i, item in enumerate(value):
            out.extend(_flatten(f"{prefix}.{i}", item))
        return out
    return [(prefix, _plain(value))]


def _plain(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return " ".join(_plain(v) for v in value)
    return str(value)


def _csv_cell(text: str) -> str:
    if any(ch in text for ch in ",\"\n"):
        return '"' + text.replace('"', '""') + '"'
    return text


def _levels_list(levels: Sequence[int]) -> list[int]:
    return [int(h) for h in levels]


def _parse_levels(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(
            f"levels must be comma-separated integers with no empty items, got '{text}'"
        ) from None


def _closed_form_value(n: int, cond: Condition) -> int | None:
    if isinstance(cond, Antichain):
        return sperner_bound(n)
    if isinstance(cond, ErdosWindow):
        return erdos_bound(n, cond.k)
    if isinstance(cond, KatonaGap):
        return katona_bound(n, cond.k)
    if isinstance(cond, (RatioLambda, IntegerRatio)):
        return best_ratio_window(n, cond.ratio)[0] if n >= 1 else 1
    return None


def cmd_bound(args: argparse.Namespace) -> RunReport:
    cond = parse_condition(args.condition)
    result = size_bound(args.n, cond)
    outputs = {
        "value": str(result.value),
        "witness": _levels_list(result.witness),
    }
    closed = _closed_form_value(args.n, cond)
    if closed is not None:
        outputs["closed_form"] = str(closed)
        outputs["closed_form_equal"] = closed == result.value
    report = RunReport(
        command="bound",
        inputs=_echo_inputs(args, condition=True),
        outputs=outputs,
        provenance=result.method,
    )
    if closed is not None and closed != result.value:
        raise MismatchReport(
            report, f"internal inconsistency: optimizer {result.value} != closed form {closed}"
        )
    return report


def cmd_chains(args: argparse.Namespace) -> RunReport:
    cond = parse_condition(args.condition)
    if args.ell < 1:
        raise UsageError(f"--ell must be a positive integer, got {args.ell}")
    inputs = _echo_inputs(args, condition=True, ell=True)
    if args.levels is not None:
        levels = _parse_levels(args.levels)
        inputs["levels"] = _levels_list(levels)
        count = count_chains_levels(args.n, levels, args.ell)
        outputs = {
            "value": str(count),
            "witness": _levels_list(sorted(levels)),
            "allowed": allowed_levels(cond, levels),
        }
        return RunReport("chains", inputs, outputs, provenance="direct-count")
    result = optimal_levels_for_chains(args.n, cond, args.ell, node_budget=args.budget)
    outputs = {
        "value": str(result.count),
        "witness": _levels_list(result.levels),
    }
    return RunReport("chains", inputs, outputs, provenance="enumeration")


def cmd_verify(args: argparse.Namespace) -> RunReport:
    cond = parse_condition(args.condition)
    inputs = _echo_inputs(args, condition=True)
    if args.ell is not None:
        inputs["ell"] = args.ell
    named = not isinstance(cond, CustomPairwise)

    if args.family is not None:
        family = FamilyMask.from_hex(args.n, args.family)
        inputs["family"] = family.to_hex()
        bound = size_bound(args.n, cond)
        satisfies = family_satisfies(family, cond)
        outputs = {
            "family_size": str(family.size()),
            "satisfies": satisfies,
            "bound": str(bound.value),
            "within_bound": (not satisfies) or family.size() <= bound.value,
        }
        if args.ell is not None:
            outputs["chain_count"] = str(count_chains_family(family, args.ell))
        report = RunReport("verify", inputs, outputs, provenance="family-check")
        if not outputs["within_bound"]:
            raise MismatchReport(report, "family satisfies the condition but exceeds the bound")
        return report

    if args.n > OPTIMIZE_MAX_N and not args.accept_exponential:
        raise UsageError(
            f"verify is exponential; n={args.n} > {OPTIMIZE_MAX_N} needs --accept-exponential"
        )
    bound = size_bound(args.n, cond)
    brute_size, _ = max_family(args.n, cond, accept_exponential=args.accept_exponential)
    outputs = {
        "bound": str(bound.value),
        "witness": _levels_list(bound.witness),
        "brute": str(brute_size),
        "equal": bound.value == brute_size,
    }
    mismatch = bound.value < brute_size or (named and bound.value != brute_size)
    if args.ell is not None:
        if args.n > CHAIN_OPTIMIZE_MAX_N and not args.accept_exponential:
            raise UsageError(
                f"chain verification needs n <= {CHAIN_OPTIMIZE_MAX_N} or --accept-exponential"
            )
        chain_opt = optimal_levels_for_chains(args.n, cond, args.ell)
        chain_brute, _ = max_chains_family(
            args.n, cond, args.ell, accept_exponential=args.accept_exponential
        )
        outputs["chains_bound"] = str(chain_opt.count)
        outputs["chains_brute"] = str(chain_brute)
        outputs["chains_equal"] = chain_opt.count == chain_brute
        mismatch = mismatch or chain_opt.count < chain_brute
        mismatch = mismatch or (named and chain_opt.count != chain_brute)
    report = RunReport("verify", inputs, outputs, provenance="brute-force")
    if mismatch:
        raise MismatchReport(report)
    return report


def _reproduction_rows() -> list[dict]:
    rows = []

    def add(name: str, expected: str, actual: str) -> None:
        rows.append(
            {"name": name, "expected": expected, "actual": actual, "pass": expected == actual}
        )

    add(
        "2-chains in levels {0,3,6} of [6]",
        "41",
        str(count_chains_levels(6, (0, 3, 6), 2)),
    )
    add(
        "2-chains in levels {1,4} of [6]",
        "60",
        str(count_chains_levels(6, (1, 4), 2)),
    )
    add(
        "nested pair weight, n=6, sizes 1 and 4",
        "60",
        str(chain_weight(6, (1, 4))),
    )
    best21 = optimal_levels_for_chains(21, KatonaGap(5), 2)
    add(
        "optimal 2-chain levels, n=21, gap 5",
        "2 7 14 19",
        " ".join(str(h) for h in best21.levels),
    )
    add(
        "levels {0,3,6} allowed under gap 3",
        "true",
        "true" if allowed_levels(KatonaGap(3), (0, 3, 6)) else "false",
    )
    add(
        "levels {1,4} of [6] satisfy gap 3",
        "true",
        "true" if family_satisfies(FamilyMask.from_levels(6, (1, 4)), KatonaGap(3)) else "false",
    )
    add(
        "gap-2 bound is 2^(n-1) for n <= 30",
        "true",
        "true" if all(katona_bound(n, 2) == 2 ** (n - 1) for n in range(1, 31)) else "false",
    )
    add(
        "both gap-2 residue classes weigh 2^(n-1) for n <= 30",
        "true",
        "true"
        if all(
            all(weight == 2 ** (n - 1) for _, weight in residue_class_weights(n, 2))
            for n in range(1, 31)
        )
        else "false",
    )
    return rows


def cmd_reproduce(args: argparse.Namespace) -> RunReport:
    rows = _reproduction_rows()
    outputs = {"rows": rows, "all_pass": all(row["pass"] for row in rows)}
    report = RunReport(
        command="reproduce",
        inputs={"threads": args.threads},
        outputs=outputs,
        provenance="fixed-suite",
    )
    if not outputs["all_pass"]:
        raise MismatchReport(report)
    return report


def _echo_inputs(args: argparse.Namespace, *, condition: bool = False, ell: bool = False) -> dict:
    inputs: dict = {"n": args.n}
    if condition:
        inputs["condition"] = args.condition
    if ell:
        inputs["ell"] = args.ell
    inputs["threads"] = args.threads
    return inputs


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _add_common_flags(parser: argparse.ArgumentParser, *, suppress: bool) -> None:
    # The common flags live on the main parser with real defaults and on each
    # subparser with SUPPRESS defaults, so they parse on either side of the
    # subcommand without the subparser default clobbering an earlier value.
    try:
        default_threads = _positive_int(os.environ.get(THREADS_ENV_VAR, "1"))
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"{THREADS_ENV_VAR} {exc}") from None
    parser.add_argument(
        "--threads",
        type=_positive_int,
        default=argparse.SUPPRESS if suppress else default_threads,
        help="reserved: validated, but no search reads it yet (results are independent of it)",
    )
    parser.add_argument(
        "--format",
        choices=("json", "csv", "text"),
        default=argparse.SUPPRESS if suppress else "text",
        help="output format",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chainweight",
        description="Exact bounds and ell-chain optimization for nested-pair size conditions",
    )
    _add_common_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    bound = sub.add_parser("bound", help="largest weight of an allowed level set")
    bound.add_argument("--n", type=int, required=True)
    bound.add_argument("--condition", required=True)
    _add_common_flags(bound, suppress=True)
    bound.set_defaults(func=cmd_bound)

    chains = sub.add_parser("chains", help="count or maximize ell-chains over level sets")
    chains.add_argument("--n", type=int, required=True)
    chains.add_argument("--condition", required=True)
    chains.add_argument("--ell", type=int, required=True)
    chains.add_argument("--levels", help="comma-separated levels; omit to optimize")
    chains.add_argument(
        "--budget", type=_positive_int, default=10**8, help="search node budget for the optimizer"
    )
    _add_common_flags(chains, suppress=True)
    chains.set_defaults(func=cmd_chains)

    verify = sub.add_parser("verify", help="certify bounds against brute force")
    verify.add_argument("--n", type=int, required=True)
    verify.add_argument("--condition", required=True)
    verify.add_argument("--ell", type=int)
    verify.add_argument("--family", help="ad-hoc family as a hex indicator string")
    verify.add_argument(
        "--accept-exponential",
        action="store_true",
        help="lift the brute-force size caps",
    )
    _add_common_flags(verify, suppress=True)
    verify.set_defaults(func=cmd_verify)

    reproduce = sub.add_parser("reproduce", help="run the fixed witness suite")
    _add_common_flags(reproduce, suppress=True)
    reproduce.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    start = time.perf_counter()
    try:
        report = args.func(args)
    except ValueError as exc:  # UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SearchBudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MismatchReport as exc:
        exc.report.timing_ms = round((time.perf_counter() - start) * 1000, 3)
        print(exc.report.render(args.format))
        print(exc, file=sys.stderr)
        return EXIT_MISMATCH
    report.timing_ms = round((time.perf_counter() - start) * 1000, 3)
    print(report.render(args.format))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
