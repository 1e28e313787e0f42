"""Command-line front end: bounds, chain counts, brute-force verification, reproduction.

Exit codes: 0 success, 1 usage or parse error, 2 verification mismatch,
3 search budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from fractions import Fraction
from typing import Sequence

# chaincount and families load inside the commands that call them, so a
# process compiles and runs only the modules its command needs.
from .binom import chain_weight
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
from .levelbounds import (
    DEFAULT_NODE_BUDGET,
    SearchBudgetExceeded,
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
MISMATCH = "verification mismatch"


class UsageError(ValueError):
    """Bad command-line input; maps to exit code 1."""


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
    except (OSError, ValueError, argparse.ArgumentTypeError) as exc:
        raise UsageError(f"bad condition '{text}': {exc}") from exc


def _parse_int(text: str) -> int:
    """The command line's one integer syntax: ASCII digits, optionally after
    a minus sign.  int() would also take a plus sign, surrounding spaces,
    underscores and non-ASCII digits."""
    if re.fullmatch("-?[0-9]+", text) is None:
        raise argparse.ArgumentTypeError(f"expected an integer, got '{text}'")
    return int(text)


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
    """argparse type for counts: the integer syntax above, value >= 1."""
    if re.fullmatch("0*[1-9][0-9]*", text) is None:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got '{text}'")
    return int(text)


def _render(report: dict, fmt: str, timing_ms: float) -> str:
    """Render a command's report (command, inputs, outputs, provenance); the
    command's wall time is not part of it, `main` measures and passes it."""
    if fmt == "json":
        return json.dumps(dict(report, timing_ms=timing_ms), sort_keys=True, separators=(",", ":"))
    if fmt == "csv":
        rows = [("command", report["command"])]
        rows.extend(_flatten("inputs", report["inputs"]))
        rows.extend(_flatten("outputs", report["outputs"]))
        rows.append(("provenance", report["provenance"]))
        rows.append(("timing_ms", _plain(timing_ms)))
        return "key,value\n" + "\n".join(f"{k},{_csv_cell(v)}" for k, v in rows)
    if fmt == "text":
        lines = [f"command: {report['command']}"]
        lines.extend(f"{k}: {v}" for k, v in _flatten("", report["inputs"]))
        lines.extend(f"{k}: {v}" for k, v in _flatten("", report["outputs"]))
        lines.append(f"provenance: {report['provenance']}")
        lines.append(f"timing_ms: {timing_ms}")
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


def _parse_levels(text: str) -> tuple[int, ...]:
    if re.fullmatch("-?[0-9]+(,-?[0-9]+)*", text) is None:
        raise UsageError(
            f"levels must be comma-separated integers with no empty items, got '{text}'"
        )
    return tuple(map(int, text.split(",")))


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


def cmd_bound(args: argparse.Namespace) -> tuple[dict, str | None]:
    cond = parse_condition(args.condition)
    result = size_bound(args.n, cond)
    outputs = {
        "value": str(result.value),
        "witness": list(result.witness),
    }
    closed = _closed_form_value(args.n, cond)
    if closed is not None:
        outputs["closed_form"] = str(closed)
        outputs["closed_form_equal"] = closed == result.value
    report = dict(
        command="bound", inputs=_echo_inputs(args), outputs=outputs, provenance=result.method
    )
    if closed is not None and closed != result.value:
        return report, f"internal inconsistency: optimizer {result.value} != closed form {closed}"
    return report, None


def cmd_chains(args: argparse.Namespace) -> tuple[dict, str | None]:
    from .chaincount import count_chains_levels, optimal_levels_for_chains

    cond = parse_condition(args.condition)
    inputs = _echo_inputs(args, ell=True)
    if args.levels is not None:
        levels = _parse_levels(args.levels)
        inputs["levels"] = list(levels)
        count = count_chains_levels(args.n, levels, args.ell)
        outputs = {
            "value": str(count),
            "witness": sorted(levels),
            "allowed": allowed_levels(cond, levels),
        }
        report = dict(command="chains", inputs=inputs, outputs=outputs, provenance="direct-count")
        return report, None
    result = optimal_levels_for_chains(args.n, cond, args.ell, node_budget=args.budget)
    outputs = {
        "value": str(result.count),
        "witness": list(result.levels),
    }
    return dict(command="chains", inputs=inputs, outputs=outputs, provenance="enumeration"), None


def cmd_verify(args: argparse.Namespace) -> tuple[dict, str | None]:
    """Check size_bound (and, with --ell, the chain optimum) against brute force.

    Every pairwise size condition, custom tables included, is
    chain-dependent: a family F satisfies it iff F meets each full chain C in
    an allowed level set.  Averaging over the n! full chains gives
    |F| <= size_bound and count_chains_family(F, ell) <=
    optimal_levels_for_chains, and the union of the optimal levels attains
    both, so any difference from brute force is a mismatch (exit 2).
    """
    from .families import (
        CHAIN_OPTIMIZE_MAX_N,
        FamilyMask,
        OPTIMIZE_MAX_N,
        count_chains_family,
        family_satisfies,
        max_chains_family,
        max_family,
    )

    cond = parse_condition(args.condition)
    inputs = _echo_inputs(args)
    if args.ell is not None:
        inputs["ell"] = args.ell

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
        report = dict(command="verify", inputs=inputs, outputs=outputs, provenance="family-check")
        if not outputs["within_bound"]:
            return report, "family satisfies the condition but exceeds the bound"
        return report, None

    if args.n > OPTIMIZE_MAX_N and not args.accept_exponential:
        raise UsageError(
            f"verify is exponential; n={args.n} > {OPTIMIZE_MAX_N} needs --accept-exponential"
        )
    if args.ell is not None and args.n > CHAIN_OPTIMIZE_MAX_N and not args.accept_exponential:
        raise UsageError(
            f"chain verification needs n <= {CHAIN_OPTIMIZE_MAX_N} or --accept-exponential"
        )
    bound = size_bound(args.n, cond)
    brute_size, _ = max_family(args.n, cond, accept_exponential=args.accept_exponential)
    outputs = {
        "bound": str(bound.value),
        "witness": list(bound.witness),
        "brute": str(brute_size),
        "equal": bound.value == brute_size,
    }
    if args.ell is not None:
        from .chaincount import optimal_levels_for_chains

        chain_opt = optimal_levels_for_chains(args.n, cond, args.ell)
        chain_brute, _ = max_chains_family(
            args.n, cond, args.ell, accept_exponential=args.accept_exponential
        )
        outputs["chains_bound"] = str(chain_opt.count)
        outputs["chains_brute"] = str(chain_brute)
        outputs["chains_equal"] = chain_opt.count == chain_brute
    report = dict(command="verify", inputs=inputs, outputs=outputs, provenance="brute-force")
    if not (outputs["equal"] and outputs.get("chains_equal", True)):
        return report, MISMATCH
    return report, None


def _reproduction_rows() -> list[dict]:
    from .chaincount import count_chains_levels, optimal_levels_for_chains
    from .families import FamilyMask, family_satisfies

    checks = [
        ("2-chains in levels {0,3,6} of [6]", "41", lambda: count_chains_levels(6, (0, 3, 6), 2)),
        ("2-chains in levels {1,4} of [6]", "60", lambda: count_chains_levels(6, (1, 4), 2)),
        ("nested pair weight, n=6, sizes 1 and 4", "60", lambda: chain_weight(6, (1, 4))),
        (
            "optimal 2-chain levels, n=21, gap 5",
            "2 7 14 19",
            lambda: list(optimal_levels_for_chains(21, KatonaGap(5), 2).levels),
        ),
        (
            "levels {0,3,6} allowed under gap 3",
            "true",
            lambda: allowed_levels(KatonaGap(3), (0, 3, 6)),
        ),
        (
            "levels {1,4} of [6] satisfy gap 3",
            "true",
            lambda: family_satisfies(FamilyMask.from_levels(6, (1, 4)), KatonaGap(3)),
        ),
        (
            "gap-2 bound is 2^(n-1) for n <= 30",
            "true",
            lambda: all(katona_bound(n, 2) == 2 ** (n - 1) for n in range(1, 31)),
        ),
        (
            "both gap-2 residue classes weigh 2^(n-1) for n <= 30",
            "true",
            lambda: all(
                weight == 2 ** (n - 1)
                for n in range(1, 31)
                for _, weight in residue_class_weights(n, 2)
            ),
        ),
    ]
    rows = []
    for name, expected, thunk in checks:
        actual = _plain(thunk())
        rows.append(
            {"name": name, "expected": expected, "actual": actual, "pass": expected == actual}
        )
    return rows


def cmd_reproduce(args: argparse.Namespace) -> tuple[dict, str | None]:
    rows = _reproduction_rows()
    outputs = {"rows": rows, "all_pass": all(row["pass"] for row in rows)}
    inputs = {"threads": args.threads}
    report = dict(command="reproduce", inputs=inputs, outputs=outputs, provenance="fixed-suite")
    if not outputs["all_pass"]:
        return report, MISMATCH
    return report, None


def _echo_inputs(args: argparse.Namespace, *, ell: bool = False) -> dict:
    inputs: dict = {"n": args.n, "condition": args.condition}
    if ell:
        inputs["ell"] = args.ell
    inputs["threads"] = args.threads
    return inputs


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    # The common flags live on the main parser and on each subparser with
    # SUPPRESS defaults, so they parse on either side of the subcommand without
    # a subparser default clobbering an earlier value; only the main parser
    # holds their real defaults.
    parser.add_argument(
        "--threads",
        type=_positive_int,
        default=argparse.SUPPRESS,
        help="reserved: validated, but no search reads it yet (results are independent of it)",
    )
    parser.add_argument(
        "--format", choices=("json", "csv", "text"), default=argparse.SUPPRESS, help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    try:
        threads = _positive_int(os.environ.get(THREADS_ENV_VAR, "1"))
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"{THREADS_ENV_VAR} {exc}") from None
    parser = _Parser(
        prog="chainweight",
        description="Exact bounds and ell-chain optimization for nested-pair size conditions",
    )
    _add_common_flags(parser)
    parser.set_defaults(threads=threads, format="text")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    bound = sub.add_parser("bound", help="largest weight of an allowed level set")
    chains = sub.add_parser("chains", help="count or maximize ell-chains over level sets")
    verify = sub.add_parser("verify", help="certify bounds against brute force")
    reproduce = sub.add_parser("reproduce", help="run the fixed witness suite")
    for command in (bound, chains, verify):
        command.add_argument("--n", type=_parse_int, required=True)
        command.add_argument("--condition", required=True)

    chains.add_argument("--ell", type=_positive_int, required=True)
    chains.add_argument("--levels", help="comma-separated levels; omit to optimize")
    chains.add_argument(
        "--budget",
        type=_positive_int,
        default=DEFAULT_NODE_BUDGET,
        help="search node budget for the optimizer",
    )
    verify.add_argument("--ell", type=_positive_int)
    verify.add_argument("--family", help="ad-hoc family as a hex indicator string")
    verify.add_argument(
        "--accept-exponential",
        action="store_true",
        help="lift the brute-force size caps",
    )

    funcs = (cmd_bound, cmd_chains, cmd_verify, cmd_reproduce)
    for command, func in zip((bound, chains, verify, reproduce), funcs):
        _add_common_flags(command)
        command.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        start = time.perf_counter()
        report, reason = args.func(args)
    except ValueError as exc:  # UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SearchBudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    timing_ms = round((time.perf_counter() - start) * 1000, 3)
    try:
        print(_render(report, args.format, timing_ms), flush=True)
    except BrokenPipeError:
        # The reader has gone: send the rest of stdout, and the flush at exit,
        # to devnull, and still end with the command's own verdict.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if reason is None:
        return EXIT_OK
    print(reason, file=sys.stderr)
    return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
