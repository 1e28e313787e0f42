"""One sha256 per named set of library answers, to show that a change keeps them.

Run it on two checkouts and compare the output:

    PYTHONPATH=<tree>/src python3 tools/answer_digest.py [--small]

It prints JSON mapping each set to its number of answers and the sha256 of
their lines.  The sets:

- bounds: `size_bound` (value, witness and method) on every named condition
  kind for n up to a limit, and on seeded custom tables;
- levels: `optimal_levels_for_chains` at ell 1..4 on KatonaGap(k), on the
  window conditions and, at ell 1..3, on the seeded tables of small n;
- windows: `best_window_for_chains` at every k and ell 1..4.

Each answer is one line, `query -> answer`.  An input a function refuses is
hashed by its exception's type name, so a new refusal changes the digest.
It reads only public names, so it runs on older checkouts too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
from fractions import Fraction

from chainweight import (
    Antichain,
    CustomPairwise,
    ErdosWindow,
    IntegerRatio,
    KatonaGap,
    RatioLambda,
    best_window_for_chains,
    optimal_levels_for_chains,
    size_bound,
)

FULL = {"tables": 600, "max_n": 60, "table_chain_max_n": 18, "max_k": 7}
# The set a tier-1 test pins: well under a second.
SMALL = {"tables": 40, "max_n": 16, "table_chain_max_n": 10, "max_k": 4}


def custom_tables(count: int, max_n: int, seed: int = 0):
    """(label, n, table): seeded tables over n in [0, max_n], densities 0.02 to 0.6."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(0, max_n)
        density = rng.choice((0.02, 0.05, 0.1, 0.3, 0.6))
        pairs = [(a, b) for b in range(n + 1) for a in range(b) if rng.random() < density]
        yield f"custom#{i}", n, CustomPairwise(n, pairs)


def window_conditions():
    yield "antichain", Antichain()
    for k in range(1, 5):
        yield f"erdos:k={k}", ErdosWindow(k)
    for p, q in ((3, 2), (5, 3)):
        yield f"ratio:lambda={p}/{q}", RatioLambda(Fraction(p, q))
    for c in (2, 3):
        yield f"intratio:c={c}", IntegerRatio(c)


def gap_conditions(max_k: int):
    for k in range(1, max_k + 1):
        yield f"katona:k={k}", KatonaGap(k)


def _answer(fn, *args) -> str:
    try:
        result = fn(*args)
    except Exception as exc:  # a refusal is an answer too
        return type(exc).__name__
    if hasattr(result, "method"):
        return f"{result.value} {result.witness} {result.method}"
    if hasattr(result, "levels"):
        return f"{result.count} {result.levels}"
    return str(result)


def bounds(scale: dict):
    named = [*window_conditions(), *gap_conditions(scale["max_k"])]
    for label, cond in named:
        for n in range(scale["max_n"] + 1):
            yield f"size_bound {n} {label} -> {_answer(size_bound, n, cond)}"
    for label, n, table in custom_tables(scale["tables"], scale["max_n"]):
        yield f"size_bound {n} {label} -> {_answer(size_bound, n, table)}"


def levels(scale: dict):
    named = [*gap_conditions(scale["max_k"]), *window_conditions()]
    for label, cond in named:
        for n in range(scale["max_n"] + 1):
            for ell in range(1, 5):
                answer = _answer(optimal_levels_for_chains, n, cond, ell)
                yield f"levels {n} {label} {ell} -> {answer}"
    for label, n, table in custom_tables(scale["tables"], scale["max_n"]):
        if n <= scale["table_chain_max_n"]:
            for ell in range(1, 4):
                answer = _answer(optimal_levels_for_chains, n, table, ell)
                yield f"levels {n} {label} {ell} -> {answer}"


def windows(scale: dict):
    for n in range(1, scale["max_n"]):
        for k in range(1, n + 1):
            for ell in range(1, min(k + 1, 4) + 1):
                answer = _answer(best_window_for_chains, n, k, ell)
                yield f"window {n} {k} {ell} -> {answer}"


SETS = {"bounds": bounds, "levels": levels, "windows": windows}


def digest(scale: dict) -> dict:
    """{set name: {"answers": count, "sha256": hex digest of the answer lines}}."""
    out = {}
    for name, lines in SETS.items():
        h = hashlib.sha256()
        count = 0
        for line in lines(scale):
            h.update(line.encode() + b"\n")
            count += 1
        out[name] = {"answers": count, "sha256": h.hexdigest()}
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--small", action="store_true", help="the small set the tests pin")
    args = parser.parse_args()
    print(json.dumps(digest(SMALL if args.small else FULL), indent=2))


if __name__ == "__main__":
    main()
