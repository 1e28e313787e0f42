"""Recorded optima of the level-set ell-chain search.

golden/chain_optima.json holds one [condition, ell, n, count, levels] case per
line for every named condition in GRID, ell 2 and 3, and n from 0 to the
grid's limit.  For KatonaGap with k >= 2 the limits are where the depth-first
search with the plain reachable-set bound took about 2 s per call; that search
stays under 0.3 s up to n = 64 on the other conditions, which are capped at
n = 40, the top of the benchmark's band for them.  The cases were recorded
with that search, so the file pins both the optimum and the lexicographically
smallest witness.  Regenerate it only when an answer change is intended:

    PYTHONPATH=src python tests/test_chain_golden.py
"""

import json
from pathlib import Path

from chainweight import optimal_levels_for_chains
from chainweight.cli import parse_condition

GOLDEN = Path(__file__).parent / "golden" / "chain_optima.json"

# condition -> largest n for ell = 2 and for ell = 3
GRID = {
    "antichain": (40, 40),
    "erdos:k=1": (40, 40),
    "erdos:k=2": (40, 40),
    "erdos:k=3": (40, 40),
    "erdos:k=4": (40, 40),
    "katona:k=1": (40, 40),
    "katona:k=2": (30, 28),
    "katona:k=3": (34, 31),
    "katona:k=4": (38, 35),
    "katona:k=5": (43, 40),
    "katona:k=6": (48, 43),
    "ratio:lambda=3/2": (40, 40),
    "ratio:lambda=2/1": (40, 40),
    "ratio:lambda=5/2": (40, 40),
    "ratio:lambda=3/1": (40, 40),
    "intratio:c=2": (40, 40),
    "intratio:c=3": (40, 40),
    "intratio:c=4": (40, 40),
}


def grid() -> list[tuple[str, int, int]]:
    return [
        (token, ell, n)
        for token, limits in GRID.items()
        for ell, limit in zip((2, 3), limits)
        for n in range(limit + 1)
    ]


def solve(token: str, ell: int, n: int) -> list:
    result = optimal_levels_for_chains(n, parse_condition(token), ell)
    return [token, ell, n, result.count, list(result.levels)]


def test_chain_optima_match_recording():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [tuple(case[:3]) for case in expected] == grid()
    for case in expected:
        assert solve(*case[:3]) == case


if __name__ == "__main__":
    cases = [solve(*key) for key in grid()]
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(c) for c in cases) + "\n]\n", encoding="utf-8")
