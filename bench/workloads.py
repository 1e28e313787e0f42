"""Seeded inputs, timed calls and answer checks for the four benchmark workloads.

Ops come in rounds.  Every round of a workload holds the same op kinds in
the same numbers; only their order and parameters change with the seed.
The parameter that sets an op's cost (mostly n) is stratified: the m slots
of a kind in a round split its band into m cells, one slot per cell, and
the point inside each cell follows a Kronecker sequence with a seeded
offset.  So every run covers each band evenly whatever the seed, and the
latency quantiles do not hinge on which n a seed happened to draw.
Condition types rotate over the slots the same way.  Op i depends only on
(workload, seed, i).

The benchmark calls the program through module attributes
(`lb.size_bound`, `fam.FamilyMask.from_levels`, ...) so the traced run can
rebind those names (see tracing.py).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction

from chainweight import chaincount as cc
from chainweight import conditions
from chainweight import families as fam
from chainweight import levelbounds as lb
from chainweight.binom import chain_weight
from chainweight.conditions import (
    Antichain,
    CustomPairwise,
    ErdosWindow,
    IntegerRatio,
    KatonaGap,
    RatioLambda,
)

_GOLDEN = 0.6180339887498949  # Kronecker step: any prefix covers [0, 1) evenly

RATIOS = (Fraction(3, 2), Fraction(5, 3), Fraction(7, 4), Fraction(2), Fraction(5, 2), Fraction(3))


class CheckFailed(Exception):
    """An op returned an answer that breaks one of its identities."""


@dataclass(frozen=True)
class Op:
    index: int
    kind: str
    args: tuple


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def digest(answer) -> str:
    """Short hash of an answer's canonical JSON form."""
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def condition_text(cond) -> str:
    """The CLI spelling of a named condition."""
    if isinstance(cond, Antichain):
        return "antichain"
    if isinstance(cond, ErdosWindow):
        return f"erdos:k={cond.k}"
    if isinstance(cond, KatonaGap):
        return f"katona:k={cond.k}"
    if isinstance(cond, RatioLambda):
        return f"ratio:lambda={cond.ratio.numerator}/{cond.ratio.denominator}"
    if isinstance(cond, IntegerRatio):
        return f"intratio:c={cond.c}"
    raise TypeError(f"no CLI spelling for {type(cond).__name__}")


def _named(i: int, rng: random.Random):
    """The i-th named condition type, cycling through all five."""
    which = i % 5
    if which == 0:
        return Antichain()
    if which == 1:
        return ErdosWindow(rng.randint(1, 5))
    if which == 2:
        return KatonaGap(rng.randint(2, 6))
    if which == 3:
        return RatioLambda(rng.choice(RATIOS))
    return IntegerRatio(rng.randint(2, 4))


def _allowed_set(n: int, cond, rng: random.Random, limit: int) -> tuple[int, ...]:
    """A random allowed level set of at most `limit` levels, grown greedily."""
    chosen: list[int] = []
    for h in rng.sample(range(n + 1), n + 1):
        if len(chosen) == limit:
            break
        if conditions.allowed_levels(cond, chosen + [h]):
            chosen.append(h)
    return tuple(sorted(chosen))


def _chain_weight_sum(n: int, levels, ell: int) -> int:
    """ell-chain count of a union of levels, summed over size sequences."""
    return sum(chain_weight(n, sizes) for sizes in itertools.combinations(sorted(levels), ell))


def _level_weight(n: int, levels) -> int:
    return sum(math.comb(n, h) for h in levels)


def _indicator(n: int, keep) -> int:
    """Family bits over all 2^n subset masks from a per-mask predicate."""
    return int("".join("1" if keep(m) else "0" for m in reversed(range(1 << n))) or "0", 2)


class Workload:
    """Base: a round of op kinds plus per-kind input makers, runners and checks."""

    name = ""
    slots: tuple[str, ...] = ()
    calibration = "bigint"  # the task op times are scaled by, see calibrate.py
    calibration_exponent = 1.0

    def __init__(self, seed: int):
        self.seed = seed

    def _jitter(self, key: str, r: int) -> float:
        """Point r of a Kronecker sequence with a seeded offset, in [0, 1)."""
        u0 = random.Random(f"{self.name}:{self.seed}:{key}").random()
        return (u0 + r * _GOLDEN) % 1.0

    def _slot(self, kind: str, c: int) -> tuple[int, int]:
        """(slot q of the kind within its round, round r) of the kind's c-th op."""
        m = self.slots.count(kind)
        return c % m, c // m

    def _band(self, kind: str, c: int, lo: int, hi: int) -> int:
        """An integer in cell q of the m equal cells of [lo, hi]."""
        q, r = self._slot(kind, c)
        cell = (q + self._jitter(kind, r)) / self.slots.count(kind)
        return lo + int(cell * (hi - lo + 1))

    def _turn(self, kind: str, c: int) -> int:
        """Rotation index: each slot cycles through every option over the rounds."""
        q, r = self._slot(kind, c)
        return q + r

    def round(self, r: int) -> list[Op]:
        """The ops of round r, in a seeded order."""
        seen: dict[str, int] = {}
        per_round = {kind: self.slots.count(kind) for kind in self.slots}
        made = []
        for kind in self.slots:
            c = r * per_round[kind] + seen.get(kind, 0)
            seen[kind] = seen.get(kind, 0) + 1
            made.append((kind, c))
        random.Random(f"{self.name}:{self.seed}:order:{r}").shuffle(made)
        base = r * len(self.slots)
        ops = []
        for j, (kind, c) in enumerate(made):
            rng = random.Random(f"{self.name}:{self.seed}:op:{base + j}")
            ops.append(Op(base + j, kind, getattr(self, f"make_{kind}")(c, rng)))
        return ops

    def run(self, op: Op):
        """The timed call into the program."""
        return getattr(self, f"run_{op.kind}")(*op.args)

    def check(self, op: Op, answer) -> None:
        """Raise CheckFailed unless the answer satisfies the op's identities."""
        getattr(self, f"check_{op.kind}")(op.args, answer)

    def canonical(self, op: Op, answer):
        """A JSON-able form of the answer, hashed for the reference digest."""
        return getattr(self, f"canonical_{op.kind}")(answer)

    def compute_ms(self, answer) -> float | None:
        """Compute time the program reports for itself, where it reports one."""
        return None


# -- bounds ---------------------------------------------------------------


def _closed_form(n: int, cond):
    if isinstance(cond, Antichain):
        return lb.sperner_bound(n)
    if isinstance(cond, ErdosWindow):
        return lb.erdos_bound(n, cond.k)
    if isinstance(cond, KatonaGap):
        return lb.katona_bound(n, cond.k)
    if isinstance(cond, RatioLambda):
        return lb.best_ratio_window(n, cond.ratio)[0]
    if isinstance(cond, IntegerRatio):
        return lb.best_ratio_window(n, Fraction(cond.c))[0]
    return None


class Bounds(Workload):
    """size_bound plus the matching closed form, as `chainweight bound` runs them.

    Bands: n <= 64, 65..511 (inside the Pascal-row cache) and 512..800 (past
    it).  Ratio conditions past the cache cost O(n^2) big-integer sums, about
    a second each, so their band stops at 540; four per round put them
    above p90.  Eight cheap named conditions past the cache put p50 among
    ops of similar cost.  Custom tables have n 40..120 and density 0.2..0.5,
    except that above n = 80 the density starts at 0.3: sparse large tables
    make the unbudgeted branch and bound take seconds.
    """

    name = "bounds"
    slots = ("small",) * 5 + ("mid",) * 5 + ("large",) * 8 + ("custom",) * 2 + ("large_ratio",) * 4

    def make_small(self, c, rng):
        return (self._band("small", c, 1, 64), _named(self._turn("small", c), rng))

    def make_mid(self, c, rng):
        return (self._band("mid", c, 65, 511), _named(self._turn("mid", c), rng))

    def make_large(self, c, rng):
        options = (Antichain(), ErdosWindow(rng.randint(1, 5)), KatonaGap(rng.randint(2, 6)))
        return (self._band("large", c, 512, 800), options[self._turn("large", c) % 3])

    def make_large_ratio(self, c, rng):
        options = (IntegerRatio(2), RatioLambda(Fraction(3, 2)), RatioLambda(Fraction(5, 3)),
                   RatioLambda(Fraction(7, 4)))
        return (self._band("large_ratio", c, 512, 540), options[self._turn("large_ratio", c) % 4])

    def make_custom(self, c, rng):
        n = self._band("custom", c, 40, 120)
        low = 0.2 if n <= 80 else 0.3
        density = low + (0.5 - low) * self._jitter("custom.density", c)
        pairs = frozenset(
            (a, b) for a in range(n + 1) for b in range(a + 1, n + 1) if rng.random() < density
        )
        return (n, CustomPairwise(n, pairs))

    def _run(self, n, cond):
        result = lb.size_bound(n, cond)
        return result, _closed_form(n, cond)

    run_small = run_mid = run_large = run_large_ratio = run_custom = _run

    def _check(self, args, answer):
        n, cond = args
        result, closed = answer
        _require(closed is None or closed == result.value, f"closed form {closed} != size_bound {result.value}")
        _require(conditions.allowed_levels(cond, result.witness), f"witness {result.witness} not allowed")
        _require(_level_weight(n, result.witness) == result.value, "witness weight != value")

    check_small = check_mid = check_large = check_large_ratio = check_custom = _check

    def _canonical(self, answer):
        result, closed = answer
        return [str(result.value), list(result.witness), result.method, None if closed is None else str(closed)]

    canonical_small = canonical_mid = canonical_large = canonical_large_ratio = canonical_custom = _canonical

    def warmup(self) -> Op:
        return Op(-1, "small", (40, KatonaGap(3)))


# -- chains ---------------------------------------------------------------

# KatonaGap(k) search cost grows about 4x every 4 levels, faster for small k.
# Each (k, ell) case gets a band where it costs about 20-40 ms (the p50
# plateau) and four cases a band where they cost about 0.15-0.35 s (above
# p90); together they span n 18..32.
_TYPICAL = {
    (2, 2): (18, 20), (2, 3): (18, 19), (3, 2): (21, 23), (3, 3): (20, 22), (4, 2): (24, 26),
    (4, 3): (23, 24), (5, 2): (28, 29), (5, 3): (26, 27), (6, 2): (29, 31), (6, 3): (27, 28),
}
_HEAVY = {(2, 2): (25, 27), (3, 2): (28, 30), (3, 3): (26, 28), (4, 3): (30, 32)}


class Chains(Workload):
    """Level-set ell-chain search, windows and direct counts.

    Each round runs every (k, ell) KatonaGap case once in its typical band,
    four of them again in a heavy band, plus cheap Erdos, ratio and
    antichain searches, one window scan and one direct count.
    """

    name = "chains"
    calibration = "memory"
    calibration_exponent = 0.8
    slots = ("katona",) * len(_TYPICAL) + ("heavy",) * len(_HEAVY) + ("optimize", "optimize", "window", "count")

    def _katona(self, kind, bands, c):
        q, r = self._slot(kind, c)
        (k, ell), (lo, hi) = list(bands.items())[q]
        n = lo + int(self._jitter(f"{kind}{k}.{ell}", r) * (hi - lo + 1))
        return (n, KatonaGap(k), ell)

    def make_katona(self, c, rng):
        return self._katona("katona", _TYPICAL, c)

    def make_heavy(self, c, rng):
        return self._katona("heavy", _HEAVY, c)

    def make_optimize(self, c, rng):
        cond = _named(self._turn("optimize", c), rng)
        if isinstance(cond, KatonaGap):
            cond = ErdosWindow(cond.k)
        return (self._band("optimize", c, 18, 40), cond, 2 + self._slot("optimize", c)[1] % 2)

    def make_window(self, c, rng):
        k = rng.randint(1, 6)
        return (self._band("window", c, 18, 60), k, rng.randint(2, min(3, k + 1)))

    def make_count(self, c, rng):
        n = self._band("count", c, 18, 60)
        levels = _allowed_set(n, _named(c, rng), rng, 8)
        return (n, levels, rng.randint(2, 3))

    def _run_search(self, n, cond, ell):
        return cc.optimal_levels_for_chains(n, cond, ell)

    run_katona = run_heavy = run_optimize = _run_search

    def run_window(self, n, k, ell):
        return cc.best_window_for_chains(n, k, ell)

    def run_count(self, n, levels, ell):
        return cc.count_chains_levels(n, levels, ell)

    def _check_search(self, args, result):
        n, cond, ell = args
        _require(conditions.allowed_levels(cond, result.levels), f"witness {result.levels} not allowed")
        _require(_chain_weight_sum(n, result.levels, ell) == result.count, "witness does not recount")
        dense = lb.size_bound(n, cond).witness
        _require(result.count >= _chain_weight_sum(n, dense, ell), "beaten by the size_bound witness")

    check_katona = check_heavy = check_optimize = _check_search

    def check_window(self, args, answer):
        n, k, ell = args
        count, positions = answer
        _require(bool(positions) and list(positions) == sorted(positions), "bad argmax positions")
        for i in positions:
            _require(_chain_weight_sum(n, range(i, i + k + 1), ell) == count, f"window {i} count")
        for i in (0, n - k):
            _require(_chain_weight_sum(n, range(i, i + k + 1), ell) <= count, f"window {i} beats max")

    def check_count(self, args, count):
        n, levels, ell = args
        _require(_chain_weight_sum(n, levels, ell) == count, "count != chain-weight sum")

    def _canonical_search(self, result):
        return [str(result.count), list(result.levels)]

    canonical_katona = canonical_heavy = canonical_optimize = _canonical_search

    def canonical_window(self, answer):
        return [str(answer[0]), list(answer[1])]

    def canonical_count(self, count):
        return str(count)

    def warmup(self) -> Op:
        return Op(-1, "katona", (21, KatonaGap(5), 2))


# -- oracles --------------------------------------------------------------

_MAX_FAMILY_CONDITIONS = (
    Antichain(),
    ErdosWindow(1),
    ErdosWindow(2),
    KatonaGap(2),
    KatonaGap(3),
    KatonaGap(4),
    RatioLambda(Fraction(3, 2)),
    IntegerRatio(2),
)


def _bigint_ell(n: int) -> int:
    """Smallest ell whose (ell+1)^n reaches 2^62, forcing the bigint count path."""
    ell = 1
    while (ell + 1) ** n < 2**62:
        ell += 1
    return ell


class Oracles(Workload):
    """Explicit-family oracles: checks on 2^n indicators and exact optimisers.

    Dense random families stop at n = 15 and level unions at n = 16 because
    the indicator is rebuilt from the Python int bit by bit (quadratic in
    2^n); sparse families go to n = 17.  The optimisers take three slots a
    round: more of these sub-5 ms ops would put p50 in the cost gap below
    the n = 13..15 checks.  Bigint counts use n 12..13, the only
    sizes where (ell+1)^n >= 2^62 stays under a second; their chains are
    longer than any chain of subsets, so the count is 0.
    """

    name = "oracles"
    slots = (("dense",) * 4 + ("sparse",) * 6 + ("levels",) * 5 + ("subfamily",) * 5 + ("bigint",) * 2
             + ("max_family",) * 2 + ("max_chains",))

    def _ell(self, kind, c):
        return 2 + self._turn(kind, c) % 3

    def make_levels(self, c, rng):
        n = self._band("levels", c, 12, 16)
        levels = tuple(sorted(rng.sample(range(n + 1), rng.randint(2, 4))))
        return (n, levels, _named(self._turn("levels", c), rng), self._ell("levels", c))

    def _random_family(self, kind, c, rng, lo, hi, density):
        n = self._band(kind, c, lo, hi)
        bits = _indicator(n, lambda m: rng.random() < density)
        return (n, format(bits, "x"), _named(self._turn(kind, c), rng), self._ell(kind, c))

    def make_dense(self, c, rng):
        return self._random_family("dense", c, rng, 12, 15, 0.5)

    def make_sparse(self, c, rng):
        return self._random_family("sparse", c, rng, 12, 17, 1 / 32)

    def make_subfamily(self, c, rng):
        n = self._band("subfamily", c, 12, 16)
        cond = _named(self._turn("subfamily", c), rng)
        levels = _allowed_set(n, cond, rng, 4)
        bits = _indicator(n, lambda m: m.bit_count() in levels and rng.random() < 0.5)
        return (n, format(bits, "x"), cond, self._ell("subfamily", c), levels)

    def make_bigint(self, c, rng):
        n = self._band("bigint", c, 12, 13)
        levels = tuple(sorted(rng.sample(range(n + 1), rng.randint(2, 5))))
        return (n, levels, _named(self._turn("bigint", c), rng), _bigint_ell(n) + rng.randint(0, 3))

    def make_max_family(self, c, rng):
        cond = _MAX_FAMILY_CONDITIONS[self._turn("max_family", c) % len(_MAX_FAMILY_CONDITIONS)]
        return (self._band("max_family", c, 6, 9), cond)

    def make_max_chains(self, c, rng):
        turn = self._turn("max_chains", c)
        cond = _MAX_FAMILY_CONDITIONS[turn % len(_MAX_FAMILY_CONDITIONS)]
        return (self._band("max_chains", c, 2, 4), cond, 2 + turn // len(_MAX_FAMILY_CONDITIONS) % 2)

    def _run_levels(self, n, levels, cond, ell):
        family = fam.FamilyMask.from_levels(n, levels)
        return family, fam.family_satisfies(family, cond), fam.count_chains_family(family, ell)

    run_levels = run_bigint = _run_levels

    def _run_hex(self, n, text, cond, ell, *_):
        family = fam.FamilyMask.from_hex(n, text)
        return family, fam.family_satisfies(family, cond), fam.count_chains_family(family, ell)

    run_dense = run_sparse = run_subfamily = _run_hex

    def run_max_family(self, n, cond):
        return fam.max_family(n, cond, accept_exponential=True)

    def run_max_chains(self, n, cond, ell):
        return fam.max_chains_family(n, cond, ell)

    def _check_within_bound(self, n, cond, family, satisfies):
        if satisfies:
            _require(family.size() <= lb.size_bound(n, cond).value, "satisfying family exceeds size_bound")

    def _check_levels(self, args, answer):
        n, levels, cond, ell = args
        family, satisfies, count = answer
        _require(family.size() == _level_weight(n, levels), "level family has the wrong size")
        _require(satisfies == conditions.allowed_levels(cond, levels), "satisfies disagrees with allowed_levels")
        _require(count == cc.count_chains_levels(n, levels, ell), "family count != level count")
        self._check_within_bound(n, cond, family, satisfies)

    check_levels = check_bigint = _check_levels

    def _check_random(self, args, answer):
        n, _, cond, ell = args
        family, satisfies, count = answer
        self._check_within_bound(n, cond, family, satisfies)
        _require(0 <= count <= cc.count_chains_levels(n, range(n + 1), ell), "count exceeds the full lattice")

    check_dense = check_sparse = _check_random

    def check_subfamily(self, args, answer):
        n, _, cond, ell, levels = args
        family, satisfies, count = answer
        _require(satisfies, "a subfamily of an allowed level union must satisfy")
        self._check_within_bound(n, cond, family, satisfies)
        _require(count <= cc.count_chains_levels(n, levels, ell), "count exceeds its level union")

    def check_max_family(self, args, answer):
        n, cond = args
        size, family = answer
        _require(size == family.size(), "witness size differs")
        _require(size == lb.size_bound(n, cond).value, "max_family != size_bound")
        _require(fam.family_satisfies(family, cond), "witness violates the condition")

    def check_max_chains(self, args, answer):
        n, cond, ell = args
        count, family = answer
        _require(count == cc.optimal_levels_for_chains(n, cond, ell).count, "max_chains != level optimum")
        _require(fam.family_satisfies(family, cond), "witness violates the condition")
        _require(fam.count_chains_family(family, ell) == count, "witness does not recount")

    # Never str() or repr() a FamilyMask: the dataclass repr turns a 2^n-bit
    # int into decimal, which Python refuses past 4300 digits (n >= 14).
    def _canonical_family(self, answer):
        family, satisfies, count = answer
        return [family.to_hex(), satisfies, str(count)]

    canonical_levels = canonical_bigint = canonical_dense = canonical_sparse = _canonical_family
    canonical_subfamily = _canonical_family

    def _canonical_opt(self, answer):
        return [str(answer[0]), answer[1].to_hex()]

    canonical_max_family = canonical_max_chains = _canonical_opt

    def warmup(self) -> Op:
        return Op(-1, "levels", (12, (2, 6, 10), KatonaGap(3), 2))


# -- cli ------------------------------------------------------------------

GAP5_OPTIMUM = [2, 7, 14, 19]


@dataclass(frozen=True)
class CliAnswer:
    returncode: int
    report: dict | None
    stderr: str


class Cli(Workload):
    """One `python -m chainweight ... --format json` process per op, small inputs."""

    name = "cli"
    slots = ("bound", "chains", "verify", "reproduce", "family")

    def make_bound(self, c, rng):
        return (6, _named(c, rng))

    def make_chains(self, c, rng):
        return (21, KatonaGap(5), 2)

    def make_verify(self, c, rng):
        return (7, _named(c, rng))

    def make_reproduce(self, c, rng):
        return ()

    def make_family(self, c, rng):
        n = self._band("family", c, 4, 8)
        cond = _named(c, rng)
        if c % 2:
            levels = _allowed_set(n, cond, rng, 3)
            bits = _indicator(n, lambda m: m.bit_count() in levels and rng.random() < 0.6)
        else:
            bits = _indicator(n, lambda m: rng.random() < 0.3)
        return (n, format(bits, "x"), cond, 2)

    def _call(self, *argv: str) -> CliAnswer:
        proc = subprocess.run(
            [sys.executable, "-m", "chainweight", "--format", "json", "--threads", "1", *argv],
            capture_output=True, text=True, timeout=60,
        )
        report = json.loads(proc.stdout) if proc.returncode == 0 else None
        return CliAnswer(proc.returncode, report, proc.stderr)

    def run_bound(self, n, cond):
        return self._call("bound", "--n", str(n), "--condition", condition_text(cond))

    def run_chains(self, n, cond, ell):
        return self._call("chains", "--n", str(n), "--condition", condition_text(cond), "--ell", str(ell))

    def run_verify(self, n, cond):
        return self._call("verify", "--n", str(n), "--condition", condition_text(cond))

    def run_reproduce(self):
        return self._call("reproduce")

    def run_family(self, n, text, cond, ell):
        return self._call("verify", "--n", str(n), "--condition", condition_text(cond),
                          "--family", text, "--ell", str(ell))

    def check(self, op: Op, answer: CliAnswer) -> None:
        _require(answer.returncode == 0, f"exit {answer.returncode}: {answer.stderr.strip()[-200:]}")
        super().check(op, answer.report["outputs"])

    def check_bound(self, args, out):
        n, cond = args
        _require(out["value"] == str(lb.size_bound(n, cond).value), "bound value")
        _require(out["closed_form_equal"] is True, "closed form disagrees")

    def check_chains(self, args, out):
        n, cond, ell = args
        _require(out["witness"] == GAP5_OPTIMUM, f"witness {out['witness']}")
        _require(out["value"] == str(cc.count_chains_levels(n, GAP5_OPTIMUM, ell)), "chain count")

    def check_verify(self, args, out):
        n, cond = args
        expected = str(lb.size_bound(n, cond).value)
        _require(out["equal"] is True and out["bound"] == out["brute"] == expected, "brute force disagrees")

    def check_reproduce(self, args, out):
        _require(out["all_pass"] is True and len(out["rows"]) == 8, "reproduction rows")

    def check_family(self, args, out):
        n, text, cond, ell = args
        family = fam.FamilyMask.from_hex(n, text)
        _require(out["family_size"] == str(family.size()), "family size")
        _require(out["satisfies"] == fam.family_satisfies(family, cond), "satisfies")
        _require(out["within_bound"] is True, "within bound")
        _require(out["chain_count"] == str(fam.count_chains_family(family, ell)), "chain count")

    def compute_ms(self, answer: CliAnswer) -> float:
        return answer.report["timing_ms"]

    def canonical(self, op: Op, answer: CliAnswer):
        report = dict(answer.report or {})
        report.pop("timing_ms", None)
        return [answer.returncode, report]

    def warmup(self) -> Op:
        return Op(-1, "bound", (6, Antichain()))


WORKLOADS = {cls.name: cls for cls in (Bounds, Chains, Oracles, Cli)}
