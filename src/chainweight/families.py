"""Ground-truth oracles over explicit families of subsets of [n] at desk scale.

A family is one packed Python int, bit s set iff subset mask s belongs to it.
`from_levels` and `family_satisfies` work on that int directly, with one
cached mask table per n; the exact optimisers build their compatibility graph
from the same level masks.  `count_chains_family` runs its subset-sum
transform on packed integer lanes at n <= 10 and whenever the full lattice's
chain counts could pass int64, else on a numpy array that each step sizes
from the family's running chain total: uint16, uint32 or int64.  numpy is
imported only inside that array count (n > 10) and `members()`, so the
level-set code and the small-n checks never load it.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import comb
from typing import TYPE_CHECKING, Iterable, Iterator

# forbidden_pair is not called here; it stays bound because bench/tracing.py
# rebinds it on this module by name.
from .conditions import Condition, _require_ints, forbidden_pair, level_conflicts  # noqa: F401
from .record import Record

if TYPE_CHECKING:
    import numpy as np

SATISFIES_MAX_N = 20
OPTIMIZE_MAX_N = 7
CHAIN_OPTIMIZE_MAX_N = 4
# The exact optimisers hold one list of 2^n ints of 2^n bits and a list of
# subset bitsets half its size, under an estimate of 2^(2n-2) bytes, so this
# admits n <= 16.
ADJACENCY_MAX_BYTES = 1 << 30
# Packed integer lanes beat a numpy array for the chain count up to here.
PACKED_COUNT_MAX_N = 10
# Subset-sum passes whose rows are shorter than this run one strided add per
# column, each over 2^n / (2 step) elements, instead of one add whose inner
# loop covers only `step` elements.  Timed over n = 11..17 (cuts 1..64, best
# of 7) in uint16, uint32, int32 and int64: 16 was best or within 2% from
# n = 13 on, taking 40-55% off the transform at n = 16..17; 8 was 3-6 us
# faster at n = 11..12, and up to 15% faster in int64 at n = 19..20, where
# the array outgrows the caches.
COLUMN_PASS_MAX_STEP = 16


def _check_n(n: int, what: str) -> None:
    _require_ints(n=(n, None))
    if not 0 <= n <= SATISFIES_MAX_N:
        raise ValueError(f"{what} needs 0 <= n <= {SATISFIES_MAX_N}, got n={n}")


# One table per n, so callers that alternate n never rebuild: 0.56 MB at
# n = 17 and about 5 MB at n = 20; every n <= 17 together take about 1 MB,
# every n <= 20 about 9.6 MB.
@lru_cache(maxsize=SATISFIES_MAX_N + 1)
def _masks(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(low, level) over the 2^n subset masks, as packed ints.

    low[b] has bit s set iff bit b of s is clear (b < n); level[a] has bit s
    set iff s has a elements (a <= n).
    """
    size = 1 << n
    low = []
    for b in range(n):
        bits, period = (1 << (1 << b)) - 1, 2 << b
        while period < size:
            bits |= bits << period
            period *= 2
        low.append(bits)
    # Doubling: the masks with bit k set are those without it, shifted by 2^k.
    level = [1]
    for k in range(n):
        level = [
            (level[a] if a <= k else 0) | (level[a - 1] << (1 << k) if a else 0)
            for a in range(k + 2)
        ]
    return tuple(low), tuple(level)


class FamilyMask(Record):
    """A family F of subsets of [n] as an indicator over all 2^n subset masks.

    Bit s of `bits` is set iff the subset whose characteristic mask is s
    belongs to F.
    """

    _fields = ("n", "bits")

    def __init__(self, n: int, bits: int) -> None:
        _check_n(n, "FamilyMask")
        _require_ints(bits=(bits, None))
        if bits < 0 or bits >> (1 << n):
            raise ValueError(f"indicator out of range for n={n}")
        self.__dict__["n"] = n
        self.__dict__["bits"] = bits

    @classmethod
    def empty(cls, n: int) -> "FamilyMask":
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> "FamilyMask":
        return cls(n, (1 << (1 << n)) - 1)

    @classmethod
    def from_members(cls, n: int, members: Iterable[int]) -> "FamilyMask":
        _check_n(n, "FamilyMask")
        bits = 0
        for mask in members:
            _require_ints(member=(mask, None))
            if not 0 <= mask < (1 << n):
                raise ValueError(f"subset mask {mask} out of range for n={n}")
            bits |= 1 << mask
        return cls(n, bits)

    @classmethod
    def from_levels(cls, n: int, levels: Iterable[int]) -> "FamilyMask":
        """The union of the given full levels."""
        _check_n(n, "FamilyMask")
        level = _masks(n)[1]
        bits = 0
        for h in levels:
            _require_ints(level=(h, None))
            if not 0 <= h <= n:
                raise ValueError(f"levels must lie in [0, {n}]")
            bits |= level[h]
        return cls(n, bits)

    @classmethod
    def from_hex(cls, n: int, text: str) -> "FamilyMask":
        # Hex digits only: int(text, 16) also takes signs, spaces, underscores
        # and a 0x prefix.
        if re.fullmatch("[0-9a-fA-F]+", text) is None:
            raise ValueError(f"family must be hex digits, got {text!r}")
        return cls(n, int(text, 16))

    def to_hex(self) -> str:
        digits = max(1, -(-(1 << self.n) // 4))
        return format(self.bits, f"0{digits}x")

    def __repr__(self) -> str:
        # Record's repr prints bits in decimal, which overflows int's
        # string-conversion limit from n = 14 on.
        return f"FamilyMask(n={self.n}, bits=0x{self.to_hex()})"

    def contains(self, mask: int) -> bool:
        return bool(self.bits >> mask & 1)

    def members(self) -> Iterator[int]:
        return iter(_indicator(self).nonzero()[0].tolist())

    def size(self) -> int:
        return self.bits.bit_count()


def _indicator(family: FamilyMask) -> np.ndarray:
    # Bit s of family.bits becomes entry s of a bool array of length 2^n.
    import numpy as np

    size = 1 << family.n
    packed = np.frombuffer(family.bits.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=size, bitorder="little").view(bool)


def _subset_sum_inplace(arr: np.ndarray, n: int) -> None:
    # Standard subset-sum (zeta) transform: arr[s] becomes the sum over t
    # subset of s.  Each row of `view` holds 2 step masks, those in its upper
    # half with bit b set.
    for b in range(n):
        step = 1 << b
        view = arr.reshape(-1, 2 * step)
        if step < COLUMN_PASS_MAX_STEP:
            for i in range(step):
                view[:, step + i] += view[:, i]
        else:
            view[:, step:] += view[:, :step]


def family_satisfies(family: FamilyMask, cond: Condition) -> bool:
    """True iff no strictly nested pair A < B inside the family has forbidden sizes."""
    n = family.n
    bits = family.bits
    conflicts = level_conflicts(cond, n)
    low, level = _masks(n)
    present = [a for a in range(n + 1) if bits & level[a]]
    for a in present:
        targets = [b for b in present if b > a and conflicts[a] >> b & 1]
        if not targets:
            continue
        # Superset closure of the members of size a: OR in s + 2^b for every
        # s in the closure with bit b clear.
        closure = bits & level[a]
        for b in range(n):
            closure |= (closure & low[b]) << (1 << b)
        closure &= bits
        if any(closure & level[b] for b in targets):
            return False
    return True


def _full_lattice_chains(n: int, j: int) -> int:
    """Number of j-chains S_1 < ... < S_j among all subsets of [n]."""
    # Each element goes inside S_1, into one S_i minus S_(i-1), or outside
    # S_j; inclusion-exclusion keeps the j - 1 differences nonempty.
    return sum((-1) ** i * comb(j - 1, i) * (j + 1 - i) ** n for i in range(j))


@lru_cache(maxsize=None)
def _lattice_chain_bound(n: int, ell: int) -> int:
    # Every entry and partial sum of the ell-chain count transform, and the
    # count itself, is at most the number of j-chains of the full lattice for
    # some j <= ell (none past j = n + 1).
    return max(_full_lattice_chains(n, j) for j in range(1, ell + 1))


def _count_packed(n: int, ell: int) -> bool:
    # Packed integer lanes win at small n and are the only exact choice once
    # the count itself may pass int64, the dtype of the array count's sums;
    # otherwise the array count sizes each of its steps (`_count_chains_array`).
    return n <= PACKED_COUNT_MAX_N or _lattice_chain_bound(n, ell) >= 2**63


def count_chains_family(family: FamilyMask, ell: int) -> int:
    """Number of ell-tuples of distinct members totally ordered by strict inclusion."""
    _require_ints(ell=(ell, 1))
    if ell == 1:
        return family.size()
    if ell > family.n + 1:
        # A chain of distinct subsets of [n] has at most n + 1 members.
        return 0
    if _count_packed(family.n, ell):
        return _count_chains_packed(family, ell)
    return _count_chains_array(family, ell)


@lru_cache(maxsize=4)
def _spread_table(width: int) -> list[bytes]:
    # table[byte]: eight lanes of `width` bytes, lane i holding bit i of byte.
    one, zero = (1).to_bytes(width, "little"), bytes(width)
    table = [b""]
    for _ in range(8):
        # Step k doubles the table; entry i gets lane k from bit k of i.
        table = [t + zero for t in table] + [t + one for t in table]
    return table


def _count_chains_packed(family: FamilyMask, ell: int) -> int:
    # The transform of the array count, on lane s of one packed int.  Every
    # partial sum is at most `_lattice_chain_bound`, so lanes of that many
    # bytes never carry into each other.
    n = family.n
    width = _lattice_chain_bound(n, ell).bit_length() + 7 >> 3
    lane_bits = width << 3
    table = _spread_table(width)
    ones = int.from_bytes(
        b"".join(map(table.__getitem__, family.bits.to_bytes((1 << n) + 7 >> 3, "little"))),
        "little",
    )
    keep = ones * ((1 << lane_bits) - 1)
    # current: lane s counts the chains of the current length with top s.
    current = ones
    for _ in range(ell - 1):
        if not current:
            return 0
        # lanes: the lanes s with bit b of s clear, for b from n - 1 down;
        # the mask for b - 1 is the one for b XOR itself shifted by 2^(b-1) lanes.
        below, shift = current, lane_bits << n - 1
        lanes = (1 << shift) - 1
        while True:
            below += (below & lanes) << shift
            if shift == lane_bits:
                break
            shift >>= 1
            lanes ^= lanes << shift
        current = (below - current) & keep
    # Halving fold: add the upper half of the lanes onto the lower half.
    for b in reversed(range(n)):
        shift = lane_bits << b
        current = (current & ((1 << shift) - 1)) + (current >> shift)
    return current


def _count_chains_array(family: FamilyMask, ell: int) -> int:
    # The ell-chain count must fit int64; see `_count_packed`.
    import numpy as np

    indicator = _indicator(family)
    # current[s]: chains of the current length in the family with top s;
    # total: their number, exact in int64.
    current, total = indicator, family.size()
    for _ in range(ell - 1):
        if total == 0:
            return 0
        # Every entry and partial sum of the transform of the nonnegative
        # `current` is a sum of distinct entries, so at most `total`: each
        # step runs in the narrowest width that holds it.
        width = np.uint16 if total < 1 << 16 else np.uint32 if total < 1 << 32 else np.int64
        current = current.astype(width)
        previous = current.copy()
        _subset_sum_inplace(current, family.n)
        current -= previous
        current *= indicator
        total = int(current.sum(dtype=np.int64))
    return total


def _check_optimiser(n: int, what: str, cap: int, accept_exponential: bool) -> None:
    # The exact optimisers' refusals, all before anything is allocated: n,
    # the cap unless lifted, then the size estimate.
    _check_n(n, what)
    if n > cap and not accept_exponential:
        raise ValueError(f"{what} is exponential; n={n} needs accept_exponential=True")
    estimate = (1 << 2 * n) // 4
    if estimate > ADJACENCY_MAX_BYTES:
        raise ValueError(
            f"{what} at n={n} needs about {estimate / 2**30:g} GiB of adjacency "
            f"bitsets, over the {ADJACENCY_MAX_BYTES / 2**30:g} GiB limit"
        )


def _compatibility(conflicts: tuple[int, ...], n: int) -> tuple[list[int], int]:
    # compatible[s] has bit t set iff t != s and {t, s} is not a forbidden
    # nested pair (per `level_conflicts`); returned with the all-vertices
    # mask.  Callers run `_check_optimiser` first.
    level = _masks(n)[1]
    # near[k]: the subsets whose size conflicts with k, never k itself (the
    # level masks are disjoint, so their sum is their union).
    near = [sum(level[a] for a in range(n + 1) if row >> a & 1) for row in conflicts]
    # sub[s]: the subsets of s, from those of s minus its top element.
    sub = [1]
    for s in range(1, 1 << n):
        top = 1 << s.bit_length() - 1
        rest = sub[s ^ top]
        sub.append(rest | rest << top)
    full = (1 << n) - 1
    universe = (1 << (1 << n)) - 1
    # The supersets of s are s + u for u a subset of full - s.
    compatible = [
        universe ^ (1 << s) ^ ((sub[s] | sub[full ^ s] << s) & near[s.bit_count()])
        for s in range(1 << n)
    ]
    return compatible, universe


def max_family(
    n: int, cond: Condition, *, accept_exponential: bool = False
) -> tuple[int, FamilyMask]:
    """Exact maximum size of a family of subsets of [n] satisfying cond, with a witness.

    Branch and bound over the 2^n-vertex conflict graph whose edges are the
    forbidden nested pairs; families are its independent sets.  Capped at
    n <= 7 unless accept_exponential is set, and at n <= 16 always (the
    compatibility and subset bitsets would pass ADJACENCY_MAX_BYTES).

    A condition reads only sizes, so a permutation of [n] maps an allowed
    family to one of the same size.  Unless the root's colouring bound meets
    the greedy seed, the search branches once per level s: include
    {0, ..., s - 1} and drop the levels tried before s.  A permutation maps
    any allowed family into the branch of its first level in that order, so
    the search is exact; the incumbent changes only on a strictly larger
    family, so an optimal greedy seed is the witness.
    """
    _check_optimiser(n, "max_family", OPTIMIZE_MAX_N, accept_exponential)
    compatible, universe = _compatibility(level_conflicts(cond, n), n)
    incumbent = _greedy_family(compatible, n)
    # Max clique in the compatibility graph with greedy-colouring bounds.
    # Levels holding the most of the incumbent go first, ties middle-out:
    # middle-out alone took 10x longer on an n = 8 table, ascending order
    # 200x on n = 11 KatonaGap(4).
    best = [incumbent.bit_count(), incumbent]
    root_bound = _coloring(compatible, universe)[-1][1]
    level = _masks(n)[1]
    order = sorted(
        range(n + 1), key=lambda s: (-(incumbent & level[s]).bit_count(), abs(2 * s - n), s)
    )
    candidates = universe
    for s in order:
        if best[0] >= root_bound:
            break
        rep = (1 << s) - 1
        _expand_clique(compatible, best, 1, 1 << rep, candidates & compatible[rep])
        candidates &= ~level[s]
    return best[0], FamilyMask(n, best[1])


def _greedy_family(compatible: list[int], n: int) -> int:
    # A handful of greedy passes to seed the search; middle-out level order
    # tends to land on the optimum for size-difference conditions.  Each pass
    # takes groups of levels (by distance from the middle, by degree, which
    # depends only on the level, or all at once) in ascending vertex order.
    # All at once is rarely best, but on some custom tables it alone reaches
    # the optimum (4 of 1,200 seeded tables at n <= 9), so it stays.
    level = _masks(n)[1]
    degree = [compatible[(1 << a) - 1].bit_count() for a in range(n + 1)]
    best = 0
    for key in (lambda a: abs(2 * a - n), lambda a: -degree[a], lambda a: 0):
        chosen = 0
        allowed = (1 << len(compatible)) - 1
        for k in sorted({key(a) for a in range(n + 1)}):
            pool = sum(level[a] for a in range(n + 1) if key(a) == k) & allowed
            while pool:
                v = (pool & -pool).bit_length() - 1
                chosen |= 1 << v
                allowed &= compatible[v]
                pool &= allowed
        if chosen.bit_count() > best.bit_count():
            best = chosen
    return best


def _coloring(compatible: list[int], candidates: int) -> list[tuple[int, int]]:
    # Greedy colouring of the candidates' conflict graph: (vertex, colour)
    # pairs with colours 1, 2, ... in ascending order.
    colored: list[tuple[int, int]] = []
    pool = candidates
    color = 0
    while pool:
        color += 1
        members = pool
        while members:
            v = (members & -members).bit_length() - 1
            colored.append((v, color))
            pool &= ~(1 << v)
            members &= ~(1 << v) & ~compatible[v]
    return colored


def _expand_clique(
    compatible: list[int], best: list[int], size: int, bits: int, candidates: int
) -> None:
    # One node of max_family's search; best is [size, bits] of the incumbent.
    if candidates == 0:
        if size > best[0]:
            best[:] = size, bits
        return
    for v, bound in reversed(_coloring(compatible, candidates)):
        if size + bound <= best[0]:
            return
        bit = 1 << v
        _expand_clique(compatible, best, size + 1, bits | bit, candidates & compatible[v])
        candidates &= ~bit


def _maximal_families(compatible: list[int], r: int, p: int, x: int) -> Iterator[int]:
    # Bron-Kerbosch with pivoting over the compatibility graph; yields every
    # maximal satisfying family containing r, with candidates p and excluded
    # vertices x, as a vertex bitset.
    if p == 0 and x == 0:
        yield r
        return
    pool = p | x
    pivot = (pool & -pool).bit_length() - 1
    best_cover = -1
    probe = pool
    while probe:
        u = (probe & -probe).bit_length() - 1
        cover = (p & compatible[u]).bit_count()
        if cover > best_cover:
            best_cover = cover
            pivot = u
        probe &= probe - 1
    branch = p & ~compatible[pivot]
    while branch:
        v = (branch & -branch).bit_length() - 1
        bit = 1 << v
        yield from _maximal_families(compatible, r | bit, p & compatible[v], x & compatible[v])
        p &= ~bit
        x |= bit
        branch &= branch - 1


def max_chains_family(
    n: int, cond: Condition, ell: int, *, accept_exponential: bool = False
) -> tuple[int, FamilyMask]:
    """Exact maximum ell-chain count over all families of subsets of [n] satisfying cond.

    Adding a set never removes chains, so the maximum is attained by some
    maximal satisfying family; those are enumerated exhaustively.  Capped at
    n <= 4 unless accept_exponential is set, and at n <= 16 always (the
    compatibility and subset bitsets would pass ADJACENCY_MAX_BYTES).
    """
    _check_optimiser(n, "max_chains_family", CHAIN_OPTIMIZE_MAX_N, accept_exponential)
    _require_ints(ell=(ell, 1))
    # Compiled ahead of the early return too, so a condition that cannot
    # apply at n is refused either way.
    conflicts = level_conflicts(cond, n)
    if ell > n + 1:
        # No family has an ell-chain, so the empty family is the witness, as
        # the search below would find after enumerating every maximal family.
        return 0, FamilyMask(n, 0)
    compatible, universe = _compatibility(conflicts, n)
    best_count = 0
    best_bits = 0
    for bits in _maximal_families(compatible, 0, universe, 0):
        count = count_chains_family(FamilyMask(n, bits), ell)
        if count > best_count or (count == best_count and bits < best_bits):
            best_count = count
            best_bits = bits
    return best_count, FamilyMask(n, best_bits)
