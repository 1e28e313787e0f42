"""Ground-truth oracles over explicit families of subsets of [n] at desk scale."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .conditions import Condition, forbidden_pair

SATISFIES_MAX_N = 20
OPTIMIZE_MAX_N = 7
CHAIN_OPTIMIZE_MAX_N = 4

# Above this the pairwise submask scan gives way to the vectorized transform.
_SUBMASK_SCAN_MAX_N = 12


@dataclass(frozen=True, repr=False)
class FamilyMask:
    """A family F of subsets of [n] as an indicator over all 2^n subset masks.

    Bit s of `bits` is set iff the subset whose characteristic mask is s
    belongs to F.
    """

    n: int
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.n <= SATISFIES_MAX_N:
            raise ValueError(f"need 0 <= n <= {SATISFIES_MAX_N}, got {self.n}")
        if self.bits < 0 or self.bits >> (1 << self.n):
            raise ValueError(f"indicator out of range for n={self.n}")

    @classmethod
    def empty(cls, n: int) -> "FamilyMask":
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> "FamilyMask":
        return cls(n, (1 << (1 << n)) - 1)

    @classmethod
    def from_members(cls, n: int, members: Iterable[int]) -> "FamilyMask":
        bits = 0
        for mask in members:
            if not 0 <= mask < (1 << n):
                raise ValueError(f"subset mask {mask} out of range for n={n}")
            bits |= 1 << mask
        return cls(n, bits)

    @classmethod
    def from_levels(cls, n: int, levels: Iterable[int]) -> "FamilyMask":
        """The union of the given full levels."""
        wanted = set(levels)
        if any(not 0 <= h <= n for h in wanted):
            raise ValueError(f"levels must lie in [0, {n}]")
        bits = 0
        for mask in range(1 << n):
            if mask.bit_count() in wanted:
                bits |= 1 << mask
        return cls(n, bits)

    @classmethod
    def from_hex(cls, n: int, text: str) -> "FamilyMask":
        return cls(n, int(text, 16))

    def to_hex(self) -> str:
        digits = max(1, -(-(1 << self.n) // 4))
        return format(self.bits, f"0{digits}x")

    def __repr__(self) -> str:
        # The default repr prints bits in decimal, which overflows int's
        # string-conversion limit from n = 14 on.
        return f"FamilyMask(n={self.n}, bits=0x{self.to_hex()})"

    def contains(self, mask: int) -> bool:
        return bool(self.bits >> mask & 1)

    def members(self) -> Iterator[int]:
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits &= bits - 1

    def size(self) -> int:
        return self.bits.bit_count()


def _forbidden_matrix(cond: Condition, n: int) -> list[list[bool]]:
    return [
        [a < b and forbidden_pair(cond, a, b) for b in range(n + 1)]
        for a in range(n + 1)
    ]


def _popcounts(n: int) -> np.ndarray:
    # Doubling: popcount(2^b + m) = popcount(m) + 1.
    sizes = np.zeros(1 << n, dtype=np.int64)
    size = 1
    while size < (1 << n):
        sizes[size : 2 * size] = sizes[:size] + 1
        size *= 2
    return sizes


def _subset_sum_inplace(arr: np.ndarray, n: int) -> None:
    # Standard subset-sum transform: arr[s] becomes sum over t subset of s.
    for b in range(n):
        step = 1 << b
        view = arr.reshape(-1, 2 * step)
        view[:, step:] += view[:, :step]


def family_satisfies(family: FamilyMask, cond: Condition) -> bool:
    """True iff no strictly nested pair A < B inside the family has forbidden sizes."""
    n = family.n
    forb = _forbidden_matrix(cond, n)
    if n <= _SUBMASK_SCAN_MAX_N:
        for s in family.members():
            b = s.bit_count()
            t = (s - 1) & s
            while True:
                if family.contains(t) and forb[t.bit_count()][b]:
                    return False
                if t == 0:
                    break
                t = (t - 1) & s
        return True
    indicator = np.zeros(1 << n, dtype=bool)
    for s in family.members():
        indicator[s] = True
    sizes = _popcounts(n)
    present = sorted({int(v) for v in sizes[indicator]}) if family.bits else []
    for a in present:
        targets = [b for b in present if forb[a][b]]
        if not targets:
            continue
        counts = np.where(indicator & (sizes == a), 1, 0).astype(np.int64)
        _subset_sum_inplace(counts, n)
        for b in targets:
            if np.any(counts[indicator & (sizes == b)] > 0):
                return False
    return True


def count_chains_family(family: FamilyMask, ell: int) -> int:
    """Number of ell-tuples of distinct members totally ordered by strict inclusion."""
    if ell < 1:
        raise ValueError(f"ell must be a positive integer, got {ell}")
    if ell == 1:
        return family.size()
    # (ell+1)^n bounds the count, so int64 is provably safe below the guard.
    if (ell + 1) ** family.n < 2**62:
        return _count_chains_vector(family, ell)
    return _count_chains_bigint(family, ell)


def _count_chains_vector(family: FamilyMask, ell: int) -> int:
    n = family.n
    indicator = np.zeros(1 << n, dtype=np.int64)
    for s in family.members():
        indicator[s] = 1
    current = indicator.copy()
    for _ in range(ell - 1):
        acc = current.copy()
        _subset_sum_inplace(acc, n)
        current = (acc - current) * indicator
    return int(current.sum())


def _count_chains_bigint(family: FamilyMask, ell: int) -> int:
    n = family.n
    indicator = [0] * (1 << n)
    for s in family.members():
        indicator[s] = 1
    current = list(indicator)
    for _ in range(ell - 1):
        acc = list(current)
        for b in range(n):
            step = 1 << b
            for s in range(1 << n):
                if s & step:
                    acc[s] += acc[s ^ step]
        current = [
            (acc[s] - current[s]) if indicator[s] else 0 for s in range(1 << n)
        ]
    return sum(current)


def _conflict_adjacency(cond: Condition, n: int) -> list[int]:
    # adjacency[s] has bit t set iff {t, s} is a nested pair with forbidden sizes
    forb = _forbidden_matrix(cond, n)
    adjacency = [0] * (1 << n)
    for s in range(1 << n):
        b = s.bit_count()
        t = (s - 1) & s
        while True:
            if forb[t.bit_count()][b]:
                adjacency[s] |= 1 << t
                adjacency[t] |= 1 << s
            if t == 0:
                break
            t = (t - 1) & s
    return adjacency


def max_family(
    n: int, cond: Condition, *, accept_exponential: bool = False
) -> tuple[int, FamilyMask]:
    """Exact maximum size of a family of subsets of [n] satisfying cond, with a witness.

    Branch and bound over the 2^n-vertex conflict graph whose edges are the
    forbidden nested pairs; families are its independent sets.  Capped at
    n <= 7 unless accept_exponential is set.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n > OPTIMIZE_MAX_N and not accept_exponential:
        raise ValueError(
            f"max_family is exponential; n={n} needs accept_exponential=True"
        )
    adjacency = _conflict_adjacency(cond, n)
    vertex_count = 1 << n
    universe = (1 << vertex_count) - 1
    compatible = [
        universe & ~adjacency[v] & ~(1 << v) for v in range(vertex_count)
    ]
    incumbent = _greedy_family(compatible, n)
    size, bits = _max_compatible_clique(compatible, universe, incumbent)
    return size, FamilyMask(n, bits)


def _greedy_family(compatible: list[int], n: int) -> int:
    # A handful of greedy passes to seed the search; middle-out level order
    # tends to land on the optimum for size-difference conditions.
    vertex_count = len(compatible)
    orders = [
        sorted(range(vertex_count), key=lambda v: (abs(2 * v.bit_count() - n), v)),
        sorted(range(vertex_count), key=lambda v: (-compatible[v].bit_count(), v)),
        list(range(vertex_count)),
    ]
    best = 0
    for order in orders:
        chosen = 0
        allowed = (1 << vertex_count) - 1
        for v in order:
            if allowed >> v & 1:
                chosen |= 1 << v
                allowed &= compatible[v]
        if chosen.bit_count() > best.bit_count():
            best = chosen
    return best


def _max_compatible_clique(
    compatible: list[int], universe: int, incumbent: int
) -> tuple[int, int]:
    # Max clique in the compatibility graph with greedy-coloring bounds.
    best_size = incumbent.bit_count()
    best_bits = incumbent

    def expand(size: int, bits: int, candidates: int) -> None:
        nonlocal best_size, best_bits
        if candidates == 0:
            if size > best_size:
                best_size = size
                best_bits = bits
            return
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
        for v, bound in reversed(colored):
            if size + bound <= best_size:
                return
            bit = 1 << v
            expand(size + 1, bits | bit, candidates & compatible[v])
            candidates &= ~bit

    expand(0, 0, universe)
    return best_size, best_bits


def _maximal_families(compatible: list[int], universe: int) -> Iterator[int]:
    # Bron-Kerbosch with pivoting over the compatibility graph; yields every
    # maximal satisfying family as a vertex bitset.
    def bk(r: int, p: int, x: int) -> Iterator[int]:
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
            yield from bk(r | bit, p & compatible[v], x & compatible[v])
            p &= ~bit
            x |= bit
            branch &= branch - 1

    yield from bk(0, universe, 0)


def max_chains_family(
    n: int, cond: Condition, ell: int, *, accept_exponential: bool = False
) -> tuple[int, FamilyMask]:
    """Exact maximum ell-chain count over all families of subsets of [n] satisfying cond.

    Adding a set never removes chains, so the maximum is attained by some
    maximal satisfying family; those are enumerated exhaustively.  Capped at
    n <= 4 unless accept_exponential is set.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n > CHAIN_OPTIMIZE_MAX_N and not accept_exponential:
        raise ValueError(
            f"max_chains_family is doubly exponential; n={n} needs accept_exponential=True"
        )
    if ell < 1:
        raise ValueError(f"ell must be a positive integer, got {ell}")
    adjacency = _conflict_adjacency(cond, n)
    vertex_count = 1 << n
    universe = (1 << vertex_count) - 1
    compatible = [
        universe & ~adjacency[v] & ~(1 << v) for v in range(vertex_count)
    ]
    best_count = 0
    best_bits = 0
    for bits in _maximal_families(compatible, universe):
        count = count_chains_family(FamilyMask(n, bits), ell)
        if count > best_count or (count == best_count and bits < best_bits):
            best_count = count
            best_bits = bits
    return best_count, FamilyMask(n, best_bits)
