"""
Lattice paths, ballot words, exceedance statistics, and the
horizontal-step-vector machinery behind the Chung-Feller theorem.

A path is a string over {E, N}: E = (1,0) records an ascent of the
originating permutation, N = (0,1) a descent.  Binary words are tuples
over {0,1} and serialize as strings of 0/1 characters.
"""
from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .errors import InvariantError
from .permcore import ad_vector

EAST = "E"
NORTH = "N"

LatticePath = str
BinaryWord = tuple[int, ...]


def word_from_string(text: str) -> BinaryWord:
    if any(ch not in "01" for ch in text):
        raise ValueError(f"binary word may contain only 0/1: {text!r}")
    return tuple(int(ch) for ch in text)


def word_to_string(bits: Sequence[int]) -> str:
    return "".join(str(b) for b in bits)


def path_from_word(bits: Sequence[int]) -> LatticePath:
    """Interpret a 0/1 word as a path: 0 -> East, 1 -> North."""
    return "".join(NORTH if b else EAST for b in bits)


def path_from_perm(w: Sequence[int]) -> LatticePath:
    """The path L(w): step i is North iff i is a descent of w."""
    return path_from_word(ad_vector(w))


def is_k_ballot(bits: Sequence[int], k: int) -> bool:
    """True iff every prefix has at least k times as many 0s as 1s."""
    if k < 1:
        raise ValueError("k must be >= 1")
    zeros = ones = 0
    for b in bits:
        if b:
            ones += 1
        else:
            zeros += 1
        if zeros < k * ones:
            return False
    return True


def is_dyck_permutation(w: Sequence[int], k: int = 1) -> bool:
    """True iff ad(w) is a k-ballot sequence (the raw k-Dyck path condition)."""
    return is_k_ballot(ad_vector(w), k)


def _diagonal_size(path: LatticePath) -> int:
    """Number of East steps; rejects paths not ending on the diagonal y = x."""
    east = path.count(EAST)
    north = len(path) - east
    if east != north:
        raise ValueError(f"path ends at ({east}, {north}), not on the diagonal")
    if any(ch not in (EAST, NORTH) for ch in path):
        raise ValueError(f"path may contain only E/N steps: {path!r}")
    return east


def exceedance_positions(path: LatticePath) -> frozenset[int]:
    """
    The diagonal indices i in {0..n} at which the path passes strictly
    above (i, i), i.e. contains a point (i, i') with i' > i.
    """
    n = _diagonal_size(path)
    positions = set()
    x = y = 0
    for step in path:
        if step == NORTH:
            y += 1
        else:
            # y is maximal within column x just before the East step
            if y > x:
                positions.add(x)
            x += 1
    # final column x = n peaks at y = n, never an exceedance
    if x != n:
        raise InvariantError(f"path {path!r} ends in column {x}, not {n}")
    return frozenset(positions)


def exceedance(path: LatticePath) -> int:
    return len(exceedance_positions(path))


def h_step_vector(path: LatticePath) -> tuple[int, ...]:
    """c_i = number of East steps taken while at height y = i, for i = 0..n."""
    n = _diagonal_size(path)
    counts = [0] * (n + 1)
    y = 0
    for step in path:
        if step == NORTH:
            y += 1
        else:
            counts[y] += 1
    return tuple(counts)


def path_from_h_vector(counts: Sequence[int]) -> LatticePath:
    """
    The unique diagonal path with counts[i] East steps at height i:
    East^c_0, North, East^c_1, North, ..., East^c_n.
    """
    n = len(counts) - 1
    if n < 0 or any(c < 0 for c in counts):
        raise ValueError("h-step vector must be a nonempty sequence of counts >= 0")
    if sum(counts) != n:
        raise ValueError(f"h-step vector must sum to {n}, got {sum(counts)}")
    runs = [EAST * c for c in counts]
    return NORTH.join(runs)


def chung_feller_orbit(path: LatticePath) -> tuple[LatticePath, ...]:
    """
    The n+1 paths whose h-step vectors are the cyclic rotations of this
    path's vector.  Their exceedances are 0..n in some order.
    """
    c = h_step_vector(path)
    n = len(c) - 1
    return tuple(
        path_from_h_vector(c[j:] + c[:j]) for j in range(n + 1)
    )


def enumerate_diagonal_paths(n: int) -> Iterator[LatticePath]:
    """All C(2n, n) paths from (0,0) to (n,n), lexicographic in E < N."""
    for combo in itertools.combinations(range(2 * n), n):
        steps = [NORTH] * (2 * n)
        for i in combo:
            steps[i] = EAST
        yield "".join(steps)
