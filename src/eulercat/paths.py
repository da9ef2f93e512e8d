"""
Lattice paths, ballot words and exceedance statistics.

A path is a 0/1 word read as steps: 0 = East (1,0), 1 = North (0,1).
The path of a permutation is its ascent/descent word (permcore.ad_vector):
an ascent steps East, a descent North.
"""
from __future__ import annotations

from typing import Sequence


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


def exceedance_positions(word: Sequence[int]) -> frozenset[int]:
    """
    The diagonal indices i in {0..n} at which the path of a word with n
    zeros and n ones passes strictly above (i, i), i.e. contains a point
    (i, i') with i' > i.
    """
    east = word.count(0)
    if 2 * east != len(word) or word.count(1) != east:
        raise ValueError(f"not a 0/1 path ending on the diagonal: {tuple(word)}")
    positions = set()
    x = y = 0
    for step in word:
        if step:
            y += 1
        else:
            # y is maximal within column x just before the East step
            if y > x:
                positions.add(x)
            x += 1
    # final column x = n peaks at y = n, never an exceedance
    return frozenset(positions)


def exceedance(word: Sequence[int]) -> int:
    return len(exceedance_positions(word))
