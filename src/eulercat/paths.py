"""
Lattice paths and the exceedance statistic, one step at a time.

A path is a 0/1 word read as steps: 0 = East (1,0), 1 = North (0,1).
The path of a permutation is its ascent/descent word (permcore.ad_vector):
an ascent steps East, a descent North.  is_exceedance_step is the one
definition of an exceedance, read by the whole-word exceedance below and
by the letter-by-letter counts of permcore.descent_word_walk.
"""
from __future__ import annotations

from typing import Sequence


def is_exceedance_step(x: int, y: int, letter: int) -> bool:
    """
    True iff the step from (x, y) is East with y > x: column x is where the
    path peaks, so it passes strictly above the diagonal point (x, x).
    """
    return not letter and y > x


def exceedance(word: Sequence[int]) -> int:
    """
    The number of diagonal indices i in {0..n} at which the path of a word
    with n zeros and n ones passes strictly above (i, i).
    """
    east = word.count(0)
    if 2 * east != len(word) or word.count(1) != east:
        raise ValueError(f"not a 0/1 path ending on the diagonal: {tuple(word)}")
    # the final column x = n peaks at y = n, never an exceedance
    count = x = y = 0
    for letter in word:
        count += is_exceedance_step(x, y, letter)
        x, y = x + 1 - letter, y + letter
    return count
