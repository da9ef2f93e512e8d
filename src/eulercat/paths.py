"""
Lattice paths and their flaws, one step at a time.

A path is a 0/1 word read as steps: 0 = East (1,0), 1 = North (0,1).
The path of a permutation is its ascent/descent word (permcore.ad_vector):
an ascent steps East, a descent North.  is_flaw_step is the one step rule,
read by the whole-word exceedance below and by permcore.descent_word_walk.
At k = 2 the flaw rows are the exceedance columns: a path leaves column x
above height x iff it climbs out of row x at a column <= x.
"""
from __future__ import annotations

from typing import Sequence


def is_flaw_step(x: int, y: int, letter: int, k: int) -> bool:
    """True iff the step from (x, y) is a flaw: North with x < (k-1)(y+1)."""
    return letter == 1 and x < (k - 1) * (y + 1)


def exceedance(word: Sequence[int]) -> int:
    """
    The number of diagonal indices i in {0..n} at which the path of a word
    with n zeros and n ones passes strictly above (i, i): its k = 2 flaws.
    """
    east = word.count(0)
    if 2 * east != len(word) or word.count(1) != east:
        raise ValueError(f"not a 0/1 path ending on the diagonal: {tuple(word)}")
    count = x = y = 0
    for letter in word:
        count += is_flaw_step(x, y, letter, 2)
        x, y = x + 1 - letter, y + letter
    return count
