"""
Lattice paths and their flaws, one step at a time.

A path is a 0/1 word read as steps: 0 = East (1,0), 1 = North (0,1).
The path of a permutation is its ascent/descent word (permcore.ad_vector):
an ascent steps East, a descent North.  is_flaw_step is the one step rule,
read by flaw_walk, which runs it over every word of S_{kn+k-1} with n
descents; each flaw count is a rule for what a flaw does to the walk's
key.  At k = 2 the flaw rows are the exceedance columns: a path leaves
column x above height x iff it climbs out of row x at a column <= x.
"""
from collections.abc import Callable

from .permcore import descent_word_walk


def is_flaw_step(x: int, y: int, letter: int, k: int) -> bool:
    """True iff the step from (x, y) is a flaw: North with x < (k-1)(y+1)."""
    return letter == 1 and x < (k - 1) * (y + 1)


def flaw_walk(
    k: int, n: int, on_flaw: Callable[[int, int], int | None]
) -> dict[int, int]:
    """
    {final key: permutations of S_{kn+k-1} with n descents whose ad-word ends
    with that key}.  Every step keeps the key, except a flaw out of row y,
    which makes it on_flaw(key, y); None drops the word.  Charges the
    command's budget as permcore.descent_word_walk does.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if n < 0:
        raise ValueError("n must be >= 0")

    def step(x: int, y: int, key: int, letter: int) -> int | None:
        return on_flaw(key, y) if is_flaw_step(x, y, letter, k) else key

    return descent_word_walk(k * n + k - 1, n, step)
