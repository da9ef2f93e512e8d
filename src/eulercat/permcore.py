"""
Permutations, their ascent/descent words, and the one counting engine.

A permutation of [m] is stored in one-line notation as a tuple of the
values (w_1, ..., w_m), each of 1..m exactly once.  All positions and
values in this package are 1-based, matching the usual combinatorics
convention; the tuple index is therefore position minus one.

A descent is an index i in 1..m-1 with w_i > w_{i+1}; the ad-word of w
has a 1 there and a 0 at each ascent.  The cyclic ad-word of w is the
ad-word of w_1 ... w_m w_1: one more letter, for the wrap pair (w_m, w_1),
which for m = 1 is (w_1, w_1) and never a descent.

Every count in the package depends on a permutation only through its
ascent/descent word, so descent_word_walk is the one counting engine: it
reads the words letter by letter as paths, and each count is a step rule.
"""
import itertools
from collections.abc import Callable, Sequence

from .errors import charge

Permutation = tuple[int, ...]


def as_permutation(word: Sequence[int]) -> Permutation:
    """Validate that word is a permutation of {1..m} and return it as a tuple."""
    w = tuple(word)
    m = len(w)
    if m < 1:
        raise ValueError("permutation must have length >= 1")
    if sorted(w) != list(range(1, m + 1)):
        raise ValueError(f"not a permutation of 1..{m}: {w}")
    return w


def ad_vector(w: Sequence[int]) -> tuple[int, ...]:
    """The ascent/descent vector: length m-1, entry 1 at descents, 0 at ascents."""
    return tuple(1 if w[i] > w[i + 1] else 0 for i in range(len(w) - 1))


def descent_word_walk(
    m: int, d: int, step: Callable[[int, int, int, int], int | None]
) -> dict[int, int]:
    """
    {final key: permutations of [m] with d descents whose ad-word ends with
    that key}.  A word is read as a path, one letter at a time (0 = East,
    an ascent; 1 = North, a descent).  A state is a point (x, y) plus a key,
    0 at the start; step(x, y, key, letter) returns the next key, or None
    to drop the word.  Each state holds one row of the rank recurrence
    (Stanley, EC1 section 1.4), and words that reach the same state add
    their rows, so no word is ever listed.  Empty when d is out of range.
    Each letter charges the command's budget (errors.charge) with the cells
    of its rows.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0 <= d <= m - 1:
        return {}
    # row[r]: orderings of the entries placed so far that match the word read
    # so far and whose last entry has rank r among them
    states = {(0, 0): [1]}  # (y, key) -> row, after `letters` letters
    for letters in range(m - 1):
        following: dict[tuple[int, int], list[int]] = {}
        for (y, key), row in states.items():
            x = letters - y
            for letter, room in ((0, m - 1 - d - x), (1, d - y)):
                nkey = step(x, y, key, letter) if room else None
                if nkey is None:
                    continue
                if letter:
                    nrow = list(itertools.accumulate(reversed(row)))[::-1] + [0]
                else:
                    nrow = [0, *itertools.accumulate(row)]
                seen = following.get((y + letter, nkey))
                following[y + letter, nkey] = (
                    nrow if seen is None else [a + b for a, b in zip(seen, nrow)]
                )
        states = following
        charge((letters + 2) * len(states))
    return {key: sum(row) for (_, key), row in states.items()}


def format_permutation(w: Sequence[int]) -> str:
    return " ".join(str(v) for v in w)
