"""
Exact big-integer number families: Eulerian, Catalan, Eulerian-Catalan,
and the Fuss-type quotients A(n, kn+k-1)/(n+1).

Everything is computed with Python's arbitrary-precision integers.  The
Eulerian numbers come from one rolling row of the two-term recurrence,
in one direction only; the row symmetry A(m, n) = A(n-m-1, n) is
exercised by the test suite as an independent check, never as a
computation shortcut.
"""
from __future__ import annotations

import itertools
import math
from typing import Iterator

from .errors import InvariantError


def eulerian_rows(n: int, descents: int, ascents: int) -> Iterator[tuple[int, list[int]]]:
    """
    Rows 1..n of the Eulerian triangle, row r as (lo, [A(lo, r), ..., A(hi, r)]):
    the band max(0, r-1-ascents) <= m <= min(r-1, descents) of entries with at
    most that many descents and ascents.  Each row is built from the one before
    by A(m, r) = (r-m) A(m-1, r-1) + (m+1) A(m, r-1), which reads only entries
    of the previous row's band, and nothing older is kept.
    """
    lo, row = 0, [1]  # row 0: the empty permutation, no descents
    for r in range(1, n + 1):
        # lo stays or moves up by one, and hi by at most one: both ends padded,
        # padded[m - prev_lo + 1] = A(m, r-1) covers either move
        prev_lo, padded = lo, [0, *row, 0]
        lo, hi = max(0, r - 1 - ascents), min(r - 1, descents)
        row = [
            (r - m) * padded[m - prev_lo] + (m + 1) * padded[m - prev_lo + 1]
            for m in range(lo, hi + 1)
        ]
        yield lo, row


def eulerian_row(n: int) -> list[int]:
    """[A(0, n), ..., A(n-1, n)]: the band of at most n-1 descents and ascents."""
    if n <= 0:
        raise ValueError("n must be >= 1")
    for _, row in eulerian_rows(n, n - 1, n - 1):
        pass
    return row


def eulerian(m: int, n: int) -> int:
    """Number of permutations of [n] with m descents; 0 for m out of range."""
    if n <= 0:
        raise ValueError("n must be >= 1")
    if not 0 <= m < n:
        return 0
    for _, row in eulerian_rows(n, descents=m, ascents=n - 1 - m):
        pass
    return row[0]


def _exact_quotient(numerator: int, divisor: int, what: str) -> int:
    q, r = divmod(numerator, divisor)
    if r != 0:
        raise InvariantError(
            f"{what}: {numerator} is not divisible by {divisor}; "
            "this indicates a bug in the Eulerian recurrence"
        )
    return q


def eulerian_catalan_upto(max_n: int) -> list[int]:
    """[EC_0, ..., EC_max_n] from one walk over rows 1..2*max_n+1."""
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    odd_rows = itertools.islice(eulerian_rows(2 * max_n + 1, max_n, max_n), 0, None, 2)
    return [
        _exact_quotient(row[n - lo], n + 1, f"EC_{n}")
        for n, (lo, row) in enumerate(odd_rows)
    ]


def fuss_eulerian_catalan(k: int, n: int) -> int:
    """A(n, kn+k-1) / (n+1), counting (k-1)-Dyck permutations; k >= 2."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if n < 0:
        raise ValueError("n must be >= 0")
    return _exact_quotient(
        eulerian(n, k * n + k - 1), n + 1, f"fuss({k}, {n})"
    )


def catalan(n: int) -> int:
    """binomial(2n, n) / (n+1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return math.comb(2 * n, n) // (n + 1)
