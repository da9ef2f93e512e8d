"""
Exact big-integer number families: Eulerian, Catalan, Eulerian-Catalan,
and the Fuss-type quotients A(n, kn+k-1)/(n+1).

Rows of the Eulerian triangle come from one rolling walk of the two-term
recurrence.  The symmetry A(m, n) = A(n-m-1, n) is its mechanism: the walk
builds the lower half of each row, and `eulerian_row` mirrors the last one.
One entry comes from the closed-form alternating sum, which shares no code
with the walk; test_numbers' `test_closed_form_matches_the_row_walk` and
`test_eulerian_past_n_500_matches_closed_form` check the upper halves by it.
"""
import itertools
import math
from collections.abc import Iterator

from .errors import InvariantError


def eulerian_rows(n: int, width: int) -> Iterator[list[int]]:
    """
    The lower halves of rows 1..n of the Eulerian triangle, row r as
    [A(lo, r), ..., A((r-1)//2, r)] with lo = max(0, r-1-width): the
    entries with at most (r-1)//2 descents and at most width ascents.  Each
    row is built from the one before by A(m, r) = (r-m) A(m-1, r-1) +
    (m+1) A(m, r-1), and nothing older is kept.
    """
    lo, half = 0, [1]  # row 0: the empty permutation, no descents
    for r in range(1, n + 1):
        # lo stays at 0 or moves up by one; at odd r the half also reads A((r-1)//2, r-1),
        # the mirror of the previous half's last entry, so padded[m - prev_lo + 1] = A(m, r-1)
        prev_lo, padded = lo, [0, *half, *half[-1:]]
        lo = max(0, r - 1 - width)
        half = [
            (r - m) * padded[m - prev_lo] + (m + 1) * padded[m - prev_lo + 1]
            for m in range(lo, (r - 1) // 2 + 1)
        ]
        yield half


def eulerian_row(n: int) -> list[int]:
    """[A(0, n), ..., A(n-1, n)]: the last half of the walk, mirrored."""
    if n <= 0:
        raise ValueError("n must be >= 1")
    for half in eulerian_rows(n, n - 1):
        pass
    return half + half[: n - len(half)][::-1]


def eulerian(m: int, n: int) -> int:
    """Number of permutations of [n] with m descents, 0 for m out of range."""
    if n <= 0:
        raise ValueError("n must be >= 1")
    if not 0 <= m < n:
        return 0
    return sum((-1) ** j * math.comb(n + 1, j) * (m + 1 - j) ** n for j in range(m + 1))


def _exact_quotient(numerator: int, divisor: int, what: str, route: str) -> int:
    q, r = divmod(numerator, divisor)
    if r != 0:
        raise InvariantError(
            f"{what}: {numerator} is not divisible by {divisor}; "
            f"this indicates a bug in {route}"
        )
    return q


def eulerian_catalan_upto(max_n: int) -> list[int]:
    """[EC_0, ..., EC_max_n]: the centre A(n, 2n+1) ends the half of each odd row."""
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    odd_rows = itertools.islice(eulerian_rows(2 * max_n + 1, max_n), 0, None, 2)
    return [
        _exact_quotient(half[-1], n + 1, f"EC_{n}", "the Eulerian row walk")
        for n, half in enumerate(odd_rows)
    ]


def fuss_eulerian_catalan(k: int, n: int) -> int:
    """A(n, kn+k-1) / (n+1), counting (k-1)-Dyck permutations; k >= 2."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if n < 0:
        raise ValueError("n must be >= 0")
    return _exact_quotient(
        eulerian(n, k * n + k - 1), n + 1, f"fuss({k}, {n})", "the Eulerian alternating sum"
    )


def catalan(n: int) -> int:
    """binomial(2n, n) / (n+1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return math.comb(2 * n, n) // (n + 1)
