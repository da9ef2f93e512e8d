"""
Cyclic-orbit analysis of permutations with n descents in S_{2n+1}:
exceedance equidistribution and Dyck-permutation counting.

Among the 2n+1 cyclic shifts of a permutation with n descents, exactly
n+1 have n descents, and the lattice paths of those n+1 shifts realize
every exceedance value 0..n exactly once.  analyze_orbit reads that
statement off one word, the cyclic ad-word of w, and checks it.  The
census counts k = 2 flaws (paths.is_flaw_step), and the Dyck count drops
every flaw at its own k.
"""
from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .errors import Budget, InvariantError
from .permcore import (
    Permutation,
    ad_vector,
    as_permutation,
    descent_word_walk,
    format_permutation,
)
from .paths import exceedance, is_flaw_step

CASE_N = "n-cyclic-descents"
CASE_N_PLUS_ONE = "n-plus-one-cyclic-descents"


class OrbitCertificate(NamedTuple):
    """The n+1 cyclic shifts with n descents and their exceedances."""

    base: Permutation
    case_tag: str
    shifts: tuple[tuple[int, Permutation], ...]  # (start index, shifted word)
    exceedances: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "base": format_permutation(self.base),
            "case": self.case_tag,
            "exceedances": list(self.exceedances),
            "shifts": [
                {
                    "start": start,
                    "permutation": format_permutation(w),
                    "exceedance": exc,
                }
                for (start, w), exc in zip(self.shifts, self.exceedances)
            ],
        }


def analyze_orbit(word: Sequence[int]) -> OrbitCertificate:
    """
    Certify the cyclic orbit of w in S_{2n+1} with n descents from its
    cyclic ad-word c, whose letter i is the pair (w_{i+1}, w_{i+2}) and
    whose last letter is the wrap pair (w_m, w_1).  The shift that starts
    at r reads c from letter r-1 round to letter r-2, the pair
    (w_{r-1}, w_r), which it drops; so it has sum(c) - c[r-2] descents and
    is listed iff the dropped letter is the case bit sum(c) > n.  Checks
    that the listed exceedances are exactly {0..n}.
    """
    w = as_permutation(word)
    m = len(w)
    if m % 2 == 0:
        raise ValueError(f"orbit analysis needs odd length, got m = {m}")
    n = (m - 1) // 2
    c = ad_vector(w + w[:1])
    descents = sum(c) - c[-1]
    if descents != n:
        raise ValueError(f"expected {n} descents for m = {m}, got {descents}")

    case_bit = int(sum(c) > n)
    shifts = []
    exceedances = []
    for r in range(1, m + 1):
        if c[r - 2] == case_bit:  # r = 1 drops the wrap letter c[-1]
            shifts.append((r, w[r - 1:] + w[:r - 1]))
            exceedances.append(exceedance((c[r - 1:] + c[:r - 1])[:-1]))

    if sorted(exceedances) != list(range(n + 1)):
        raise InvariantError(
            f"exceedances {exceedances} are not a permutation of 0..{n}"
        )
    case_tag = CASE_N_PLUS_ONE if case_bit else CASE_N
    return OrbitCertificate(w, case_tag, tuple(shifts), tuple(exceedances))


def equidistribution_census(n: int, cap: Optional[Budget] = None) -> dict[int, int]:
    """
    Census of w in S_{2n+1} with n descents by exc(L(w)): the walk keys
    each ad-word by its k = 2 flaws so far.  Every bucket j = 0..n holds
    the same count, the Eulerian-Catalan number EC_n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")

    def step(x: int, y: int, exc: int, letter: int) -> int:
        return exc + is_flaw_step(x, y, letter, 2)

    counts = descent_word_walk(2 * n + 1, n, step, cap)
    return {j: counts.get(j, 0) for j in range(n + 1)}


def count_dyck_permutations(n: int, k: int = 2, cap: Optional[Budget] = None) -> int:
    """
    Count of w in S_{kn+k-1} with n descents whose ad-vector is a
    (k-1)-ballot sequence, with no flaw; equals fuss_eulerian_catalan(k, n).
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if n < 0:
        raise ValueError("n must be >= 0")

    def step(x: int, y: int, key: int, letter: int) -> Optional[int]:
        return None if is_flaw_step(x, y, letter, k) else key

    return sum(descent_word_walk(k * n + k - 1, n, step, cap).values())
