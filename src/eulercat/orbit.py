"""
Cyclic-orbit analysis of permutations with n descents in S_{2n+1}:
exceedance equidistribution and Dyck-permutation counting.

Among the 2n+1 cyclic shifts of a permutation with n descents, exactly
n+1 have n descents, and the lattice paths of those n+1 shifts realize
every exceedance value 0..n exactly once.  analyze_orbit materializes
that statement as a checked certificate.  The census counts k = 2 flaws
(paths.is_flaw_step), and the Dyck count drops every flaw at its own k.
"""
from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .errors import InvariantError
from .permcore import (
    DEFAULT_FACTORIAL_CAP,
    Permutation,
    ad_vector,
    as_permutation,
    cyclic_descent_positions,
    cyclic_shift,
    descent_count,
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

    @property
    def n(self) -> int:
        return (len(self.base) - 1) // 2

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
    Certify the cyclic orbit of w in S_{2n+1} with n descents: classify by
    cyclic-descent count, list the n+1 shifts with n descents, and check
    that their exceedances are exactly {0..n}.
    """
    w = as_permutation(word)
    m = len(w)
    if m % 2 == 0:
        raise ValueError(f"orbit analysis needs odd length, got m = {m}")
    n = (m - 1) // 2
    if descent_count(w) != n:
        raise ValueError(
            f"expected {n} descents for m = {m}, got {descent_count(w)}"
        )

    cyclic = cyclic_descent_positions(w)
    if len(cyclic) == n:
        case_tag, want_descent_pair = CASE_N, False
    elif len(cyclic) == n + 1:
        case_tag, want_descent_pair = CASE_N_PLUS_ONE, True
    else:
        raise InvariantError(
            f"cyclic descent count {len(cyclic)} outside {{n, n+1}}"
        )

    # start at position i when the preceding cyclic pair (w_{i-1}, w_i)
    # is a descent (case n+1) or a non-descent (case n); i = 1 wraps to
    # the pair (w_m, w_1), recorded as cyclic index m.
    starts = []
    for i in range(1, m + 1):
        pair_index = i - 1 if i > 1 else m
        if (pair_index in cyclic) == want_descent_pair:
            starts.append(i)
    if len(starts) != n + 1:
        raise InvariantError(f"expected {n + 1} start indices, got {starts}")

    shifts = []
    exceedances = []
    other_descents = n - 1 if case_tag == CASE_N else n + 1
    for r in range(1, m + 1):
        shifted = cyclic_shift(w, r)
        d = descent_count(shifted)
        if r in starts:
            if d != n:
                raise InvariantError(f"listed shift {shifted} has {d} descents")
            shifts.append((r, shifted))
            exceedances.append(exceedance(ad_vector(shifted)))
        elif d != other_descents:
            raise InvariantError(
                f"unlisted shift {shifted} has {d} descents, expected {other_descents}"
            )

    if sorted(exceedances) != list(range(n + 1)):
        raise InvariantError(
            f"exceedances {exceedances} are not a permutation of 0..{n}"
        )
    return OrbitCertificate(w, case_tag, tuple(shifts), tuple(exceedances))


def equidistribution_census(n: int, cap: int = DEFAULT_FACTORIAL_CAP) -> dict[int, int]:
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


def count_dyck_permutations(
    n: int,
    k: int = 2,
    cap: int = DEFAULT_FACTORIAL_CAP,
) -> int:
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
