"""
Cyclic-orbit analysis of permutations with n descents in S_{2n+1}, and
the flaw census and Dyck-permutation count of S_{kn+k-1}.

Among the 2n+1 cyclic shifts of a permutation with n descents, exactly
n+1 have n descents, and the lattice paths of those n+1 shifts realize
every exceedance value 0..n exactly once.  analyze_orbit reads that
statement off one word, the cyclic ad-word of w, and checks it; a shift's
exceedance is its k = 2 flaw count (paths.is_flaw_step).  The census and
the Dyck count are two rules of paths.flaw_walk, at any k: the census
counts the flaws, the Dyck count drops every word with one.
"""
from collections.abc import Sequence

from .errors import InvariantError
from .permcore import ad_vector, as_permutation, format_permutation
from .paths import flaw_walk, is_flaw_step

CASE_N = "n-cyclic-descents"
CASE_N_PLUS_ONE = "n-plus-one-cyclic-descents"


def _flaws(word: Sequence[int]) -> int:
    """The k = 2 flaws of a word with as many 0s as 1s: its path's exceedance."""
    count = x = y = 0
    for letter in word:
        count += is_flaw_step(x, y, letter, 2)
        x, y = x + 1 - letter, y + letter
    return count


def analyze_orbit(word: Sequence[int]) -> dict:
    """
    Certify the cyclic orbit of w in S_{2n+1} with n descents from its
    cyclic ad-word c, whose letter i is the pair (w_{i+1}, w_{i+2}) and
    whose last letter is the wrap pair (w_m, w_1).  The shift that starts
    at r reads c from letter r-1 round to letter r-2, the pair
    (w_{r-1}, w_r), which it drops; so it has sum(c) - c[r-2] descents and
    is listed iff the dropped letter is the case bit sum(c) > n, which
    leaves n ones in its 2n letters.  Checks that the listed exceedances
    are exactly {0..n}, and returns the certificate: the base word, its
    case, and each listed shift by start.
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
    shifts = [
        {
            "start": r,
            "permutation": format_permutation(w[r - 1:] + w[:r - 1]),
            "exceedance": _flaws((c[r - 1:] + c[:r - 1])[:-1]),
        }
        for r in range(1, m + 1)
        if c[r - 2] == case_bit  # r = 1 drops the wrap letter c[-1]
    ]
    exceedances = [s["exceedance"] for s in shifts]
    if sorted(exceedances) != list(range(n + 1)):
        raise InvariantError(
            f"exceedances {exceedances} are not a permutation of 0..{n}"
        )
    return {
        "base": format_permutation(w),
        "case": CASE_N_PLUS_ONE if case_bit else CASE_N,
        "exceedances": exceedances,
        "shifts": shifts,
    }


def equidistribution_census(k: int, n: int) -> dict[int, int]:
    """
    Census of w in S_{kn+k-1} with n descents by the flaws of their paths
    (at k = 2, exc(L(w))): the walk keys each ad-word by its flaws so far.
    Every bucket j = 0..n holds the same count, fuss_eulerian_catalan(k, n).
    """
    counts = flaw_walk(k, n, lambda flaws, y: flaws + 1)
    return {j: counts.get(j, 0) for j in range(n + 1)}


def count_dyck_permutations(k: int, n: int) -> int:
    """
    Count of w in S_{kn+k-1} with n descents whose ad-vector is a
    (k-1)-ballot sequence, with no flaw; equals fuss_eulerian_catalan(k, n).
    """
    return sum(flaw_walk(k, n, lambda key, y: None).values())
