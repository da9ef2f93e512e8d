"""Brute-force references over S_m that the tests compare the engines against."""
import itertools
from collections import Counter

from eulercat.orbit import analyze_orbit
from eulercat.permcore import descent_count


def enumerate_by_descent_count(m, d):
    """
    Lazily yield the permutations of [m] with exactly d descents, in
    lexicographic order.  Empty stream when d is out of range.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if d < 0 or d > m - 1:
        return
    for w in itertools.permutations(range(1, m + 1)):
        if descent_count(w) == d:
            yield w


def orbit_census(n):
    """
    The exceedance census of S_{2n+1} with n descents, recounted by brute
    force with one orbit certificate per cyclic orbit.
    """
    counts = Counter()
    for w in enumerate_by_descent_count(2 * n + 1, n):
        cert = analyze_orbit(w)
        # count each orbit once, at its lexicographically least listed shift
        if w == min(shifted for _, shifted in cert.shifts):
            for exc in cert.exceedances:
                counts[exc] += 1
    return {j: counts.get(j, 0) for j in range(n + 1)}
