"""
Brute-force references over S_m that the tests compare the engines
against, the East-step exceedance (the paper's definition, which the flaw
rule replaced), the whole-word path statistics, the linear and cyclic
descent scans and the shift-by-shift orbit certificate that the cyclic
ad-word replaced, the full-window lattice-count DP that the banded one
replaced, the column walk of the Eulerian recurrence that the closed form
replaced for single entries, the Chung-Feller machinery on 0/1 words
(0 = East, 1 = North) that only the tests run, and the k = 2 name of the
Fuss count.
"""
import itertools
from collections import Counter

from eulercat.numbers import fuss_eulerian_catalan
from eulercat.orbit import CASE_N, CASE_N_PLUS_ONE, analyze_orbit
from eulercat.permcore import ad_vector, as_permutation


def eulerian_catalan(n):
    """EC_n = A(n, 2n+1) / (n+1), the Fuss count at k = 2."""
    return fuss_eulerian_catalan(2, n)


def column_walk_eulerian(m, n):
    """
    A(m, n) by the recurrence A(j, r) = (r-j) A(j-1, r-1) + (j+1) A(j, r-1),
    walked over the entries of rows 1..n with at most m descents and at most
    n-1-m ascents: the only ones that feed A(m, n).
    """
    lo, row = 0, [1]  # row 0: the empty permutation, no descents
    for r in range(1, n + 1):
        # lo stays or moves up by one, and hi by at most one: both ends padded
        prev_lo, padded = lo, [0, *row, 0]
        lo, hi = max(0, r - n + m), min(r - 1, m)
        row = [
            (r - j) * padded[j - prev_lo] + (j + 1) * padded[j - prev_lo + 1]
            for j in range(lo, hi + 1)
        ]
    return row[0]


def descent_positions(w):
    """Indices i in 1..m-1 with w_i > w_{i+1}."""
    return frozenset(i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1])


def descent_count(w):
    return sum(1 for i in range(len(w) - 1) if w[i] > w[i + 1])


def cyclic_descent_positions(w):
    """descent_positions(w), plus index m iff the wrap pair (w_m, w_1) descends."""
    m = len(w)
    pos = set(descent_positions(w))
    if m > 1 and w[-1] > w[0]:
        pos.add(m)
    return frozenset(pos)


def cyclic_shift(w, r):
    """The rotation w_r w_{r+1} ... w_m w_1 ... w_{r-1}, for 1 <= r <= m."""
    m = len(w)
    if not 1 <= r <= m:
        raise ValueError(f"shift start {r} outside 1..{m}")
    return tuple(w[r - 1:]) + tuple(w[:r - 1])


def scan_orbit(w):
    """
    The orbit certificate of w in S_{2n+1} with n descents, by scanning
    every shift as a permutation: the case from the cyclic descent count,
    the shifts with n descents in start order, and the paper's East-step
    exceedance of each, in the dict that analyze_orbit returns.
    """
    n = (len(w) - 1) // 2
    case = CASE_N_PLUS_ONE if len(cyclic_descent_positions(w)) == n + 1 else CASE_N
    every_shift = ((r, cyclic_shift(w, r)) for r in range(1, len(w) + 1))
    shifts = [
        {
            "start": r,
            "permutation": " ".join(map(str, s)),
            "exceedance": len(exceedance_positions(ad_vector(s))),
        }
        for r, s in every_shift
        if descent_count(s) == n
    ]
    return {
        "base": " ".join(map(str, w)),
        "case": case,
        "exceedances": [s["exceedance"] for s in shifts],
        "shifts": shifts,
    }


def is_k_ballot(bits, k):
    """True iff every prefix has at least k times as many 0s as 1s."""
    if k < 1:
        raise ValueError("k must be >= 1")
    zeros = ones = 0
    for b in bits:
        if b:
            ones += 1
        else:
            zeros += 1
        if zeros < k * ones:
            return False
    return True


def is_exceedance_step(x, y, letter):
    """
    True iff the step from (x, y) is East with y > x: column x is where the
    path peaks, so it passes strictly above the diagonal point (x, x).
    """
    return not letter and y > x


def exceedance_positions(word):
    """
    The diagonal indices i in {0..n} at which the path of a word with n
    zeros and n ones passes strictly above (i, i), i.e. contains a point
    (i, i') with i' > i: the paper's exceedance, read off the East steps.
    """
    east = word.count(0)
    if 2 * east != len(word) or word.count(1) != east:
        raise ValueError(f"not a 0/1 path ending on the diagonal: {tuple(word)}")
    positions = set()
    x = y = 0
    for letter in word:
        if is_exceedance_step(x, y, letter):
            positions.add(x)
        x, y = x + 1 - letter, y + letter
    # final column x = n peaks at y = n, never an exceedance
    return frozenset(positions)


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
        # count each orbit once, at its least listed shift as a string
        if cert["base"] == min(s["permutation"] for s in cert["shifts"]):
            for exc in cert["exceedances"]:
                counts[exc] += 1
    return {j: counts.get(j, 0) for j in range(n + 1)}


def full_window_lattice_count(spec, t):
    """
    Lattice points of the t-fold dilate of an alcoved spec by a DP whose row
    spans every sum 0..t*level_k; each prefix bound clears the row outside
    its window after step j.
    """
    target = t * spec.level_k
    checkpoints = {}
    for bd in spec.bounds:
        lo, hi = checkpoints.get(bd.j, (0, target))
        if bd.lower is not None:
            lo = max(lo, t * bd.lower)
        if bd.upper is not None:
            hi = min(hi, t * bd.upper)
        checkpoints[bd.j] = (lo, hi)
    # dp[s] = number of ways for the processed prefix to sum to s.  A coordinate
    # in [0, t] maps it to nxt[s] = dp[s-t] + ... + dp[s] = prefix[s+1] -
    # prefix[max(s-t, 0)]: prefix[s+1] up to t, a difference of two slices above
    dp = [1] + [0] * target
    for index in range(1, spec.ambient_n + 1):
        prefix = [0, *itertools.accumulate(dp)]
        above = zip(prefix[t + 2 : target + 2], prefix[1:])
        nxt = prefix[1 : min(t, target) + 2] + [a - b for a, b in above]
        if index in checkpoints:
            clo, chi = checkpoints[index]  # 0 <= clo and chi <= target
            below, above = min(clo, target + 1), max(chi + 1, 0)
            nxt[:below] = [0] * below
            nxt[above:] = [0] * (target + 1 - above)
        dp = nxt
    return dp[target]


def complement(w):
    """Value-complement v -> m+1-v.  An involution; flips every ascent/descent."""
    m = len(w)
    return tuple(m + 1 - v for v in w)


def is_dyck_permutation(w, k=1):
    """True iff ad(w) is a k-ballot word (the raw k-Dyck path condition)."""
    return is_k_ballot(ad_vector(w), k)


def enumerate_diagonal_paths(n):
    """All C(2n, n) words with n zeros and n ones, lexicographic."""
    for zeros in itertools.combinations(range(2 * n), n):
        word = [1] * (2 * n)
        for i in zeros:
            word[i] = 0
        yield tuple(word)


def h_step_vector(word):
    """c_i = number of East steps taken while at height y = i, for i = 0..n."""
    n = sum(word)
    if 2 * n != len(word):
        raise ValueError(f"path {word} does not end on the diagonal")
    counts = [0] * (n + 1)
    y = 0
    for step in word:
        if step:
            y += 1
        else:
            counts[y] += 1
    return tuple(counts)


def path_from_h_vector(counts):
    """
    The unique diagonal word with counts[i] East steps at height i:
    0^c_0 1 0^c_1 1 ... 1 0^c_n.
    """
    n = len(counts) - 1
    if n < 0 or any(c < 0 for c in counts) or sum(counts) != n:
        raise ValueError(f"not an h-step vector of counts >= 0 summing to n: {counts}")
    word = [0] * counts[0]
    for c in counts[1:]:
        word += [1] + [0] * c
    return tuple(word)


def chung_feller_orbit(word):
    """
    The n+1 words whose h-step vectors are the cyclic rotations of this
    word's vector.  Their exceedances are 0..n in some order.
    """
    c = h_step_vector(word)
    return tuple(path_from_h_vector(c[j:] + c[:j]) for j in range(len(c)))


def dyck_to_s2n_bijection(word):
    """
    Cycle a Dyck permutation of S_{2n+1} until the value 2n+1 is last,
    then delete it, landing in S_{2n} with n-1 or n descents.
    """
    w = as_permutation(word)
    m = len(w)
    if m % 2 == 0 or m < 3:
        raise ValueError(f"expected odd length >= 3, got m = {m}")
    n = (m - 1) // 2
    if descent_count(w) != n:
        raise ValueError(f"expected {n} descents, got {descent_count(w)}")
    if not is_dyck_permutation(w, 1):
        raise ValueError(f"{w} is not a Dyck permutation")
    pos = w.index(m) + 1  # 1-based position of the maximum
    shifted = cyclic_shift(w, pos % m + 1)
    assert shifted[-1] == m, f"shift {shifted} does not end in the maximum {m}"
    image = shifted[:-1]
    assert descent_count(image) in (n - 1, n), f"bijection image {image} has bad descent count"
    return image
