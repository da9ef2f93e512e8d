"""
Independent exact volumes via Ehrhart lattice-point counting.

A dilated alcoved slice is counted by a dynamic program over the running
prefix sum.  One forward and one backward pass first give each step i the
polytope's band [lo_i, hi_i] of sums x_1 + ... + x_i that lie on some
lattice point: reachable from 0 in steps of 0..1, still able to reach
level_k, and inside every prefix limit, as AlcovedSpec.limits() reads the
spec's bounds.  Every clamp and step is linear in the dilation, so the
band is built once per polytope, and the t-fold dilate's DP row at step i
holds exactly t * [lo_i, hi_i]: a dilation costs the sum of its window
widths, each step one difference of the previous row's prefix sums.  A
crossed window, lo_i > hi_i, shows an empty polytope and an interior
window of one sum a flat one, both refused before any dilation is priced;
all the volumes of a command are charged at once, before the first DP.  The
counts at dilations t = 0..d determine d! times the Ehrhart polynomial,
whose coefficients are integers, by Newton forward differences; its
leading coefficient is the normalized volume.
Subdivision probes are the alcoves of the hypersimplex at ranks i * stride mod A,
the stride near A/phi and coprime to the alcove count A, unranked as permutations
by descent-preserving insertion with Eulerian-number weights, each probed at its
alcove point: integer numerators over N that lie on no cyclic wall, tested
strictly against every rotated limit of the P_{k,n} spec whose volume is
counted, box sides included.  Nothing here consults the permutation-counting
route, so the two volume computations cross-check each other.
"""
import functools
import itertools
import math
import operator
from collections.abc import Sequence

from .alcoved import AlcovedSpec, spec_for_Pkn, spec_for_hypersimplex
from .errors import DegenerateDimensionError, InvariantError, charge
from .numbers import eulerian, fuss_eulerian_catalan

PROBE_SAMPLES = 120


def _windows(spec: AlcovedSpec) -> list[tuple[int, int]]:
    """
    The band [lo_i, hi_i] of prefix sums x_1 + ... + x_i, i = 0..N, that lie on
    some lattice point of spec: a forward pass keeps the sums reachable from 0 in
    steps of 0..1 within every limit, a backward pass those that can still reach
    level_k.  The t-fold dilate's band is t times it; an empty polytope shows as a
    crossed window, lo_i > hi_i.  Charges one cell per window before building them.
    """
    charge(spec.ambient_n + 1)
    limits = spec.limits()
    limits[spec.ambient_n] = (spec.level_k, spec.level_k)  # the level sum itself
    band = [(0, 0)]
    for j in range(1, spec.ambient_n + 1):
        (lo, hi), (clo, chi) = band[-1], limits.get(j, (0, spec.level_k))
        band.append((max(lo, clo), min(hi + 1, chi)))
    for i in range(spec.ambient_n - 1, -1, -1):
        (lo, hi), (nlo, nhi) = band[i], band[i + 1]
        band[i] = (max(lo, nlo - 1), min(hi, nhi))
    return band


def count_dilated_lattice_points(band: Sequence[tuple[int, int]], t: int) -> int:
    """
    Number of integer points of the t-fold dilate of the polytope whose band
    _windows built: 0 <= x_i <= t, sum x_i = t * level_k, prefix sums within
    t-scaled bounds.  A crossed band counts 0 at t >= 1 and runs no DP; any other
    takes one coordinate x_i in 0..t per step.  Charges nothing: ehrhart_volumes does.
    """
    if t < 0:
        raise ValueError("dilation factor must be >= 0")
    if t and any(lo > hi for lo, hi in band):
        return 0
    row = [1]
    for (plo, phi), (lo, hi) in zip(band, band[1:]):
        # row i-1's prefix sums, padded with zeros to the sums t * (lo_i - 1) .. t * hi_i,
        # so row i counts sum s as prefix[s - t * lo_i + t + 1] - prefix[s - t * lo_i]
        prefix = [0] * (t * (plo - lo + 1) + 1)
        prefix += itertools.accumulate(row)
        prefix += [prefix[-1]] * (t * (hi - phi))
        row = list(map(operator.sub, prefix[t + 1 :], prefix))
    # the last window is the one sum t * level_k = t * lo_N
    return row[0]


def interpolate_at_integers(values: Sequence[int]) -> list[int]:
    """
    Integer coefficients (ascending) of d! p(x), for the unique degree <= d
    polynomial p through (0, values[0]), ..., (d, values[d]), by Newton's
    forward differences: d! p(x) = sum_j D^j h(0) (d!/j!) x(x-1)...(x-j+1).
    """
    d = len(values) - 1
    scaled = [0] * (d + 1)  # coefficients of d! p(x)
    falling = [1]  # coefficients of x(x-1)...(x-j+1)
    weight = math.factorial(d)  # d!/j!
    diffs = list(values)  # D^j h(t) for t = 0..d-j
    for j in range(d + 1):
        term = diffs[0] * weight
        for p, c in enumerate(falling):
            scaled[p] += term * c
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        falling = [a - j * b for a, b in zip([0, *falling], [*falling, 0])]
        weight //= j + 1
    return scaled


def eval_poly(coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _ratio(numerator: int, denominator: int) -> str:
    """numerator/denominator in lowest terms, zero as 0/1."""
    g = math.gcd(numerator, denominator)
    return f"{numerator // g}/{denominator // g}"


def ehrhart_volumes(specs: Sequence[AlcovedSpec]) -> list[dict]:
    """ehrhart_volume of each spec, with every band built and checked, and then every dilation
    charged, t at len(band) + t * W cells for W the band's width, before the first DP."""
    bands, cells = [_windows(spec) for spec in specs], 0
    for band in bands:
        # steps 0 <= S_i - S_{i-1} <= 1 and integer bounds are totally unimodular, so the
        # band holds the vertices' prefix sums, and an implicit equality fixes some interior S_i
        d = len(band) - 2
        if any(lo > hi for lo, hi in band):
            raise DegenerateDimensionError("empty polytope: h(1) = 0")
        if any(lo == hi for lo, hi in band[1:-1]):
            raise DegenerateDimensionError(
                f"leading Ehrhart coefficient vanishes: polytope has dimension < {d}")
        cells += (d + 1) * len(band) + sum(hi - lo for lo, hi in band) * d * (d + 1) // 2
    charge(cells)
    return [ehrhart_volume(spec, band) for spec, band in zip(specs, bands)]


def ehrhart_volume(spec: AlcovedSpec, band: Sequence[tuple[int, int]] | None = None) -> dict:
    """
    Evaluate the lattice-point count at t = 0..d, interpolate d! times the
    Ehrhart polynomial and check it at t = -1.  Returns the dimension d, the
    evaluations, the polynomial's coefficients (ascending, as "num/den") and
    its leading coefficient times d!, the normalized volume.  The band comes
    checked and paid for from ehrhart_volumes, which a lone spec goes through.
    """
    if band is None:
        return ehrhart_volumes([spec])[0]
    d = spec.ambient_n - 1
    evaluations = [count_dilated_lattice_points(band, t) for t in range(d + 1)]
    coeffs = interpolate_at_integers(evaluations)
    # Newton's form meets h(0..d) by construction, so only a value known exactly
    # can catch a wrong count: by Ehrhart-Macdonald reciprocity (-1)^d h(-1) counts
    # the interior lattice points, and a full-dimensional 0/1 slice has none, since
    # each of its lattice points lies on a facet of the unit box; and the 0-fold
    # dilate is one point, so h(0) = 1 catches a count scaled at every t
    d_factorial = math.factorial(d)
    at_minus_one = eval_poly(coeffs, -1)
    if at_minus_one != 0:
        raise InvariantError(f"h(-1) = {_ratio(at_minus_one, d_factorial)}, not 0: "
                             "a lattice-point count is wrong")
    if evaluations[0] != 1:
        raise InvariantError(f"h(0) = {evaluations[0]}, not 1: a lattice-point count is wrong")
    if coeffs[d] <= 0:  # a full-dimensional lattice polytope has positive volume
        raise InvariantError(f"normalized volume {coeffs[d]} is not positive")
    return {
        "dimension": d,
        "evaluations": evaluations,
        "coefficients": [_ratio(c, d_factorial) for c in coeffs],
        "normalized_volume": coeffs[d],
    }


def _piece_memberships(spec: AlcovedSpec, k: int, numerators: Sequence[int]) -> list[bool]:
    """
    Whether the point numerators/N, N = spec.ambient_n, is strictly inside each
    cyclic piece: piece i is spec with its coordinates rotated by k*i, so it
    holds lo < x_{ki+1} + ... + x_{ki+j} < hi for every limit of spec.limits(),
    indices mod N, read off one circular prefix sum of the numerators.  A point
    on a wall is in no piece that the wall bounds; with no limit, it is in all.
    """
    prefix = [0, *itertools.accumulate(itertools.chain(numerators, numerators))]
    # box sides hold strictly: 0 < j < N numerators, each in 1..N-1, sum inside (0, N * level_k)
    d = spec.ambient_n
    walls = [(j, d * lo, d * hi) for j, (lo, hi) in spec.limits().items()]
    return [
        all(lo < prefix[start + j] - prefix[start] < hi for j, lo, hi in walls)
        for start in range(0, d, k)
    ]


def _alcove_points(ambient_n: int, level_k: int, ranks: Sequence[int]) -> list[tuple[int, ...]]:
    """
    Numerators over N = ambient_n of the alcove points of the alcoves of
    Delta(level_k, N) ranked 0..A(level_k - 1, N - 1) - 1, one alcove per rank.  Its
    alcoves are the w in S_{N-1} with level_k - 1 descents, built by inserting
    2..N-1 one at a time: r at the end or into a descent keeps the count, at the
    front or into an ascent raises it, so A(m, r) = (m+1) A(m, r-1) + (r-m) A(m-1, r-1).
    Split by that sum from r = N-1 down, a rank picks each step's kind and slot.  The
    alcove point x_i = y_i - y_{i-1}, with y_i = N des(w_1..w_i) + w_i, y_0 = 0 and
    y_N = N level_k, is x_i = (w_i - w_{i-1}) mod N with w_0 = w_N = 0: a cyclic
    window sums to the difference of two distinct residues mod N, so no wall
    x_a + ... + x_b = integer passes through it.
    """
    weight = functools.cache(eulerian)
    points = []
    for q in ranks:
        steps, m = [], level_k - 1
        for r in range(ambient_n - 1, 1, -1):
            keep = (m + 1) * weight(m, r - 1)
            raises = q >= keep
            slot, q = divmod(q - raises * keep, weight(m - raises, r - 1))
            steps.append((raises, slot))
            m -= raises
        w = [1]
        for r, (raises, slot) in zip(range(2, ambient_n), reversed(steps)):
            # slot i lies between padded[i] and padded[i + 1]: the front and the ascents raise
            padded = [0, *w, 0]
            w.insert([i for i in range(r) if (padded[i] < padded[i + 1]) == raises][slot], r)
        points.append(tuple((b - a) % ambient_n for a, b in zip([0, *w], [*w, 0])))
    return points


def verify_subdivision(k: int, n: int) -> tuple[bool, dict]:
    """
    Check that the n+1 cyclic pieces of P_{k,n} fill the volume of the
    hypersimplex Delta(level_k, N), N and level_k read off the counted spec, and
    probe min(A, PROBE_SAMPLES) of its A alcoves, by a stride coprime to A.  Piece i
    is P_{k,n} with coordinates rotated by k*i, which maps lattice points to lattice
    points, so one Ehrhart count serves all pieces.  A probe lies on no wall, so it
    must be inside exactly one piece, where it counts a hit; any other probe is one
    failure naming the pieces that hold it.  Where every alcove is probed, each
    piece must hit the expected piece volume, since alcoves have unit normalized
    volume; sampled hits cannot show a lopsided count.  Returns (ok, what was measured).
    """
    failures: list[str] = []
    pkn = spec_for_Pkn(k, n)
    N, level = pkn.ambient_n, pkn.level_k
    piece, hyper = (record["normalized_volume"]
                    for record in ehrhart_volumes([pkn, spec_for_hypersimplex(level, N)]))
    alcoves = eulerian(level - 1, N - 1)  # A, the hypersimplex's normalized volume
    expected_piece = fuss_eulerian_catalan(k, n)  # A/(n+1), checked exact
    # each weighs a DP against the alternating sum; both imply the pieces sum to A
    if hyper != alcoves:
        failures.append(f"hypersimplex volume {hyper} != Eulerian number {alcoves}")
    if piece != expected_piece:
        failures.append(f"piece volume {piece} != expected {expected_piece}")

    # A/phi in integers, as A * 0.618 overflows a float past 10**308
    stride = (math.isqrt(5 * alcoves * alcoves) - alcoves) // 2
    while math.gcd(stride, alcoves) != 1:
        stride += 1
    ranks = [i * stride % alcoves for i in range(min(alcoves, PROBE_SAMPLES))]
    interior_hits = [0] * level
    for numerators in _alcove_points(N, level, ranks):
        pieces = [i for i, inside in enumerate(_piece_memberships(pkn, k, numerators)) if inside]
        if len(pieces) == 1:
            interior_hits[pieces[0]] += 1
        else:
            point = ", ".join(_ratio(c, N) for c in numerators)
            failures.append(f"point ({point}) lies in pieces {pieces}, not in exactly one")
    if len(ranks) == alcoves and interior_hits != [expected_piece] * level:
        failures.append(f"alcoves per piece {interior_hits} != expected {expected_piece}")
    return not failures, {
        "piece_volumes": [piece] * level,
        "total_volume": piece * level,
        "hypersimplex_volume": hyper,
        "expected_piece_volume": expected_piece,
        "interior_hits": interior_hits,
        "failures": failures,
    }
