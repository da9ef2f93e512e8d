"""
Independent exact volumes via Ehrhart lattice-point counting.

A dilated alcoved slice is counted by a dynamic program over the running
prefix sum.  Every coordinate ranges over the window 0..t of the implicit
unit box, so each step is one difference of the DP row's own prefix sums,
and a bound on x_1 + ... + x_j clears the row outside its window after
step j.  The counts at dilations t = 0..d determine the Ehrhart polynomial
by integer Newton forward differences, and the normalized volume is d!
times its leading coefficient.  Subdivision probes test integer numerators
over one common denominator.  Nothing here consults the permutation-counting
route, so the two volume computations cross-check each other.
"""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import NamedTuple, Sequence

from .alcoved import AlcovedSpec, spec_for_Pkn, spec_for_hypersimplex
from .errors import DEFAULT_AMBIENT_CAP, InvariantError, ScaleCapError
from .numbers import eulerian, fuss_eulerian_catalan

PROBE_SAMPLES = 120
PROBE_SEED = 271828
PROBE_DENOMINATOR = 97


class DegenerateDimensionError(ValueError):
    """The interpolated polynomial has degree < d: the polytope is lower-dimensional."""


def _prefix_checkpoints(spec: AlcovedSpec, t: int) -> dict[int, tuple[int, int]]:
    checkpoints: dict[int, tuple[int, int]] = {}
    for bd in spec.bounds:
        lo, hi = checkpoints.get(bd.j, (0, t * spec.level_k))
        if bd.lower is not None:
            lo = max(lo, t * bd.lower)
        if bd.upper is not None:
            hi = min(hi, t * bd.upper)
        checkpoints[bd.j] = (lo, hi)
    return checkpoints


def count_dilated_lattice_points(spec: AlcovedSpec, t: int) -> int:
    """
    Number of integer points of the t-fold dilate: 0 <= x_i <= t,
    sum x_i = t * level_k, prefix sums within t-scaled bounds.
    """
    if t < 0:
        raise ValueError("dilation factor must be >= 0")
    target = t * spec.level_k
    checkpoints = _prefix_checkpoints(spec, t)

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


def interpolate_at_integers(values: Sequence[int]) -> list[Fraction]:
    """
    Exact coefficients (ascending) of the unique degree <= d polynomial through
    (0, values[0]), ..., (d, values[d]), by Newton's forward differences:
    d! p(x) = sum_j D^j h(0) (d!/j!) x(x-1)...(x-j+1) has integer coefficients.
    """
    d = len(values) - 1
    scaled = [0] * (d + 1)  # coefficients of d! p(x)
    falling = [1]  # coefficients of x(x-1)...(x-j+1)
    weight = d_factorial = math.factorial(d)  # weight = d!/j!
    diffs = list(values)  # D^j h(t) for t = 0..d-j
    for j in range(d + 1):
        term = diffs[0] * weight
        for p, c in enumerate(falling):
            scaled[p] += term * c
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        falling = [a - j * b for a, b in zip([0, *falling], [*falling, 0])]
        weight //= j + 1
    return [Fraction(c, d_factorial) for c in scaled]


def eval_poly(coeffs: Sequence[Fraction], x: int) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class EhrhartRecord(NamedTuple):
    dimension: int
    evaluations: tuple[int, ...]
    coefficients: tuple[Fraction, ...]
    normalized_volume: int

    def to_json_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "evaluations": list(self.evaluations),
            "coefficients": [f"{c.numerator}/{c.denominator}" for c in self.coefficients],
            "normalized_volume": self.normalized_volume,
        }


def ehrhart_volume(spec: AlcovedSpec, cap: int = DEFAULT_AMBIENT_CAP) -> EhrhartRecord:
    """
    Evaluate the lattice-point count at t = 0..d, interpolate, and return
    the record with normalized volume d! * (leading coefficient).
    """
    if spec.ambient_n > cap:
        raise ScaleCapError(
            f"ambient dimension {spec.ambient_n} exceeds the cap of {cap}"
        )
    d = spec.ambient_n - 1
    evaluations = tuple(count_dilated_lattice_points(spec, t) for t in range(d + 1))
    # integer bounds make the polytope a lattice polytope: if nonempty, its
    # vertices are lattice points of the undilated copy (t = 1)
    if evaluations[1] < 1:
        raise ValueError(f"empty polytope: h(1) = {evaluations[1]}")
    coeffs = interpolate_at_integers(evaluations)
    if coeffs[d] == 0:
        raise DegenerateDimensionError(
            f"leading Ehrhart coefficient vanishes: polytope has dimension < {d}"
        )
    for t, val in enumerate(evaluations):
        if eval_poly(coeffs, t) != val:
            raise InvariantError(f"interpolated polynomial misses h({t}) = {val}")
    volume = math.factorial(d) * coeffs[d]
    if volume.denominator != 1 or volume < 0:
        raise InvariantError(f"normalized volume {volume} is not a nonnegative integer")
    return EhrhartRecord(d, evaluations, tuple(coeffs), int(volume))


def _piece_memberships(
    k: int, n: int, numerators: Sequence[int], denominator: int
) -> tuple[list[bool], list[bool]]:
    """
    Closed and interior membership of the point numerators/denominator in
    each of the n+1 cyclic pieces: piece i holds x_{ki+1} + ... + x_{ki+kt}
    <= t (< t inside) for t = 1..n, indices mod k(n+1), read off one
    circular prefix sum of the numerators.
    """
    prefix = [0, *itertools.accumulate(itertools.chain(numerators, numerators))]
    closed, interior = [], []
    for i in range(n + 1):
        start = prefix[k * i]
        slack = min(
            denominator * t - (prefix[k * (i + t)] - start) for t in range(1, n + 1)
        )
        closed.append(slack >= 0)
        interior.append(slack > 0)
    return closed, interior


def _sample_hypersimplex_points(
    k: int, n: int, count: int, rng: random.Random
) -> list[tuple[int, ...]]:
    """Numerators of fixed-seed points of Delta(n+1, k(n+1)) by rejection sampling."""
    N, level, denominator = k * (n + 1), n + 1, PROBE_DENOMINATOR
    points, attempts = [], 0
    while len(points) < count and attempts < 200_000:
        attempts += 1
        coords = [rng.randint(0, denominator) for _ in range(N - 1)]
        last = denominator * level - sum(coords)
        if not 0 <= last <= denominator:
            continue
        coords.append(last)
        points.append(tuple(coords))
    return points


def _probe_point(numerators: Sequence[int]) -> tuple[Fraction, ...]:
    return tuple(Fraction(c, PROBE_DENOMINATOR) for c in numerators)


class SubdivisionReport(NamedTuple):
    k: int
    n: int
    piece_volumes: tuple[int, ...]
    total_volume: int
    hypersimplex_volume: int
    expected_piece_volume: int
    expected_total_volume: int
    points_probed: int
    interior_hits: tuple[int, ...]
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "piece_volumes": list(self.piece_volumes),
            "total_volume": self.total_volume,
            "hypersimplex_volume": self.hypersimplex_volume,
            "expected_piece_volume": self.expected_piece_volume,
            "expected_total_volume": self.expected_total_volume,
            "points_probed": self.points_probed,
            "interior_hits": list(self.interior_hits),
            "piece_symmetry": (
                f"pieces 1..{self.n} are images of P_{{{self.k},{self.n}}} "
                f"under the coordinate rotation by {self.k}*i"
            ),
            "failures": list(self.failures),
            "passed": self.passed,
        }


def verify_subdivision(k: int, n: int, cap: int = DEFAULT_AMBIENT_CAP) -> SubdivisionReport:
    """
    Check that n+1 copies of P_{k,n} fill the hypersimplex volume and
    probe random rational points for coverage and disjoint interiors.
    Piece i is P_{k,n} with coordinates rotated by k*i, which maps
    lattice points to lattice points, so one Ehrhart count serves all
    n+1 pieces; the probes test each rotated piece separately.
    """
    failures: list[str] = []
    piece = ehrhart_volume(spec_for_Pkn(k, n), cap).normalized_volume
    volumes = (piece,) * (n + 1)

    N = k * (n + 1)
    hyper = ehrhart_volume(spec_for_hypersimplex(n + 1, N), cap).normalized_volume
    expected_total = eulerian(n, N - 1)
    expected_piece = fuss_eulerian_catalan(k, n)
    total = sum(volumes)
    if hyper != expected_total:
        failures.append(f"hypersimplex volume {hyper} != Eulerian number {expected_total}")
    if total != hyper:
        failures.append(f"piece volumes sum to {total}, hypersimplex has {hyper}")
    if piece != expected_piece:
        failures.append(f"piece volume {piece} != expected {expected_piece}")

    rng = random.Random(PROBE_SEED)
    points = _sample_hypersimplex_points(k, n, PROBE_SAMPLES, rng)
    if len(points) < PROBE_SAMPLES:
        failures.append(f"drew only {len(points)} of {PROBE_SAMPLES} probe points")
    interior_hits = [0] * (n + 1)
    for numerators in points:
        member, interior = _piece_memberships(k, n, numerators, PROBE_DENOMINATOR)
        if not any(member):
            failures.append(f"point {_probe_point(numerators)} is covered by no piece")
            continue
        for i in range(n + 1):
            if not interior[i]:
                continue
            interior_hits[i] += 1
            for j in range(n + 1):
                if j != i and member[j]:
                    failures.append(
                        f"point {_probe_point(numerators)} is interior to piece {i} "
                        f"but also in piece {j}"
                    )
    return SubdivisionReport(
        k=k,
        n=n,
        piece_volumes=volumes,
        total_volume=total,
        hypersimplex_volume=hyper,
        expected_piece_volume=expected_piece,
        expected_total_volume=expected_total,
        points_probed=len(points),
        interior_hits=tuple(interior_hits),
        failures=tuple(failures),
    )
