import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from eulercat import geometry
from eulercat.alcoved import (
    AlcovedSpec,
    Bound,
    all_subsets,
    spec_for_Pkn,
    spec_for_hypersimplex,
    w_set_count,
)
from eulercat import errors
from eulercat.errors import WORK_CAP, Budget, DegenerateDimensionError, ScaleCapError
from eulercat.geometry import (
    count_dilated_lattice_points,
    ehrhart_volume,
    eval_poly,
    interpolate_at_integers,
    verify_subdivision,
)
from eulercat.numbers import eulerian, fuss_eulerian_catalan
from oracles import (
    enumerate_by_descent_count,
    eulerian_catalan,
    full_window_lattice_count,
    is_dyck_permutation,
)


def naive_lattice_points(spec, t):
    """Direct enumeration over the integer box, as an independent oracle."""
    for x in itertools.product(range(t + 1), repeat=spec.ambient_n):
        if sum(x) != t * spec.level_k:
            continue
        ok = True
        for b in spec.bounds:
            s = sum(x[:b.j])
            if b.lower is not None and s < t * b.lower:
                ok = False
            if b.upper is not None and s > t * b.upper:
                ok = False
        if ok:
            yield x


def naive_lattice_count(spec, t):
    return sum(1 for _ in naive_lattice_points(spec, t))


def lagrange_interpolation(values):
    """Rational Lagrange interpolation through (t, values[t]), t = 0..d."""
    d = len(values) - 1
    coeffs = [Fraction(0)] * (d + 1)
    for i, yi in enumerate(values):
        basis, denom = [Fraction(1)], 1
        for j in range(d + 1):
            if j != i:
                basis = [a - j * b for a, b in zip([0, *basis], [*basis, 0])]
                denom *= i - j
        for p, c in enumerate(basis):
            coeffs[p] += c * Fraction(yi, denom)
    return coeffs


def fraction_piece_membership(k, n, i, point, strict, flipped=()):
    """
    Membership of a Fraction point in piece i of P_{k,n}(flipped), re-summed
    for every t: x_{ki+1} + ... + x_{ki+kt} >= t for t in flipped, <= t
    otherwise (strictly, if strict), indices mod k(n+1).
    """
    N = k * (n + 1)
    for t in range(1, n + 1):
        total = sum(point[(k * i + s) % N] for s in range(k * t))
        if t in flipped:
            inside = total > t if strict else total >= t
        else:
            inside = total < t if strict else total <= t
        if not inside:
            return False
    return True


def test_count_dilated_trivial_cases():
    segment = geometry._windows(spec_for_hypersimplex(1, 2))
    for t in range(6):
        assert count_dilated_lattice_points(segment, t) == t + 1
    assert count_dilated_lattice_points(geometry._windows(spec_for_Pkn(2, 2)), 0) == 1
    with pytest.raises(ValueError, match=r"^dilation factor must be >= 0$"):
        count_dilated_lattice_points(segment, -1)


@pytest.mark.parametrize(
    "spec",
    [
        spec_for_hypersimplex(1, 3),
        spec_for_hypersimplex(2, 4),
        spec_for_hypersimplex(2, 5),
        spec_for_Pkn(2, 1),
        spec_for_Pkn(2, 1, {1}),
    ],
    ids=["d13", "d24", "d25", "p21", "p21-flipped"],
)
@pytest.mark.parametrize("t", [0, 1, 2, 3])
def test_dp_agrees_with_naive_enumeration(spec, t):
    assert count_dilated_lattice_points(geometry._windows(spec), t) == naive_lattice_count(spec, t)


def _pinned(ambient_n, level_k, j, extra=()):
    # pins the prefix sum x_1 + ... + x_j to the dilation t: a checkpoint window
    # of width 0
    bound = Bound(j, lower=1, upper=1)
    return AlcovedSpec(ambient_n=ambient_n, level_k=level_k, bounds=(bound, *extra))


CHECKPOINT_SPECS = {
    "p22-flipped-12": spec_for_Pkn(2, 2, {1, 2}),  # lower bounds on prefix checkpoints
    "pin-1": _pinned(4, 2, 1),
    "pin-3": _pinned(4, 2, 3),
    "pin-4-cut": _pinned(5, 2, 4, (Bound(2, upper=1),)),
    "pin-2-window": _pinned(5, 3, 2, (Bound(3, lower=1), Bound(4, upper=2))),
    "empty": AlcovedSpec(ambient_n=4, level_k=2, bounds=(Bound(1, lower=2),)),  # empty window
    # checkpoint windows reaching past either end of the DP row
    "cut-above-level": AlcovedSpec(ambient_n=4, level_k=2, bounds=(Bound(2, lower=3),)),
    "cut-below-zero": AlcovedSpec(ambient_n=4, level_k=2, bounds=(Bound(2, upper=-1),)),
    "cut-at-level": AlcovedSpec(ambient_n=5, level_k=2, bounds=(Bound(3, lower=2, upper=2),)),
}


@pytest.mark.parametrize("spec", list(CHECKPOINT_SPECS.values()), ids=list(CHECKPOINT_SPECS))
@pytest.mark.parametrize("t", [0, 1, 2, 3, 4])
def test_dp_agrees_with_naive_enumeration_on_lower_bounds(spec, t):
    assert count_dilated_lattice_points(geometry._windows(spec), t) == naive_lattice_count(spec, t)


def test_interpolation_is_exact():
    # 2! (x^2/2 + x/2 + 1) = x^2 + x + 2 through (0,1),(1,2),(2,4)
    coeffs = interpolate_at_integers([1, 2, 4])
    assert coeffs == [2, 1, 1]
    assert eval_poly(coeffs, 5) == 2 * 16


@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=10))
def test_interpolation_matches_lagrange(values):
    coeffs = interpolate_at_integers(values)
    d_factorial = math.factorial(len(values) - 1)
    assert [Fraction(c, d_factorial) for c in coeffs] == lagrange_interpolation(values)
    assert [eval_poly(coeffs, t) for t in range(len(values))] == [d_factorial * v for v in values]


def test_ehrhart_hypersimplex_volumes():
    assert ehrhart_volume(spec_for_hypersimplex(3, 6))["normalized_volume"] == 66
    for n in range(2, 8):
        for k in range(1, n):
            record = ehrhart_volume(spec_for_hypersimplex(k, n))
            assert record["normalized_volume"] == eulerian(k - 1, n - 1)
            assert record["evaluations"][0] == 1


@pytest.mark.parametrize("k,n", [(2, 1), (2, 2), (2, 3), (3, 1)])
def test_ehrhart_pkn_matches_fuss_and_alcoved_count(k, n):
    spec = spec_for_Pkn(k, n)
    record = ehrhart_volume(spec)
    assert record["normalized_volume"] == fuss_eulerian_catalan(k, n)
    assert record["normalized_volume"] == w_set_count(spec)


def test_ehrhart_held_out_dilation():
    spec = spec_for_Pkn(2, 2)
    record = ehrhart_volume(spec)
    t = record["dimension"] + 1
    held_out = count_dilated_lattice_points(geometry._windows(spec), t)
    assert eval_poly(interpolate_at_integers(record["evaluations"]), t) == \
        math.factorial(record["dimension"]) * held_out


def test_ehrhart_empty_polytope_is_refused(monkeypatch):
    # Delta(2, 3) with x_1 + x_2 <= 0 is empty; its t = 0 dilate is still {0}
    spec = AlcovedSpec(ambient_n=3, level_k=2, bounds=(Bound(2, upper=0),))
    budget = Budget(None)
    monkeypatch.setattr(errors, "budget", budget)
    with pytest.raises(ValueError, match=r"empty polytope: h\(1\) = 0"):
        ehrhart_volume(spec)
    # its band is crossed, so it fills the band's 4 cells and no DP runs
    assert budget.filled == 4


@st.composite
def prefix_bound_specs(draw, max_ambient=9):
    ambient_n = draw(st.integers(2, max_ambient))
    bounds = []
    for _ in range(draw(st.integers(0, 3))):
        j = draw(st.integers(1, ambient_n - 1))
        lower, upper = (draw(st.none() | st.integers(-1, j + 1)) for _ in range(2))
        if lower is not None and upper is not None and lower > upper:
            lower, upper = upper, lower
        bounds.append(Bound(j, lower, upper))
    return AlcovedSpec(ambient_n, draw(st.integers(1, ambient_n - 1)), tuple(bounds))


# flat: a prefix sum fixed by its bound, x_1 + x_2 + x_3 <= 1 with x_1 >= 1, which fixes
# x_2 = x_3 = 0 by the steps, and Delta(22, 43) with x_1 + ... + x_21 fixed, whose d + 1
# dilations would fill 209,582 cells
FLAT_SPECS = [
    AlcovedSpec(6, 3, (Bound(3, lower=2, upper=2),)),
    AlcovedSpec(5, 2, (Bound(1, lower=1), Bound(3, upper=1))),
    AlcovedSpec(43, 22, (Bound(21, lower=10, upper=10),)),
]


@given(prefix_bound_specs())
@example(FLAT_SPECS[0])
@example(FLAT_SPECS[1])
@example(spec_for_Pkn(3, 1, ()))
@example(spec_for_Pkn(3, 1, {1}))
@example(spec_for_Pkn(3, 2, ()))
@example(spec_for_Pkn(3, 2, {1}))
@example(spec_for_Pkn(3, 2, {2}))
@example(spec_for_Pkn(3, 2, {1, 2}))
def test_w_set_count_is_the_ehrhart_volume(spec):
    # the two routes read one spec as one polytope: the permutation count is its
    # normalized volume, and 0 where the lattice count finds it empty or flat
    try:
        volume = ehrhart_volume(spec)["normalized_volume"]
    except DegenerateDimensionError:
        volume = 0
    assert w_set_count(spec) == volume


# windows crossed by a lower bound above the level, an upper bound below 0, and
# two bounds that no steps of 0..t can join
CROSSED_SPECS = [
    AlcovedSpec(4, 2, (Bound(2, lower=3),)),
    AlcovedSpec(5, 2, (Bound(3, upper=-1),)),
    AlcovedSpec(5, 3, (Bound(1, upper=0), Bound(3, lower=3))),
]


@example(CROSSED_SPECS[0], 4)
@example(CROSSED_SPECS[1], 4)
@example(CROSSED_SPECS[2], 4)
@given(prefix_bound_specs(), st.integers(0, 5))
def test_banded_dp_matches_the_full_window_dp(spec, t):
    assert count_dilated_lattice_points(geometry._windows(spec), t) == \
        full_window_lattice_count(spec, t)


@pytest.mark.parametrize("spec", CROSSED_SPECS + FLAT_SPECS)
def test_empty_or_flat_polytope_is_refused_off_its_band(spec, monkeypatch):
    # the band alone decides: no dilation is counted, and only its N + 1 windows are filled
    def counted(band, t):
        raise AssertionError("a degenerate polytope was counted")

    monkeypatch.setattr(geometry, "count_dilated_lattice_points", counted)
    budget = Budget(None)
    monkeypatch.setattr(errors, "budget", budget)
    with pytest.raises(DegenerateDimensionError):
        ehrhart_volume(spec)
    assert budget.filled == spec.ambient_n + 1


@pytest.mark.parametrize("spec", CROSSED_SPECS)
def test_empty_dilate_is_a_crossed_window_and_runs_no_dp(spec, monkeypatch):
    band = geometry._windows(spec)
    assert any(lo > hi for lo, hi in band)
    assert count_dilated_lattice_points(band, 0) == 1  # the 0-fold dilate is the point 0
    # the DP's first step sums a row by itertools.accumulate, so a DP that ran would
    # read it off None, as a band that is not crossed does
    uncrossed = geometry._windows(spec_for_Pkn(2, 1))
    monkeypatch.setattr(geometry, "itertools", None)
    with pytest.raises(AttributeError):
        count_dilated_lattice_points(uncrossed, 1)
    assert [count_dilated_lattice_points(band, t) for t in range(1, 5)] == [0] * 4


def assert_windows_are_the_feasible_prefix_sums(spec, t):
    # a band wider than needed only costs time, so no count comparison catches it; the
    # t-fold dilate's band is t times the polytope's, since each clamp and step is
    # linear in t
    points = list(naive_lattice_points(spec, t))
    windows = [(t * lo, t * hi) for lo, hi in geometry._windows(spec)]
    assert len(windows) == spec.ambient_n + 1
    if not points:
        assert any(lo > hi for lo, hi in windows)
        return
    for i, (lo, hi) in enumerate(windows):
        assert {sum(x[:i]) for x in points} == set(range(lo, hi + 1))


@given(prefix_bound_specs(max_ambient=6), st.integers(0, 3))
def test_dp_windows_are_exactly_the_feasible_prefix_sums(spec, t):
    assert_windows_are_the_feasible_prefix_sums(spec, t)


@pytest.mark.parametrize("spec", list(CHECKPOINT_SPECS.values()), ids=list(CHECKPOINT_SPECS))
@pytest.mark.parametrize("t", [0, 1, 2, 3, 4])
def test_dp_windows_are_exactly_the_feasible_prefix_sums_at_checkpoints(spec, t):
    assert_windows_are_the_feasible_prefix_sums(spec, t)


def descents(w):
    return sum(a > b for a, b in zip(w, w[1:]))


def alcove_point(w, N):
    # x_i = y_i - y_{i-1} over N, y_i = N des(w_1..w_i) + w_i, y_0 = 0, y_N = N level
    y = [0, *(N * descents(w[: i + 1]) + w[i] for i in range(len(w))), N * (descents(w) + 1)]
    return tuple(b - a for a, b in zip(y, y[1:]))


@pytest.mark.parametrize("N,level", [(4, 2), (5, 2), (6, 3), (7, 3), (8, 2), (8, 4), (9, 3)])
def test_unranking_is_a_bijection_onto_the_alcoves(N, level):
    # ranks 0..A-1 give the alcove points of the A permutations of S_{N-1} with level-1
    # descents, each exactly once
    alcoves = eulerian(level - 1, N - 1)
    points = geometry._alcove_points(N, level, range(alcoves))
    assert len(set(points)) == len(points) == alcoves
    assert set(points) == {
        alcove_point(w, N) for w in enumerate_by_descent_count(N - 1, level - 1)}


def test_probes_lie_on_no_wall_of_the_hypersimplex(monkeypatch):
    # the 120 alcove points that verify_subdivision(4, 5) probes in Delta(6, 24)
    real, points = geometry._alcove_points, []

    def recorded(ambient_n, level_k, ranks):
        batch = real(ambient_n, level_k, ranks)
        points.extend(batch)
        return batch

    monkeypatch.setattr(geometry, "_alcove_points", recorded)
    assert verify_subdivision(4, 5)[0]
    assert len(set(points)) == len(points) == 120
    for numerators in points:
        assert len(numerators) == 24
        assert sum(numerators) == 24 * 6
        # every cyclic window x_a + ... + x_b, a <= b < a + 23, is off the integers
        doubled = numerators * 2
        assert all(sum(doubled[a : a + length]) % 24
                   for a in range(24) for length in range(1, 24))


def test_ehrhart_degenerate_polytope_is_reported():
    # x_1 pinned to the dilation level: a point, not a 2-dimensional body
    spec = AlcovedSpec(ambient_n=3, level_k=1, bounds=(Bound(1, lower=1, upper=1),))
    with pytest.raises(DegenerateDimensionError):
        ehrhart_volume(spec)


def test_ehrhart_scale_cap(monkeypatch):
    # the DP's edge: Delta(22, 43), the largest hypersimplex in 43 coordinates, fills
    # 419,122 cells (419,078 over its dilations and 44 for its band) and Delta(22, 44)
    # 459,889
    assert WORK_CAP == 440_000
    pkn = spec_for_Pkn(2, 3)  # its 3 bounds are built before any budget is set
    budget = Budget()
    monkeypatch.setattr(errors, "budget", budget)
    assert ehrhart_volume(spec_for_hypersimplex(22, 43))["normalized_volume"] \
        == eulerian(21, 42)
    assert budget.filled == 419_122
    monkeypatch.setattr(errors, "budget", Budget())
    with pytest.raises(ScaleCapError):
        ehrhart_volume(spec_for_hypersimplex(22, 44))
    # P_{2,3} fills 361 cells, 9 of them for its band, so a second volume on the same
    # budget is refused
    budget = Budget()
    budget.charge(WORK_CAP - 361)
    monkeypatch.setattr(errors, "budget", budget)
    ehrhart_volume(pkn)
    assert budget.filled == WORK_CAP
    with pytest.raises(ScaleCapError):
        ehrhart_volume(pkn)
    # a band fills one cell per window, charged before the windows are built
    monkeypatch.setattr(errors, "budget", Budget())
    with pytest.raises(ScaleCapError):
        geometry._windows(spec_for_hypersimplex(1, 10**9))


def test_ehrhart_at_scale():
    # 32 coordinates, d = 31
    assert ehrhart_volume(spec_for_Pkn(2, 15))["normalized_volume"] == eulerian_catalan(15)
    assert verify_subdivision(2, 8)[0]


# (4, 1): Delta(2, 8) has exactly PROBE_SAMPLES alcoves
# (2, 9), (2, 11), (2, 14), (2, 17): ranks spaced evenly over the alcoves leave a piece unprobed
@pytest.mark.parametrize("k,n", [
    *((2, n) for n in range(1, 13)), (2, 14), (2, 17), *((3, n) for n in range(1, 6)), (4, 1),
    (4, 3), (5, 2)])
def test_verify_subdivision_passes(k, n):
    ok, report = verify_subdivision(k, n)
    assert ok, report["failures"]
    assert set(report["piece_volumes"]) == {fuss_eulerian_catalan(k, n)}
    alcoves = eulerian(n, k * (n + 1) - 1)
    assert report["total_volume"] == alcoves
    # an alcove point lies on no wall, so each probe is inside exactly one piece
    assert sum(report["interior_hits"]) == min(alcoves, geometry.PROBE_SAMPLES)
    # and every piece gets a probe
    assert 0 not in report["interior_hits"]
    assert len(report["piece_volumes"]) == n + 1
    if alcoves <= geometry.PROBE_SAMPLES:
        # every alcove is probed, and each piece holds its volume's worth of them
        assert report["interior_hits"] == report["piece_volumes"]


@pytest.mark.parametrize("k,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_every_alcove_is_in_exactly_one_piece(k, n):
    # the paper's first proof point by point: each alcove of Delta(n+1, N), the w in
    # S_{N-1} with n descents, lies in exactly one rotated piece, and in piece 0 just
    # when w is a (k-1)-Dyck permutation
    N = k * (n + 1)
    spec = spec_for_Pkn(k, n)
    for w in enumerate_by_descent_count(N - 1, n):
        inside = geometry._piece_memberships(spec, k, alcove_point(w, N))
        assert inside.count(True) == 1, (w, inside)
        assert inside[0] == is_dyck_permutation(w, k - 1), w


@pytest.mark.parametrize("k,n,flipped", [
    (2, 1, ()), (2, 2, ()), (3, 1, ()), (2, 3, ()),
    (2, 3, {1, 3}),  # lower bounds: x_1 + x_2 >= 1 and x_1 + ... + x_6 >= 3
], ids=["2-1", "2-2", "3-1", "2-3", "2-3-flipped-1-3"])
def test_integer_membership_matches_fraction_sums(k, n, flipped):
    # the spec-reading membership against the inequalities of P_{k,n}(T) written out;
    # an alcove point is on no wall, so it is in a piece's closure just when inside it
    N = k * (n + 1)
    points = geometry._alcove_points(N, n + 1, range(eulerian(n, N - 1)))
    spec = spec_for_Pkn(k, n, flipped)
    for numerators in points:
        point = tuple(Fraction(c, N) for c in numerators)
        inside = geometry._piece_memberships(spec, k, numerators)
        for strict in (True, False):
            assert inside == [
                fraction_piece_membership(k, n, i, point, strict, flipped) for i in range(n + 1)]


@st.composite
def twice_bounded_specs(draw):
    """Specs whose prefixes are each bounded twice, sides from -1 to level_k + 1, so
    some are redundant and some specs have no limit inside the box 0..level_k."""
    ambient_n = draw(st.integers(2, 9))
    level_k = draw(st.integers(1, ambient_n - 1))
    side = st.none() | st.integers(-1, level_k + 1)
    bounds = []
    for j in draw(st.lists(st.integers(1, ambient_n - 1), min_size=1, max_size=3)) * 2:
        lower, upper = draw(side), draw(side)
        if lower is not None and upper is not None and lower > upper:
            lower, upper = upper, lower
        bounds.append(Bound(j, lower, upper))
    return AlcovedSpec(ambient_n, level_k, tuple(bounds))


@given(twice_bounded_specs(), st.integers(1, 9), st.data())
def test_membership_matches_fraction_sums_of_the_raw_bounds(spec, k, data):
    # the membership tests every limit of spec.limits(), box sides included; those hold
    # strictly at every alcove point, so re-summing every raw bound must give the same
    # answer, also on a spec with no limit inside the box
    N = spec.ambient_n
    rank = st.integers(0, eulerian(spec.level_k - 1, N - 1) - 1)
    ranks = data.draw(st.lists(rank, min_size=1, max_size=5))
    for numerators in geometry._alcove_points(N, spec.level_k, ranks):
        point = [Fraction(c, N) for c in numerators]
        expected = []
        for start in range(0, N, k):
            total = {j: sum(point[(start + s) % N] for s in range(j)) for j, _, _ in spec.bounds}
            expected.append(all(
                (lower is None or lower < total[j]) and (upper is None or total[j] < upper)
                for j, lower, upper in spec.bounds))
        assert geometry._piece_memberships(spec, k, numerators) == expected


def test_membership_is_strict_on_a_wall():
    # (1/2, 1/2, 1/3, 1/3, 2/3, 2/3) in P_{2,2}: x_1 + x_2 = 1 is on a wall of piece 0,
    # and x_3 + ... + x_6 = 2 on a wall of piece 1; x_5 + x_6 > 1 puts it outside piece 2
    numerators = (3, 3, 2, 2, 4, 4)
    point = tuple(Fraction(c, 6) for c in numerators)
    assert [fraction_piece_membership(2, 2, i, point, False) for i in range(3)] == \
        [True, True, False]
    assert geometry._piece_memberships(spec_for_Pkn(2, 2), 2, numerators) == \
        [fraction_piece_membership(2, 2, i, point, True) for i in range(3)] == \
        [False, False, False]
    # in P_{2,2}({1}) the same x_1 + x_2 = 1 is on piece 0's lower wall x_1 + x_2 >= 1,
    # and x_3 + x_4 < 1 and x_5 + x_6 + x_1 + x_2 > 2 put it outside pieces 1 and 2
    assert [fraction_piece_membership(2, 2, i, point, False, {1}) for i in range(3)] == \
        [True, False, False]
    assert geometry._piece_memberships(spec_for_Pkn(2, 2, {1}), 2, numerators) == \
        [fraction_piece_membership(2, 2, i, point, True, {1}) for i in range(3)] == \
        [False, False, False]


@pytest.mark.parametrize("spec", [
    AlcovedSpec(5, 2), AlcovedSpec(5, 2, (Bound(2, lower=-1, upper=3),))],
    ids=["no-bounds", "redundant-bounds"])
def test_membership_holds_every_piece_with_no_binding_limit(spec):
    # no limit cuts the box, whose sides hold strictly at every alcove point: the point
    # is inside every piece, as the raw bounds say
    for numerators in geometry._alcove_points(5, 2, range(eulerian(1, 4))):
        assert geometry._piece_memberships(spec, 1, numerators) == [True] * 5


def test_probes_report_a_point_interior_to_two_pieces(monkeypatch):
    real = geometry._piece_memberships
    seen = []

    def overlap_first_point(spec, k, numerators):
        seen.append(numerators)
        inside = real(spec, k, numerators)
        if len(seen) == 1:
            inside[:2] = [True, True]
        return inside

    monkeypatch.setattr(geometry, "_piece_memberships", overlap_first_point)
    ok, report = verify_subdivision(2, 1)
    coords = (Fraction(c, 4) for c in seen[0])
    point = "(" + ", ".join(f"{f.numerator}/{f.denominator}" for f in coords) + ")"
    assert not ok
    # Delta(2, 4) has 4 alcoves, all probed: the other 3 are each inside exactly one
    # piece, which leaves the first probe's piece one alcove short
    assert len(seen) == 4
    hits = report["interior_hits"]
    assert sorted(hits) == [1, 2]
    assert report["failures"] == [f"point {point} lies in pieces [0, 1], not in exactly one",
                                  f"alcoves per piece {hits} != expected 2"]


def test_probes_read_the_counted_pkn_spec(monkeypatch):
    # P_{2,2} with x_1 + x_2 <= 2 in place of <= 1: the rotated pieces now overlap,
    # and the probes must see it as well as the piece volume
    real = geometry.spec_for_Pkn

    def loosened(k, n, flipped=()):
        spec = real(k, n, flipped)
        first, *rest = spec.bounds
        return AlcovedSpec(spec.ambient_n, spec.level_k,
                           (first._replace(upper=first.upper + 1), *rest))

    monkeypatch.setattr(geometry, "spec_for_Pkn", loosened)
    ok, report = verify_subdivision(2, 2)
    assert not ok
    volume_failures = [f for f in report["failures"] if "volume" in f]
    assert volume_failures == ["piece volume 33 != expected 22"]
    # the loosened pieces overlap but still cover, so each failing probe is in two of them
    # and counts no hit, and the hits and the probe failures make up all 66 alcoves
    probe_failures = report["failures"][1:-1]
    assert probe_failures and all(
        re.fullmatch(r"point \([0-9/, ]+\) lies in pieces \[\d, \d\], not in exactly one", f)
        for f in probe_failures)
    assert sum(report["interior_hits"]) + len(probe_failures) == 66
    assert report["failures"][-1] == \
        f"alcoves per piece {report['interior_hits']} != expected 22"


def test_verify_subdivision_runs_one_dp_per_polytope(monkeypatch):
    calls, bands = [], []
    count, windows = geometry.count_dilated_lattice_points, geometry._windows

    def counting(band, t):
        calls.append((band, t))
        return count(band, t)

    def building(spec):
        bands.append(spec)
        return windows(spec)

    monkeypatch.setattr(geometry, "count_dilated_lattice_points", counting)
    monkeypatch.setattr(geometry, "_windows", building)
    assert verify_subdivision(2, 2)[0]
    # P_{2,2} and Delta(3, 6), each at dilations t = 0..5 of its one band; the probes
    # unrank alcoves and build no band
    pkn, hyper = spec_for_Pkn(2, 2), spec_for_hypersimplex(3, 6)
    assert bands == [pkn, hyper]
    assert len(calls) == 12
    assert calls == [(windows(pkn), t) for t in range(6)] + [(windows(hyper), t) for t in range(6)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_flipped_volume_sum_at_one_exceedance(n):
    total = sum(
        ehrhart_volume(spec_for_Pkn(2, n, {t}))["normalized_volume"]
        for t in range(1, n + 1)
    )
    assert total == eulerian_catalan(n)


@pytest.mark.parametrize("n", [1, 2])
def test_flipped_volumes_at_k_3_sum_to_fuss_at_every_size(n):
    # observed, as at k = 2: P_{3,n}(T) over |T| = j sums to fuss(3, n) = 13, 1431
    volumes = {
        T: ehrhart_volume(spec_for_Pkn(3, n, T))["normalized_volume"] for T in all_subsets(n)
    }
    for size in range(n + 1):
        total = sum(v for T, v in volumes.items() if len(T) == size)
        assert total == fuss_eulerian_catalan(3, n)
