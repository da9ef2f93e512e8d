from collections import Counter

import pytest
from hypothesis import given, strategies as st

from eulercat import errors
from eulercat.errors import WORK_CAP, Budget, ScaleCapError
from eulercat.numbers import eulerian, fuss_eulerian_catalan
from eulercat.orbit import (
    CASE_N,
    CASE_N_PLUS_ONE,
    analyze_orbit,
    count_dyck_permutations,
    equidistribution_census,
)
from eulercat.paths import is_flaw_step
from eulercat.permcore import ad_vector, descent_word_walk, format_permutation
from oracles import (
    cyclic_shift,
    descent_count,
    dyck_to_s2n_bijection,
    enumerate_by_descent_count,
    eulerian_catalan,
    exceedance_positions,
    is_dyck_permutation,
    is_k_ballot,
    orbit_census,
    scan_orbit,
)


def test_analyze_orbit_example_213():
    cert = analyze_orbit((2, 1, 3))
    assert cert["case"] == CASE_N_PLUS_ONE
    assert set(cert["exceedances"]) == {0, 1}
    assert {s["permutation"] for s in cert["shifts"]} == {"2 1 3", "1 3 2"}


def test_analyze_orbit_rejects_wrong_inputs():
    with pytest.raises(ValueError):
        analyze_orbit((3, 2, 1))  # two descents, not one
    with pytest.raises(ValueError):
        analyze_orbit((2, 1, 4, 3))  # even length
    with pytest.raises(ValueError):
        analyze_orbit((1, 1, 2))  # not a permutation


@pytest.mark.parametrize("n", [1, 2, 3])
def test_analyze_orbit_invariants_exhaustively(n):
    m = 2 * n + 1
    seen = 0
    for w in enumerate_by_descent_count(m, n):
        cert = analyze_orbit(w)
        seen += 1
        assert sorted(cert["exceedances"]) == list(range(n + 1))
        every_shift = [(r, cyclic_shift(w, r)) for r in range(1, m + 1)]
        assert [(s["start"], s["permutation"]) for s in cert["shifts"]] == \
            [(r, format_permutation(s)) for r, s in every_shift if descent_count(s) == n]
        assert cert["case"] in (CASE_N, CASE_N_PLUS_ONE)
    assert seen == eulerian(n, m)


@st.composite
def central_class_words(draw, max_n=20):
    """A permutation of [2n+1] with n descents: each entry is inserted into
    the value order of the entries before it, below the previous entry at a
    descent and above it at an ascent."""
    n = draw(st.integers(0, max_n))
    word = draw(st.permutations([1] * n + [0] * n))
    order = [0]  # positions placed so far, by increasing value
    for position, letter in enumerate(word, start=1):
        previous = order.index(position - 1)
        low, high = (0, previous) if letter else (previous + 1, len(order))
        order.insert(draw(st.integers(low, high)), position)
    w = [0] * len(order)
    for value, position in enumerate(order, start=1):
        w[position] = value
    return tuple(w)


@given(central_class_words())
def test_analyze_orbit_matches_the_shift_scan(w):
    assert descent_count(w) == (len(w) - 1) // 2
    assert analyze_orbit(w) == scan_orbit(w)


@pytest.mark.parametrize("n", [1, 2])
def test_orbit_is_well_defined_across_listed_shifts(n):
    for w in enumerate_by_descent_count(2 * n + 1, n):
        cert = analyze_orbit(w)
        listed = {s["permutation"] for s in cert["shifts"]}
        for shift in listed:
            again = analyze_orbit([int(v) for v in shift.split()])
            assert {s["permutation"] for s in again["shifts"]} == listed


def test_equidistribution_census_examples():
    assert equidistribution_census(2, 1) == {0: 2, 1: 2}
    assert equidistribution_census(2, 2) == {0: 22, 1: 22, 2: 22}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_census_partitions_the_central_descent_class(n):
    census = equidistribution_census(2, n)
    assert sum(census.values()) == eulerian(n, 2 * n + 1)
    assert set(census.values()) == {eulerian_catalan(n)}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_orbit_mode_census_agrees_with_streaming(n):
    assert orbit_census(n) == equidistribution_census(2, n)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_census_walk_matches_brute_force(n):
    brute = Counter(
        len(exceedance_positions(ad_vector(w))) for w in enumerate_by_descent_count(2 * n + 1, n)
    )
    assert equidistribution_census(2, n) == {j: brute[j] for j in range(n + 1)}


@pytest.mark.parametrize("k,n", [(2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1), (3, 2),
                                 (4, 0), (4, 1)])
def test_dyck_walk_matches_brute_force(k, n):
    # every m = kn + k - 1 <= 8
    brute = sum(
        1 for w in enumerate_by_descent_count(k * n + k - 1, n) if is_k_ballot(ad_vector(w), k - 1)
    )
    assert count_dyck_permutations(k, n) == brute


def test_uncapped_walks_match_the_numbers():
    assert set(equidistribution_census(2, 31).values()) == {eulerian_catalan(31)}
    assert count_dyck_permutations(2, 50) == eulerian_catalan(50)
    assert count_dyck_permutations(3, 20) == fuss_eulerian_catalan(3, 20)


def test_census_scale_cap(monkeypatch):
    # the walk's edge: census --n 30 fills 399,775 cells, --n 31 453,375
    budget = Budget()
    monkeypatch.setattr(errors, "budget", budget)
    assert set(equidistribution_census(2, 30).values()) == {eulerian_catalan(30)}
    assert budget.filled == 399_775
    monkeypatch.setattr(errors, "budget", Budget())
    with pytest.raises(ScaleCapError):
        equidistribution_census(2, 31)


def test_count_dyck_permutations_examples():
    assert count_dyck_permutations(2, 1) == 2
    assert count_dyck_permutations(2, 2) == 22
    assert count_dyck_permutations(3, 1) == 13


@pytest.mark.parametrize("k,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)])
def test_count_dyck_matches_fuss(k, n):
    assert count_dyck_permutations(k, n) == fuss_eulerian_catalan(k, n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_count_dyck_equals_two_central_eulerian_rows(n):
    assert count_dyck_permutations(2, n) == eulerian(n - 1, 2 * n) + eulerian(n, 2 * n)


@pytest.mark.parametrize("k,n", [(k, n) for k in (3, 4) for n in range(5)])
def test_flaw_count_is_uniform_at_higher_k(k, n):
    # observed on the walk, not a result of the paper: among the permutations of
    # S_{kn+k-1} with n descents, every flaw count 0..n holds fuss(k, n); bucket 0
    # is the Dyck count
    def step(x, y, flaws, letter):
        return flaws + is_flaw_step(x, y, letter, k)

    counts = descent_word_walk(k * n + k - 1, n, step)
    assert counts == {j: fuss_eulerian_catalan(k, n) for j in range(n + 1)}
    assert counts[0] == count_dyck_permutations(k, n)


@pytest.mark.parametrize("k", range(2, 7))
def test_census_buckets_are_fuss_at_every_k(k):
    # the census against numbers' Eulerian recurrence, which reads no path
    for n in range(9):
        assert equidistribution_census(k, n) == {j: fuss_eulerian_catalan(k, n)
                                                 for j in range(n + 1)}


def test_census_rejects_bad_args():
    for k, n, message in ((1, 2, "k must be >= 2"), (3, -1, "n must be >= 0")):
        with pytest.raises(ValueError, match=message):
            equidistribution_census(k, n)


def test_count_dyck_rejects_bad_args(monkeypatch):
    with pytest.raises(ValueError):
        count_dyck_permutations(1, 2)
    budget = Budget()
    budget.charge(WORK_CAP - 403)
    monkeypatch.setattr(errors, "budget", budget)
    with pytest.raises(ScaleCapError):
        count_dyck_permutations(2, 8)  # the walk fills 404 cells


def test_bijection_examples():
    assert dyck_to_s2n_bijection((1, 3, 2)) == (2, 1)
    assert dyck_to_s2n_bijection((2, 3, 1)) == (1, 2)


def test_bijection_rejects_non_dyck():
    with pytest.raises(ValueError):
        dyck_to_s2n_bijection((2, 1, 3))
    with pytest.raises(ValueError):
        dyck_to_s2n_bijection((1, 2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bijection_image_is_two_descent_classes_of_s2n(n):
    m = 2 * n + 1
    images = set()
    domain = 0
    for w in enumerate_by_descent_count(m, n):
        if not is_dyck_permutation(w, 1):
            continue
        domain += 1
        images.add(dyck_to_s2n_bijection(w))
    assert len(images) == domain  # injective
    expected = {
        v
        for d in (n - 1, n)
        for v in enumerate_by_descent_count(2 * n, d)
    }
    assert images == expected
    assert domain == eulerian(n - 1, 2 * n) + eulerian(n, 2 * n)
