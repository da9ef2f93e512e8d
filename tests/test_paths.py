import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eulercat.alcoved import exceedance_position_census
from eulercat.numbers import catalan
from eulercat.paths import is_flaw_step
from eulercat.permcore import ad_vector
from oracles import (
    chung_feller_orbit,
    complement,
    enumerate_by_descent_count,
    enumerate_diagonal_paths,
    exceedance_positions,
    h_step_vector,
    is_dyck_permutation,
    is_k_ballot,
    path_from_h_vector,
)

binary_words = st.lists(st.integers(0, 1), max_size=12).map(tuple)
diagonal_words = st.integers(0, 12).flatmap(
    lambda n: st.permutations((0,) * n + (1,) * n)
).map(tuple)
long_diagonal_words = st.integers(0, 30).flatmap(
    lambda n: st.permutations((0,) * n + (1,) * n)
).map(tuple)


def path_points(word):
    """All lattice points visited by the path, starting at the origin."""
    x = y = 0
    points = [(0, 0)]
    for step in word:
        if step:
            y += 1
        else:
            x += 1
        points.append((x, y))
    return points


def flaw_rows(word, k):
    """The rows y that the path climbs out of by a flaw."""
    rows, x, y = set(), 0, 0
    for letter in word:
        if is_flaw_step(x, y, letter, k):
            rows.add(y)
        x, y = x + 1 - letter, y + letter
    return frozenset(rows)


def test_is_flaw_step_examples():
    assert is_flaw_step(0, 0, 1, 2)  # North from the origin
    assert not is_flaw_step(1, 0, 1, 2)  # North once (k-1)(y+1) East steps are taken
    assert is_flaw_step(1, 0, 1, 3) and not is_flaw_step(2, 0, 1, 3)
    assert is_flaw_step(3, 1, 1, 3) and not is_flaw_step(4, 1, 1, 3)
    assert not is_flaw_step(0, 5, 0, 2)  # an East step is never a flaw


@pytest.mark.parametrize("n", range(9))
def test_flaw_rows_are_the_exceedance_columns_exhaustively(n):
    # every balanced word of length <= 16: a monotone path leaves column x above
    # height x iff it climbs out of row x at a column <= x
    for word in enumerate_diagonal_paths(n):
        assert flaw_rows(word, 2) == exceedance_positions(word)


@given(long_diagonal_words)
def test_flaw_rows_are_the_exceedance_columns(word):
    assert flaw_rows(word, 2) == exceedance_positions(word)


@pytest.mark.parametrize("k,n", [(3, 0), (3, 1), (3, 2), (4, 0), (4, 1)])
def test_flaw_row_census_matches_the_per_word_rows(k, n):
    # every m = kn + k - 1 <= 9: the walk's bitmask of flaw rows against the rows
    # read off each word of S_m with n descents
    brute = Counter(
        tuple(sorted(y + 1 for y in flaw_rows(ad_vector(w), k)))
        for w in enumerate_by_descent_count(k * n + k - 1, n)
    )
    census = exceedance_position_census(k, n)
    assert set(brute) <= set(census)
    assert census == {T: brute[T] for T in census}


def test_is_k_ballot_examples():
    assert is_k_ballot((0, 1, 0, 1), 1)
    assert not is_k_ballot((1, 0), 1)
    assert is_k_ballot((0, 0, 1, 0), 2)
    assert not is_k_ballot((0, 1, 0, 0), 2)
    with pytest.raises(ValueError):
        is_k_ballot((0, 1), 0)


def test_is_dyck_permutation_examples():
    assert is_dyck_permutation((1, 3, 2), 1)
    assert not is_dyck_permutation((2, 1, 3), 1)
    assert is_dyck_permutation((1, 2, 3, 4), 3)


def test_exceedance_positions_examples():
    assert exceedance_positions((1, 0)) == {0}
    assert exceedance_positions((0, 1)) == frozenset()
    assert exceedance_positions((1, 1, 0, 0)) == {0, 1}
    assert exceedance_positions((0, 0, 0, 1, 1, 1)) == frozenset()


def test_h_step_vector_examples():
    assert h_step_vector((0, 1)) == (1, 0)
    assert h_step_vector((1, 0)) == (0, 1)
    assert h_step_vector((0, 0, 0, 1, 1, 1)) == (3, 0, 0, 0)


def test_path_from_h_vector_examples():
    assert path_from_h_vector((1, 0)) == (0, 1)
    assert path_from_h_vector((0, 1)) == (1, 0)
    with pytest.raises(ValueError):
        path_from_h_vector((2, 0))


@pytest.mark.parametrize("n", range(7))
def test_h_vector_round_trip_is_bijective(n):
    for path in enumerate_diagonal_paths(n):
        assert path_from_h_vector(h_step_vector(path)) == path
    for c in itertools.product(range(n + 1), repeat=n + 1):
        if sum(c) == n:
            assert h_step_vector(path_from_h_vector(c)) == c


def test_chung_feller_orbit_examples():
    assert set(chung_feller_orbit((0, 1))) == {(0, 1), (1, 0)}
    assert chung_feller_orbit(()) == ((),)
    assert len(exceedance_positions(())) == 0


@pytest.mark.parametrize("n", range(6))
def test_chung_feller_orbit_realizes_every_exceedance(n):
    for path in enumerate_diagonal_paths(n):
        orbit = chung_feller_orbit(path)
        assert sorted(len(exceedance_positions(p)) for p in orbit) == list(range(n + 1))
        assert path in orbit


@pytest.mark.parametrize("n", range(1, 7))
def test_exceedance_buckets_are_catalan(n):
    buckets = Counter(len(exceedance_positions(p)) for p in enumerate_diagonal_paths(n))
    assert buckets == {j: catalan(n) for j in range(n + 1)}


@pytest.mark.parametrize("n", range(1, 7))
def test_zero_exceedance_is_the_dyck_condition(n):
    for path in enumerate_diagonal_paths(n):
        below_diagonal = all(y <= x for x, y in path_points(path))
        assert (len(exceedance_positions(path)) == 0) == below_diagonal


@pytest.mark.parametrize("n", [1, 2, 3])
def test_complement_flips_exceedance(n):
    for w in enumerate_by_descent_count(2 * n + 1, n):
        flipped = len(exceedance_positions(ad_vector(complement(w))))
        assert flipped == n - len(exceedance_positions(ad_vector(w)))


@given(binary_words, st.integers(1, 4))
def test_ballot_condition_matches_path_geometry(bits, k):
    geometric = all(
        Fraction(y) <= Fraction(x, k) for x, y in path_points(bits)
    )
    assert is_k_ballot(bits, k) == geometric


@given(diagonal_words)
def test_exceedance_positions_match_path_geometry(word):
    above = {x for x, y in path_points(word) if y > x}
    assert exceedance_positions(word) == above
