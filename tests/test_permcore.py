import math
from collections import Counter

import pytest
from hypothesis import given

from eulercat.permcore import (
    ad_vector,
    as_permutation,
    descent_word_walk,
    format_permutation,
)

from eulercat import errors
from eulercat.errors import WORK_CAP, Budget, ScaleCapError
from oracles import (
    complement,
    cyclic_descent_positions,
    cyclic_shift,
    descent_positions,
    enumerate_by_descent_count,
)

from conftest import permutations_st, perms_of


def test_descent_positions_examples():
    assert descent_positions((1, 2, 3)) == frozenset()
    assert descent_positions((2, 3, 1)) == {2}
    assert descent_positions((3, 2, 1)) == {1, 2}


def test_cyclic_descent_positions_examples():
    assert cyclic_descent_positions((3, 2, 1)) == {1, 2}
    assert cyclic_descent_positions((1, 3, 2)) == {2, 3}
    assert cyclic_descent_positions((1, 2, 3)) == {3}


def test_degenerate_single_letter():
    assert descent_positions((1,)) == frozenset()
    assert cyclic_descent_positions((1,)) == frozenset()
    assert ad_vector((1,)) == ()


def test_ad_vector_examples():
    assert ad_vector((1, 3, 2)) == (0, 1)
    assert ad_vector((2, 1, 3)) == (1, 0)
    assert ad_vector((1, 2, 3, 4, 5)) == (0, 0, 0, 0)


def test_complement_examples():
    assert complement((2, 1, 3)) == (2, 3, 1)
    assert complement((1, 2, 3)) == (3, 2, 1)


def test_complement_is_involution_on_s4():
    for w in perms_of(4):
        assert complement(complement(w)) == w


def test_cyclic_shift_examples():
    assert cyclic_shift((3, 2, 1), 2) == (2, 1, 3)
    assert cyclic_shift((1, 2, 3), 1) == (1, 2, 3)
    assert cyclic_shift((1, 2, 3), 3) == (3, 1, 2)


@pytest.mark.parametrize("r", [0, 4, -1])
def test_cyclic_shift_rejects_bad_index(r):
    with pytest.raises(ValueError):
        cyclic_shift((1, 2, 3), r)


def test_enumerate_by_descent_count_s3():
    assert list(enumerate_by_descent_count(3, 1)) == [
        (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2),
    ]


def test_enumerate_by_descent_count_identity_and_sizes():
    assert list(enumerate_by_descent_count(5, 0)) == [(1, 2, 3, 4, 5)]
    assert sum(1 for _ in enumerate_by_descent_count(5, 2)) == 66
    assert list(enumerate_by_descent_count(4, 9)) == []


@pytest.mark.parametrize("m", range(1, 8))
def test_descent_count_partition_of_sm(m):
    total = sum(
        sum(1 for _ in enumerate_by_descent_count(m, d)) for d in range(m)
    )
    assert total == math.factorial(m)


@given(permutations_st())
def test_ad_vector_of_complement_is_bitwise_not(w):
    assert ad_vector(complement(w)) == tuple(1 - b for b in ad_vector(w))


@given(permutations_st(min_m=2))
def test_cyclic_descents_of_complement(w):
    m = len(w)
    assert len(cyclic_descent_positions(complement(w))) == m - len(
        cyclic_descent_positions(w)
    )


@given(permutations_st())
def test_cyclic_shift_order_m_is_identity(w):
    v = w
    for _ in range(len(w)):
        v = cyclic_shift(v, 2) if len(w) > 1 else v
    assert v == w


@given(permutations_st())
def test_linear_and_cyclic_descent_invariants(w):
    linear, cyclic = descent_positions(w), cyclic_descent_positions(w)
    assert linear <= cyclic
    assert linear <= frozenset(range(1, len(w)))
    assert len(cyclic) - len(linear) in (0, 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cyclic_descent_dichotomy_for_central_class(n):
    m = 2 * n + 1
    for w in enumerate_by_descent_count(m, n):
        assert len(cyclic_descent_positions(w)) in (n, n + 1)


def word_census(m, d):
    """{ad-word: count} from a walk whose key is the word read so far, as a bitmask."""
    def step(x, y, word, letter):
        return word | letter << (x + y)

    counts = descent_word_walk(m, d, step)
    return {tuple(word >> i & 1 for i in range(m - 1)): c for word, c in counts.items()}


@pytest.mark.parametrize("m", range(1, 9))
def test_descent_word_census_matches_brute_force(m):
    # a key that tells every word apart leaves each word's rank rows unmerged
    for d in range(m):
        brute = Counter(ad_vector(w) for w in enumerate_by_descent_count(m, d))
        assert word_census(m, d) == brute


def test_descent_word_census_edges_and_cap(monkeypatch):
    assert word_census(1, 0) == {(): 1}
    assert word_census(4, 4) == {}
    assert word_census(4, -1) == {}
    assert word_census(3, 1) == {(0, 1): 2, (1, 0): 2}
    with pytest.raises(ValueError):
        word_census(0, 0)
    assert WORK_CAP == 440_000
    # a key-free walk over S_12 with 5 descents holds one state per height y; after
    # j letters its rows have j + 1 cells at each y in max(0, j - 6)..min(5, j)
    cells = sum((j + 1) * (min(5, j) - max(0, j - 6) + 1) for j in range(1, 12))
    assert cells == 272
    budget = Budget()
    budget.charge(WORK_CAP - cells)  # leaves the walk exactly its cells
    monkeypatch.setattr(errors, "budget", budget)
    assert sum(descent_word_walk(12, 5, lambda x, y, key, letter: key).values()) == 162512286
    assert budget.filled == WORK_CAP
    budget = Budget()
    budget.charge(WORK_CAP - cells + 1)
    monkeypatch.setattr(errors, "budget", budget)
    with pytest.raises(ScaleCapError):
        descent_word_walk(12, 5, lambda x, y, key, letter: key)


def test_as_permutation_rejects_non_bijections():
    for bad in [(), (0, 1), (1, 1), (2, 3)]:
        with pytest.raises(ValueError):
            as_permutation(bad)


def test_format_permutation_example():
    assert format_permutation((2, 4, 1, 5, 3)) == "2 4 1 5 3"


@given(permutations_st())
def test_ad_vector_marks_the_descent_positions(w):
    descents = descent_positions(w)
    assert ad_vector(w) == tuple(int(i in descents) for i in range(1, len(w)))
