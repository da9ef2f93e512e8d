import re
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eulercat.alcoved import (
    AlcovedSpec,
    Bound,
    all_subsets,
    exceedance_position_census,
    spec_for_Pkn,
    spec_for_hypersimplex,
    subset_key,
    w_set_count,
)
from eulercat import errors
from eulercat.errors import WORK_CAP, Budget, ScaleCapError
from eulercat.numbers import eulerian, fuss_eulerian_catalan
from eulercat.orbit import count_dyck_permutations
from eulercat.permcore import ad_vector
from oracles import enumerate_by_descent_count, eulerian_catalan, exceedance_positions


def prefix_bounds(spec):
    return {b.j: (b.lower, b.upper) for b in spec.bounds}


def value_based_conditions_hold(w, bounds):
    """The Lam-Postnikov check on the values: subword w_0 w_1..w_j with
    w_0 = 0, descent count against the bounds, and at equality the
    tie-break w_0 < w_j (lower side) or w_0 > w_j (upper side)."""
    for bd in bounds:
        word = (0,) + tuple(w[: bd.j])
        d = sum(1 for a, b in zip(word, word[1:]) if a > b)
        if bd.lower is not None:
            if d < bd.lower or (d == bd.lower and not word[0] < word[-1]):
                return False
        if bd.upper is not None:
            if d > bd.upper or (d == bd.upper and not word[0] > word[-1]):
                return False
    return True


def brute_w_set_count(spec):
    return sum(
        1
        for w in enumerate_by_descent_count(spec.ambient_n - 1, spec.level_k - 1)
        if value_based_conditions_hold(w, spec.bounds)
    )


def test_spec_for_hypersimplex_shape():
    spec = spec_for_hypersimplex(3, 6)
    assert spec.ambient_n == 6 and spec.level_k == 3
    assert prefix_bounds(spec) == {}
    with pytest.raises(ValueError):
        spec_for_hypersimplex(0, 4)
    with pytest.raises(ValueError):
        spec_for_hypersimplex(4, 4)


def test_spec_for_pkn_examples():
    spec = spec_for_Pkn(2, 2)
    assert spec.ambient_n == 6 and spec.level_k == 3
    assert prefix_bounds(spec) == {2: (None, 1), 4: (None, 2)}
    spec = spec_for_Pkn(2, 1)
    assert spec.ambient_n == 4 and spec.level_k == 2
    assert prefix_bounds(spec) == {2: (None, 1)}
    spec = spec_for_Pkn(3, 1)
    assert spec.ambient_n == 6 and spec.level_k == 2
    assert prefix_bounds(spec) == {3: (None, 1)}


def test_spec_for_p2n_flipped_examples():
    assert spec_for_Pkn(2, 2, ()) == spec_for_Pkn(2, 2)
    spec = spec_for_Pkn(2, 2, {1})
    assert prefix_bounds(spec) == {2: (1, None), 4: (None, 2)}
    spec = spec_for_Pkn(2, 2, {1, 2})
    assert prefix_bounds(spec) == {2: (1, None), 4: (2, None)}
    with pytest.raises(ValueError):
        spec_for_Pkn(2, 2, {3})
    spec = spec_for_Pkn(3, 2, {2})
    assert spec == AlcovedSpec(9, 3, (Bound(3, upper=1), Bound(6, lower=2)))


def test_spec_validation():
    # a bound names a prefix x_1 + ... + x_j with 1 <= j < ambient_n; j = ambient_n
    # would restate the level, so it is refused rather than read one off
    for j in (-1, 0, 4, 5):
        message = f"bound index out of range 1..3: Bound(j={j}, lower=None, upper=1)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AlcovedSpec(ambient_n=4, level_k=2, bounds=(Bound(j, upper=1),))
    with pytest.raises(ValueError):
        AlcovedSpec(ambient_n=4, level_k=2, bounds=(Bound(2, lower=2, upper=1),))
    # a spec takes integers only: a fractional bound was read as no bound, or crashed the DP
    for args in [(5.0, 2, ()), (5, 2.0, ()), (5, 2, (Bound(1.5, upper=0),)),
                 (5, 2, (Bound(2, upper=0.5),))]:
        with pytest.raises(ValueError, match="^not an integer spec: "):
            AlcovedSpec(*args)
    AlcovedSpec(ambient_n=4, level_k=2, bounds=(Bound(1, lower=0, upper=1), Bound(3, lower=1)))


def test_w_set_count_hypersimplex_examples():
    assert w_set_count(spec_for_hypersimplex(3, 6)) == 66
    assert w_set_count(spec_for_hypersimplex(1, 2)) == 1
    assert w_set_count(spec_for_hypersimplex(2, 4)) == 4


@pytest.mark.parametrize("n", range(2, 8))
def test_w_set_count_hypersimplex_is_eulerian(n):
    for k in range(1, n):
        assert w_set_count(spec_for_hypersimplex(k, n)) == eulerian(k - 1, n - 1)


def test_w_set_count_pkn_examples():
    assert w_set_count(spec_for_Pkn(2, 2)) == 22
    assert w_set_count(spec_for_Pkn(3, 1)) == 13


@pytest.mark.parametrize("k,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)])
def test_w_set_count_pkn_matches_fuss_and_dyck(k, n):
    count = w_set_count(spec_for_Pkn(k, n))
    assert count == fuss_eulerian_catalan(k, n)
    assert count == count_dyck_permutations(k, n)


@pytest.mark.parametrize("n,T", [(n, T) for n in (1, 2, 3) for T in all_subsets(n)])
def test_w_set_count_flipped_matches_value_based_brute_count(n, T):
    spec = spec_for_Pkn(2, n, T)
    assert w_set_count(spec) == brute_w_set_count(spec)


@pytest.mark.parametrize("k,n", [
    (k, n) for k in range(2, 5) for n in range(1, 4) if k * (n + 1) <= 9
])
def test_w_set_count_pkn_matches_value_based_brute_count(k, n):
    spec = spec_for_Pkn(k, n)
    assert w_set_count(spec) == brute_w_set_count(spec)


# several bounds on one prefix, j = 1 (checked before the first letter) and
# j = ambient_n - 1 (after the last), in S_8
REPEATED_J_SPECS = [
    AlcovedSpec(9, 4, (Bound(3, lower=1), Bound(3, upper=2), Bound(6, upper=3))),
    AlcovedSpec(9, 5, (Bound(1, upper=1), Bound(5, lower=1), Bound(5, lower=2, upper=3))),
    AlcovedSpec(9, 4, (Bound(8, lower=3), Bound(8, upper=4), Bound(2, upper=1))),
    AlcovedSpec(9, 3, (Bound(1, lower=0), Bound(1, upper=0))),
]


@st.composite
def repeated_j_specs(draw):
    ambient_n = draw(st.integers(2, 7))
    js = st.integers(1, ambient_n - 1)
    bounds = []
    for j in draw(st.lists(js, max_size=2)) * 2:  # each prefix bounded twice
        lower, upper = sorted(draw(st.integers(-1, j + 1)) for _ in range(2))
        bounds.append(Bound(j, draw(st.sampled_from([lower, None])),
                            draw(st.sampled_from([upper, None]))))
    return AlcovedSpec(ambient_n, draw(st.integers(1, ambient_n - 1)), tuple(bounds))


@given(repeated_j_specs())
def test_w_set_walk_matches_value_based_brute_count(spec):
    assert w_set_count(spec) == brute_w_set_count(spec)


@pytest.mark.parametrize("spec", REPEATED_J_SPECS)
def test_w_set_walk_matches_value_based_brute_count_in_s8(spec):
    # a brute count over S_8 takes longer than a Hypothesis example may
    assert w_set_count(spec) == brute_w_set_count(spec)


@pytest.mark.parametrize("spec,limits", [
    *zip(REPEATED_J_SPECS, [{3: (1, 2), 6: (0, 3)}, {1: (0, 1), 5: (2, 3)},
                            {8: (3, 4), 2: (0, 1)}, {1: (0, 0)}]),
    # lower = -1 and upper = level_k + 1 clamp to the box 0..level_k: no limit inside it
    (AlcovedSpec(6, 3, (Bound(2, lower=-1, upper=4), Bound(4, upper=1))), {2: (0, 3), 4: (0, 1)}),
])
def test_limits_intersect_every_bound_on_a_prefix_with_the_box(spec, limits):
    assert spec.limits() == limits


def test_w_set_count_scale_cap(monkeypatch):
    # the W-set walk of P_{2,8} and the Dyck walk at (2, 8) fill 404 cells each, and
    # one budget is charged by both; the spec's 8 bounds are built before it is set
    spec = spec_for_Pkn(2, 8)
    budget = Budget()
    budget.charge(WORK_CAP - 2 * 404)
    monkeypatch.setattr(errors, "budget", budget)
    assert w_set_count(spec) == count_dyck_permutations(2, 8)
    assert budget.filled == WORK_CAP
    with pytest.raises(ScaleCapError):
        w_set_count(spec)


def test_exceedance_position_census_examples():
    assert exceedance_position_census(2, 1) == {(): 2, (1,): 2}
    census = exceedance_position_census(2, 2)
    assert census == {(): 22, (1,): 11, (2,): 11, (1, 2): 22}
    assert sum(census.values()) == eulerian(2, 5)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_position_census_walk_matches_brute_force(n):
    brute = Counter(
        exceedance_positions(ad_vector(w)) for w in enumerate_by_descent_count(2 * n + 1, n)
    )
    census = exceedance_position_census(2, n)
    assert census == {T: brute[frozenset(t - 1 for t in T)] for T in all_subsets(n)}
    assert sum(census.values()) == sum(brute.values())


def test_uncapped_walks_match_the_numbers():
    assert w_set_count(spec_for_Pkn(2, 50)) == eulerian_catalan(50)
    assert sum(exceedance_position_census(2, 10).values()) == eulerian(10, 21)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_census_entries_match_flipped_spec_counts(n):
    census = exceedance_position_census(2, n)
    assert sum(census.values()) == eulerian(n, 2 * n + 1)
    for T, count in census.items():
        assert count == w_set_count(spec_for_Pkn(2, n, T))
    for j in range(n + 1):
        total_j = sum(c for T, c in census.items() if len(T) == j)
        assert total_j == eulerian_catalan(n)


def test_subset_helpers():
    assert all_subsets(2) == [(), (1,), (2,), (1, 2)]
    assert subset_key(()) == "{}"
    assert subset_key((2, 1)) == "{1,2}"


def test_spec_json_shape():
    record = spec_for_Pkn(2, 2).to_json_dict()
    assert record["ambient_n"] == 6 and record["level_k"] == 3
    assert record["bounds"] == [
        {"j": 2, "b": None, "c": 1},
        {"j": 4, "b": None, "c": 2},
    ]
