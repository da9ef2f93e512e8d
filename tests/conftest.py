import itertools

import pytest
from hypothesis import strategies as st

# the oracles' asserts are checks too: rewritten, they also run under python -O
pytest.register_assert_rewrite("oracles")


def perms_of(m):
    """All permutations of [m] as tuples, lexicographic."""
    return itertools.permutations(range(1, m + 1))


def brute_descent_census(m):
    """Descent-count histogram over S_m, by direct pairwise comparison."""
    census = {}
    for w in perms_of(m):
        d = sum(1 for i in range(m - 1) if w[i] > w[i + 1])
        census[d] = census.get(d, 0) + 1
    return census


@st.composite
def permutations_st(draw, min_m=1, max_m=7):
    m = draw(st.integers(min_m, max_m))
    return tuple(draw(st.permutations(tuple(range(1, m + 1)))))
