"""
Alcoved slices of the hypersimplex and the Lam-Postnikov permutation
count for their normalized volumes.

An AlcovedSpec is the hypersimplex Delta(level_k, ambient_n), the unit
box 0 <= x_i <= 1 cut by x_1 + ... + x_{ambient_n} = level_k, further
cut by integer lower/upper bounds on prefix sums x_1 + ... + x_j with
1 <= j < ambient_n.  The unit box is implicit, so a spec lists only its
prefix bounds.  Its normalized volume equals the number of permutations
w in S_{ambient_n - 1} with level_k - 1 descents whose prefixes
w_1 ... w_j respect the bounds as descent-count conditions
(Lam-Postnikov, with the convention w_0 = 0): a window on the height
of the ad-word's path after j - 1 letters, read by one descent-word walk.
"""
import collections
import itertools
from collections.abc import Iterable

from .errors import charge


# lower <= x_1 + ... + x_j <= upper; either side may be absent (None)
Bound = collections.namedtuple("Bound", "j lower upper", defaults=(None, None))


class AlcovedSpec(
    collections.namedtuple("AlcovedSpec", "ambient_n level_k bounds", defaults=((),))
):
    """Delta(level_k, ambient_n) cut by bounds on prefix sums."""

    __slots__ = ()

    def __new__(cls, ambient_n: int, level_k: int, bounds: tuple[Bound, ...] = ()):
        values = [ambient_n, level_k, *(v for bd in bounds for v in bd[1:] if v is not None)]
        if not all(isinstance(v, int) for v in [*values, *(bd.j for bd in bounds)]):
            raise ValueError(f"not an integer spec: k = {level_k}, n = {ambient_n}, {bounds}")
        if not 0 < level_k < ambient_n:
            raise ValueError(
                f"degenerate hypersimplex slice: k = {level_k}, n = {ambient_n}"
            )
        for bd in bounds:
            # j = ambient_n would only restate the level sum x_1 + ... = level_k
            if not 0 < bd.j < ambient_n:
                raise ValueError(f"bound index out of range 1..{ambient_n - 1}: {bd}")
            if bd.lower is not None and bd.upper is not None and bd.lower > bd.upper:
                raise ValueError(f"empty bound: {bd}")
        return super().__new__(cls, ambient_n, level_k, bounds)

    def limits(self) -> dict[int, tuple[int, int]]:
        """
        {j: (lo, hi)} for each bounded prefix x_1 + ... + x_j: every bound on it,
        intersected with the box's own range 0..level_k.  The one reading of bounds.
        """
        limits = {}
        for j, lower, upper in self.bounds:
            lo, hi = limits.get(j, (0, self.level_k))
            limits[j] = (lo if lower is None else max(lo, lower),
                         hi if upper is None else min(hi, upper))
        return limits

    def to_json_dict(self) -> dict:
        return {
            "ambient_n": self.ambient_n,
            "level_k": self.level_k,
            "bounds": [{"j": j, "b": lower, "c": upper} for j, lower, upper in self.bounds],
        }


def spec_for_hypersimplex(k: int, n: int) -> AlcovedSpec:
    """Delta(k, n): the unit cube sliced at coordinate sum k."""
    return AlcovedSpec(ambient_n=n, level_k=k)


def spec_for_Pkn(k: int, n: int, flipped: Iterable[int] = ()) -> AlcovedSpec:
    """
    P_{k,n}(T): Delta(n+1, k(n+1)) cut by x_1 + ... + x_{kt} >= t for t in T,
    <= t for the other t in 1..n.  Its W-set: the t-th descent is a flaw
    exactly for t in T, so P_{k,n} = P_{k,n}({}) counts (k-1)-Dyck permutations.
    Charges the command's budget one cell per bound before building any.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    T = frozenset(flipped)
    if not all(1 <= t <= n for t in T):
        raise ValueError(f"flip set {sorted(T)} not a subset of 1..{n}")
    if n < 1:
        raise ValueError("n must be >= 1")
    charge(n)
    prefix = tuple(
        Bound(k * t, lower=t) if t in T else Bound(k * t, upper=t)
        for t in range(1, n + 1)
    )
    return AlcovedSpec(ambient_n=k * (n + 1), level_k=n + 1, bounds=prefix)


def w_set_count(spec: AlcovedSpec) -> int:
    """
    |W(k, n, b, c)|: permutations of [ambient_n - 1] with level_k - 1
    descents meeting every bound condition.  Equals the normalized
    volume of the alcoved polytope.
    """
    from .permcore import descent_word_walk

    limits, box = spec.limits(), (0, spec.level_k)

    def step(x: int, y: int, key: int, letter: int) -> int | None:
        # des(w_1..w_j) is the height once j - 1 letters are read.  With w_0 = 0 the
        # tie-break at equality always admits the lower side and rejects the upper
        # side, so each limit reduces to lo <= height < hi
        lo, hi = limits.get(x + y + 2, box)
        return key if lo <= y + letter < hi else None

    counts = descent_word_walk(spec.ambient_n - 1, spec.level_k - 1, step)
    # limits on j = 1 hold before the first letter, at height 0
    lo, hi = limits.get(1, box)
    return sum(counts.values()) if lo <= 0 < hi else 0


def all_subsets(n: int) -> list[tuple[int, ...]]:
    """Subsets of {1..n} as sorted tuples, ordered by size then value."""
    values = range(1, n + 1)
    return [T for size in range(n + 1) for T in itertools.combinations(values, size)]


def subset_key(T: Iterable[int]) -> str:
    """Canonical rendering of a subset of [n] for deterministic output."""
    items = sorted(T)
    return "{" + ",".join(str(t) for t in items) + "}"


def exceedance_position_census(k: int, n: int) -> dict[tuple[int, ...], int]:
    """
    For each T subset of {1..n}: count w in S_{kn+k-1} with n descents
    whose path has its flaws exactly in the rows {t-1 : t in T} (at k = 2,
    its exceedance positions).  The walk keys each ad-word by the bitmask
    of its flaw rows so far.  Each entry is the normalized volume of P_{k,n}(T).
    """
    from .paths import flaw_walk

    counts = flaw_walk(k, n, lambda mask, y: mask | 1 << y)
    return {T: counts.get(sum(1 << (t - 1) for t in T), 0) for T in all_subsets(n)}
