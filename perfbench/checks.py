"""
Workload command lists and the answers each command must print.

Every expected value is computed here, from formulas that share no code
with the package under test (nothing in this file imports eulercat):

- Eulerian numbers from the closed-form alternating sum; EC_n, the Fuss
  counts and the hypersimplex volumes follow from them.
- Catalan numbers from the convolution recurrence.
- Exceedance-position buckets from a descent-word sum: every statistic
  the census reads depends only on the ascent/descent word, and the
  number of permutations with a given word comes from the rank DP.
- Orbit certificates from the cyclic shifts of the word itself.

A check returns None when the parsed JSON output is right and a short
message when it is not.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

Check = Callable[[object], Optional[str]]


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]
    check: Check


def eulerian(m: int, n: int) -> int:
    """A(m, n): permutations of [n] with m descents, by the alternating sum."""
    if not 0 <= m < n:
        return 0
    return sum(
        (-1) ** j * math.comb(n + 1, j) * (m + 1 - j) ** n for j in range(m + 1)
    )


def fuss(k: int, n: int) -> int:
    """A(n, kn+k-1) / (n+1), checked to divide exactly."""
    q, r = divmod(eulerian(n, k * n + k - 1), n + 1)
    if r:
        raise ArithmeticError(f"A({n}, {k * n + k - 1}) not divisible by {n + 1}")
    return q


def ec(n: int) -> int:
    return fuss(2, n)


def catalans(max_n: int) -> list[int]:
    """C_0..C_max from C_{i+1} = sum_j C_j C_{i-j}."""
    out = [1]
    for i in range(max_n):
        out.append(sum(out[j] * out[i - j] for j in range(i + 1)))
    return out


def words_with_descent_count(length: int, ones: int):
    """0/1 words (1 = descent) of the given length with the given number of 1s."""
    for where in itertools.combinations(range(length), ones):
        word = [0] * length
        for i in where:
            word[i] = 1
        yield tuple(word)


def permutations_with_word(word) -> int:
    """How many permutations of [len(word)+1] have this ascent/descent word."""
    ranks = [1]  # ranks[r]: prefixes whose last value has rank r among them
    for bit in word:
        size = len(ranks) + 1
        nxt = [0] * size
        if bit:  # descent: the new last value ranks below the old one
            acc = 0
            for r in range(size - 1, -1, -1):
                if r < len(ranks):
                    acc += ranks[r]
                nxt[r] = acc
        else:
            acc = 0
            for r in range(size):
                nxt[r] = acc
                if r < len(ranks):
                    acc += ranks[r]
        ranks = nxt
    return sum(ranks)


def exceedance_positions(word) -> tuple[int, ...]:
    """Diagonal indices where the path (1 = North, 0 = East) is strictly above."""
    x = y = 0
    out = []
    for bit in word:
        if bit:
            y += 1
        else:
            if y > x:
                out.append(x)
            x += 1
    return tuple(out)


def position_census(n: int) -> dict[str, int]:
    """Permutations of S_{2n+1} with n descents, by exceedance-position set T."""
    census = {
        "{" + ",".join(str(t) for t in T) + "}": 0
        for size in range(n + 1)
        for T in itertools.combinations(range(1, n + 1), size)
    }
    for word in words_with_descent_count(2 * n, n):
        T = [x + 1 for x in exceedance_positions(word)]
        census["{" + ",".join(str(t) for t in T) + "}"] += permutations_with_word(word)
    return census


def descents(w) -> int:
    return sum(1 for a, b in zip(w, w[1:]) if a > b)


def random_orbit_word(n: int, rng: random.Random) -> tuple[int, ...]:
    """A uniform permutation of S_{2n+1} with exactly n descents."""
    values = list(range(1, 2 * n + 2))
    while True:
        rng.shuffle(values)
        if descents(values) == n:
            return tuple(values)


# ---------------------------------------------------------------- checks


def _rows(out, keys) -> list[tuple]:
    """The records of a table as tuples in the order of keys."""
    if not isinstance(out, list):
        raise TypeError("expected a JSON list of records")
    return [tuple(rec[k] for k in keys) for rec in out]


def _expect(what: str, got, want) -> Optional[str]:
    return None if got == want else f"{what}: got {_short(got)}, want {_short(want)}"


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


def check_table(keys, want_rows) -> Check:
    want = [tuple(r) for r in want_rows]
    return lambda out: _expect("rows", _rows(out, keys), want)


def check_census(n: int) -> Check:
    want = [(j, ec(n)) for j in range(n + 1)]
    return check_table(("exceedance", "count"), want)


def check_position_census(census: dict[str, int], n: int) -> Check:
    by_size = [0] * (n + 1)
    for key, count in census.items():
        by_size[key.count(",") + 1 if key != "{}" else 0] += count
    if by_size != [ec(n)] * (n + 1):
        raise ArithmeticError("descent-word census disagrees with EC_n")

    def check(out):
        got = dict(_rows(out, ("positions", "count")))
        return _expect("position census", got, census)
    return check


def check_dyck(n: int, k: int) -> Check:
    return check_table(("n", "k", "count"), [(n, k, fuss(k, n))])


def _passed(out) -> Optional[str]:
    return None if out.get("status") == "PASS" else f"status {out.get('status')!r}"


def check_equidistribution(n: int) -> Check:
    want = {str(j): ec(n) for j in range(n + 1)}
    return lambda out: (_passed(out) or _expect("census", out["census"], want)
                        or _expect("expected", out["expected"], ec(n)))


def check_alcoved_vs_dyck(k: int, n: int) -> Check:
    want = fuss(k, n)
    return lambda out: (_passed(out) or _expect("alcoved_count", out["alcoved_count"], want)
                        or _expect("dyck_count", out["dyck_count"], want))


def check_census_vs_volumes(census: dict[str, int]) -> Check:
    want = {key: {"census": c, "volume": c} for key, c in census.items()}
    return lambda out: (_passed(out) or _expect("entries", out["entries"], want)
                        or _expect("mismatches", out["mismatches"], []))


def check_subdivision(k: int, n: int) -> Check:
    piece = fuss(k, n)
    total = eulerian(n, k * (n + 1) - 1)

    def check(out):
        return (_passed(out)
                or _expect("piece_volumes", out["piece_volumes"], [piece] * (n + 1))
                or _expect("expected_piece_volume", out["expected_piece_volume"], piece)
                or _expect("total_volume", out["total_volume"], total)
                or _expect("hypersimplex_volume", out["hypersimplex_volume"], total)
                or _expect("failures", out["failures"], []))
    return check


def check_volume(dimension: int, volume: int) -> Check:
    def check(out):
        rec = out["ehrhart"]
        return (_expect("dimension", rec["dimension"], dimension)
                or _expect("h(0)", rec["evaluations"][0], 1)
                or _expect("normalized_volume", rec["normalized_volume"], volume))
    return check


def check_eulerian_row(n: int, rng: random.Random, samples: int = 6) -> Check:
    picks = sorted(rng.sample(range(n), min(samples, n)))
    want = {m: eulerian(m, n) for m in picks}
    factorial = math.factorial(n)

    def check(out):
        rows = _rows(out, ("m", "count"))
        if [m for m, _ in rows] != list(range(n)):
            return "row indices are not 0..n-1"
        counts = [c for _, c in rows]
        if sum(counts) != factorial:
            return "row sum is not n!"
        if counts != counts[::-1]:
            return "row is not symmetric"
        return _expect("sampled entries", {m: counts[m] for m in picks}, want)
    return check


def check_orbit(w: tuple[int, ...]) -> Check:
    m = len(w)
    n = (m - 1) // 2
    listed = []
    for r in range(1, m + 1):
        shifted = w[r - 1:] + w[:r - 1]
        if descents(shifted) == n:
            word = [1 if a > b else 0 for a, b in zip(shifted, shifted[1:])]
            listed.append({
                "start": r,
                "permutation": " ".join(map(str, shifted)),
                "exceedance": len(exceedance_positions(word)),
            })
    cyclic = descents(w) + (w[-1] > w[0])
    case = "n-cyclic-descents" if cyclic == n else "n-plus-one-cyclic-descents"
    if sorted(s["exceedance"] for s in listed) != list(range(n + 1)):
        raise ArithmeticError(f"orbit of {w} does not realize 0..{n}")

    def check(out):
        return (_expect("base", out["base"], " ".join(map(str, w)))
                or _expect("case", out["case"], case)
                or _expect("shifts", out["shifts"], listed)
                or _expect("exceedances", out["exceedances"],
                           [s["exceedance"] for s in listed]))
    return check


# ---------------------------------------------------------------- workloads


def setup_probe() -> Command:
    """A command doing O(1) work: start-up, import and argument parsing."""
    return Command(("catalan", "--max-n", "0"), check_table(("n", "catalan"), [(0, 1)]))


def enumerate_workload(rng: random.Random) -> list[Command]:
    census = position_census(4)
    return [
        Command(("census", "--n", "4"), check_census(4)),
        Command(("census", "--n", "4", "--by-position"), check_position_census(census, 4)),
        Command(("dyck-count", "--n", "4", "--k", "2"), check_dyck(4, 2)),
        Command(("dyck-count", "--n", "2", "--k", "3"), check_dyck(2, 3)),
        Command(("dyck-count", "--n", "1", "--k", "5"), check_dyck(1, 5)),
        Command(("verify", "equidistribution", "--n", "4"), check_equidistribution(4)),
        Command(("verify", "alcoved-vs-dyck", "--k", "2", "--n", "4"),
                check_alcoved_vs_dyck(2, 4)),
        Command(("verify", "census-vs-volumes", "--n", "4"), check_census_vs_volumes(census)),
    ]


def ehrhart_workload(rng: random.Random) -> list[Command]:
    flips = ",".join(str(t) for t in range(1, 13))
    return [
        Command(("volume", "--shape", "pkn", "--k", "2", "--n", "20", "--force"),
                check_volume(41, ec(20))),
        Command(("volume", "--shape", "hypersimplex", "--k", "16", "--n", "32", "--force"),
                check_volume(31, eulerian(15, 31))),
        Command(("volume", "--shape", "pkn", "--k", "3", "--n", "10", "--force"),
                check_volume(32, fuss(3, 10))),
        Command(("volume", "--shape", "p2n", "--n", "12", "--flip", flips, "--force"),
                check_volume(25, ec(12))),
        Command(("verify", "subdivision", "--k", "2", "--n", "12", "--force"),
                check_subdivision(2, 12)),
        Command(("verify", "subdivision", "--k", "3", "--n", "2"), check_subdivision(3, 2)),
    ]


ORBIT_COMMANDS = 4


def bignum_workload(rng: random.Random) -> list[Command]:
    commands = [
        Command(("ec", "--max-n", "300"),
                check_table(("n", "ec"), [(i, ec(i)) for i in range(301)])),
        Command(("eulerian-row", "--n", "900"), check_eulerian_row(900, rng)),
        Command(("fuss", "--k", "5", "--n", "100"),
                check_table(("k", "n", "count"), [(5, 100, fuss(5, 100))])),
        Command(("catalan", "--max-n", "8"),
                check_table(("n", "catalan"), list(enumerate(catalans(8))))),
        Command(("ec", "--max-n", "5"),
                check_table(("n", "ec"), [(i, ec(i)) for i in range(6)])),
        Command(("eulerian-row", "--n", "5"),
                check_table(("m", "count"), [(m, eulerian(m, 5)) for m in range(5)])),
        Command(("fuss", "--k", "3", "--n", "1"),
                check_table(("k", "n", "count"), [(3, 1, fuss(3, 1))])),
    ]
    for _ in range(ORBIT_COMMANDS):
        w = random_orbit_word(rng.randint(5, 25), rng)
        commands.append(Command(("orbit", *map(str, w)), check_orbit(w)))
    return commands


WORKLOADS = {
    "enumerate": enumerate_workload,
    "ehrhart": ehrhart_workload,
    "bignum": bignum_workload,
}


def build(name: str, seed: int) -> list[Command]:
    """The workload's commands, in an order drawn from the seed."""
    rng = random.Random(f"{name}:{seed}")
    commands = WORKLOADS[name](rng)
    rng.shuffle(commands)
    return commands
