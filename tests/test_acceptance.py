"""
Acceptance suite: every numeric target is recomputed by an independent
oracle before being trusted.  Each criterion prints one
PASS line (visible under pytest -s or in the captured output).

Brute-force oracles scan at most S_8.  The S_11 instances compare the
descent-word engine against the closed-form numbers and each other.
"""
import itertools
import subprocess
import sys
import time
from collections import Counter

import pytest

from eulercat import alcoved, geometry, numbers, orbit
from oracles import (
    chung_feller_orbit,
    enumerate_by_descent_count,
    enumerate_diagonal_paths,
    eulerian_catalan,
    exceedance_positions,
)


def report(criterion, detail, started):
    elapsed = time.time() - started
    print(f"ACCEPTANCE {criterion}: PASS ({detail}, {elapsed:.1f}s)")


def test_criterion_1_eulerian_oracle():
    started = time.time()
    for n in range(1, 9):
        census = Counter()
        for w in itertools.permutations(range(1, n + 1)):
            census[sum(1 for i in range(n - 1) if w[i] > w[i + 1])] += 1
        for m in range(-1, n + 1):
            assert numbers.eulerian(m, n) == census.get(m, 0), (m, n)
    report("#1 eulerian-oracle", "all n <= 8", started)


def test_criterion_2_equidistribution():
    started = time.time()
    frozen = {1: 2, 2: 22, 3: 604, 4: 31238}
    for n in range(1, 5):
        census = orbit.equidistribution_census(2, n)
        assert set(census.values()) == {frozen[n]}
        assert frozen[n] == eulerian_catalan(n)
        assert sum(census.values()) == numbers.eulerian(n, 2 * n + 1)
    report("#2 equidistribution", "EC_1..EC_4 censused over S_3..S_9", started)


def test_criterion_2_equidistribution_n5():
    started = time.time()
    census = orbit.equidistribution_census(2, 5)
    assert set(census.values()) == {eulerian_catalan(5)}
    report("#2 equidistribution (S_11)", "n = 5 over S_11", started)


def test_criterion_3_orbit_certificates():
    started = time.time()
    for n in range(1, 4):
        m = 2 * n + 1
        checked = 0
        for w in enumerate_by_descent_count(m, n):
            cert = orbit.analyze_orbit(w)  # validates every invariant
            assert sorted(cert["exceedances"]) == list(range(n + 1))
            checked += 1
        assert checked == numbers.eulerian(n, m)
    report("#3 orbit-certificates", "all of S_3, S_5, S_7", started)


FUSS_INSTANCES = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1)]
FUSS_LARGE_INSTANCES = [(3, 3), (4, 2)]


def test_criterion_4_fuss_counts():
    started = time.time()
    for k, n in FUSS_INSTANCES:
        assert orbit.count_dyck_permutations(k, n) == numbers.fuss_eulerian_catalan(k, n)
    report("#4 fuss-theorem", f"{len(FUSS_INSTANCES)} instances up to S_9", started)


@pytest.mark.parametrize("k,n", FUSS_LARGE_INSTANCES)
def test_criterion_4_fuss_counts_s11(k, n):
    started = time.time()
    assert orbit.count_dyck_permutations(k, n) == numbers.fuss_eulerian_catalan(k, n)
    report("#4 fuss-theorem (S_11)", f"(k, n) = ({k}, {n}) over S_11", started)


def test_criterion_5_alcoved_counting():
    started = time.time()
    for k, n in FUSS_INSTANCES:
        assert alcoved.w_set_count(alcoved.spec_for_Pkn(k, n)) == \
            orbit.count_dyck_permutations(k, n)
    for n in range(2, 9):
        for k in range(1, n):
            assert alcoved.w_set_count(alcoved.spec_for_hypersimplex(k, n)) == \
                numbers.eulerian(k - 1, n - 1)
    report("#5 alcoved-counting", "slices and hypersimplices to ambient 8", started)


@pytest.mark.parametrize("k,n", FUSS_LARGE_INSTANCES)
def test_criterion_5_alcoved_counting_s11(k, n):
    started = time.time()
    assert alcoved.w_set_count(alcoved.spec_for_Pkn(k, n)) == \
        orbit.count_dyck_permutations(k, n)
    report("#5 alcoved-counting (S_11)", f"(k, n) = ({k}, {n})", started)


def test_criterion_6_ehrhart_volumes():
    started = time.time()
    for n in range(1, 4):
        record = geometry.ehrhart_volume(alcoved.spec_for_Pkn(2, n))
        assert record["normalized_volume"] == eulerian_catalan(n)
    assert geometry.ehrhart_volume(alcoved.spec_for_Pkn(3, 1))["normalized_volume"] == 13
    for n in range(2, 8):
        for k in range(1, n):
            record = geometry.ehrhart_volume(alcoved.spec_for_hypersimplex(k, n))
            assert record["normalized_volume"] == numbers.eulerian(k - 1, n - 1)
    report("#6 ehrhart-volumes", "EC_1..EC_3, (3,1), hypersimplices to ambient 7",
           started)


def test_criterion_7_subdivision():
    started = time.time()
    for k, n in [(2, 1), (2, 2), (3, 1)]:
        ok, rep = geometry.verify_subdivision(k, n)
        assert ok, rep["failures"]
        assert rep["total_volume"] == numbers.eulerian(n, k * (n + 1) - 1)
    report("#7 subdivision", "(2,1), (2,2), (3,1) with membership probes", started)


def test_criterion_8_volume_identity_at_one_exceedance():
    started = time.time()
    for n in range(1, 4):
        census = alcoved.exceedance_position_census(2, n)
        volumes = {
            T: geometry.ehrhart_volume(
                alcoved.spec_for_Pkn(2, n, T)
            )["normalized_volume"]
            for T in census
        }
        assert census == volumes
        one_exceedance = sum(v for T, v in volumes.items() if len(T) == 1)
        assert one_exceedance == eulerian_catalan(n)
    report("#8 volume-identity", "census == volumes entry-by-entry, n <= 3", started)


def test_criterion_9_classic_chung_feller():
    started = time.time()
    for n in range(1, 9):
        buckets = Counter()
        for path in enumerate_diagonal_paths(n):
            buckets[len(exceedance_positions(path))] += 1
            orbit_paths = chung_feller_orbit(path)
            assert sorted(len(exceedance_positions(p)) for p in orbit_paths) == \
                list(range(n + 1))
        assert buckets == {j: numbers.catalan(n) for j in range(n + 1)}
    report("#9 chung-feller", "all paths to (n,n), n <= 8", started)


def test_criterion_10_cli_determinism():
    started = time.time()
    commands = [
        ["census", "--n", "2", "--format", "json"],
        ["census", "--n", "3", "--format", "json"],
        ["verify", "subdivision", "--k", "2", "--n", "2", "--format", "json"],
        ["orbit", "2", "4", "1", "5", "3", "--format", "json"],
        ["ec", "--max-n", "6", "--format", "csv"],
    ]
    for argv in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "eulercat.cli", *argv], capture_output=True
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == runs[1].returncode == 0, argv
        assert runs[0].stdout == runs[1].stdout, argv
    report("#10 determinism", "byte-identical reruns", started)
