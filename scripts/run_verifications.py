#!/usr/bin/env python3
"""Run every cross-verification identity at desk scale and print a summary.

Usage: python3 scripts/run_verifications.py
Exits 1 if any identity fails.
"""
import sys
import time

from eulercat import alcoved, geometry, numbers, orbit


def check(label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {label}" + (f"  {detail}" if detail else ""))
    return ok


def main():
    started = time.time()
    ok = True

    for n in range(1, 5):
        census = orbit.equidistribution_census(n)
        ec = numbers.eulerian_catalan(n)
        ok &= check(f"equidistribution n={n}",
                    set(census.values()) == {ec}, f"EC_{n} = {ec}")

    fuss_instances = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1),
                      (3, 3), (4, 2)]
    for k, n in fuss_instances:
        count = orbit.count_dyck_permutations(n, k)
        expected = numbers.fuss_eulerian_catalan(k, n)
        ok &= check(f"fuss k={k} n={n}", count == expected, f"count = {count}")
        alc = alcoved.w_set_count(alcoved.spec_for_Pkn(k, n))
        ok &= check(f"alcoved-vs-dyck k={k} n={n}", alc == count)

    for k, n in [(2, 1), (2, 2), (3, 1)]:
        report = geometry.verify_subdivision(k, n)
        ok &= check(f"subdivision k={k} n={n}", report.passed,
                    f"pieces {report.piece_volumes}, total {report.total_volume}")

    for n in range(1, 4):
        census = alcoved.exceedance_position_census(n)
        volumes = {
            T: geometry.ehrhart_volume(
                alcoved.spec_for_P2n_flipped(n, T)).normalized_volume
            for T in census
        }
        ok &= check(f"census-vs-volumes n={n}", census == volumes)

    print(f"done in {time.time() - started:.1f}s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
