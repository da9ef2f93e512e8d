import itertools
from fractions import Fraction

import pytest

from eulercat import geometry
from eulercat.alcoved import (
    AlcovedSpec,
    Bound,
    spec_for_P2n_flipped,
    spec_for_Pkn,
    spec_for_hypersimplex,
    w_set_count,
)
from eulercat.errors import ScaleCapError
from eulercat.geometry import (
    DegenerateDimensionError,
    count_dilated_lattice_points,
    ehrhart_volume,
    eval_poly,
    interpolate_at_integers,
    verify_subdivision,
)
from eulercat.numbers import eulerian, eulerian_catalan, fuss_eulerian_catalan


def naive_lattice_count(spec, t):
    """Direct enumeration over the integer box, as an independent oracle."""
    prefix = {b.j: (b.lower, b.upper) for b in spec.bounds if b.j - b.i > 1}
    count = 0
    for x in itertools.product(range(t + 1), repeat=spec.ambient_n):
        if sum(x) != t * spec.level_k:
            continue
        ok = True
        for j, (lo, hi) in prefix.items():
            s = sum(x[:j])
            if lo is not None and s < t * lo:
                ok = False
            if hi is not None and s > t * hi:
                ok = False
        if ok:
            count += 1
    return count


def test_count_dilated_trivial_cases():
    segment = spec_for_hypersimplex(1, 2)
    for t in range(6):
        assert count_dilated_lattice_points(segment, t) == t + 1
    assert count_dilated_lattice_points(spec_for_Pkn(2, 2), 0) == 1


@pytest.mark.parametrize(
    "spec",
    [
        spec_for_hypersimplex(1, 3),
        spec_for_hypersimplex(2, 4),
        spec_for_hypersimplex(2, 5),
        spec_for_Pkn(2, 1),
        spec_for_P2n_flipped(1, {1}),
    ],
    ids=["d13", "d24", "d25", "p21", "p21-flipped"],
)
@pytest.mark.parametrize("t", [0, 1, 2, 3])
def test_dp_agrees_with_naive_enumeration(spec, t):
    assert count_dilated_lattice_points(spec, t) == naive_lattice_count(spec, t)


def test_dp_rejects_general_interval_bounds():
    with pytest.raises(ValueError):
        spec = AlcovedSpec(ambient_n=4, level_k=2, bounds=(Bound(1, 3, upper=1),))
        count_dilated_lattice_points(spec, 1)


def test_interpolation_is_exact():
    # x^2/2 + x/2 + 1 through (0,1),(1,2),(2,4)
    coeffs = interpolate_at_integers([1, 2, 4])
    assert coeffs == [Fraction(1), Fraction(1, 2), Fraction(1, 2)]
    assert eval_poly(coeffs, 5) == Fraction(16)


def test_ehrhart_hypersimplex_volumes():
    assert ehrhart_volume(spec_for_hypersimplex(3, 6)).normalized_volume == 66
    for n in range(2, 8):
        for k in range(1, n):
            record = ehrhart_volume(spec_for_hypersimplex(k, n))
            assert record.normalized_volume == eulerian(k - 1, n - 1)
            assert record.evaluations[0] == 1


@pytest.mark.parametrize("k,n", [(2, 1), (2, 2), (2, 3), (3, 1)])
def test_ehrhart_pkn_matches_fuss_and_alcoved_count(k, n):
    spec = spec_for_Pkn(k, n)
    record = ehrhart_volume(spec)
    assert record.normalized_volume == fuss_eulerian_catalan(k, n)
    assert record.normalized_volume == w_set_count(spec)


def test_ehrhart_held_out_dilation():
    spec = spec_for_Pkn(2, 2)
    record = ehrhart_volume(spec)
    t = record.dimension + 1
    assert eval_poly(record.coefficients, t) == count_dilated_lattice_points(spec, t)


def test_ehrhart_degenerate_polytope_is_reported():
    # x_1 pinned to the dilation level: a point, not a 2-dimensional body
    spec = AlcovedSpec(
        ambient_n=3, level_k=1, bounds=(Bound(0, 1, lower=1, upper=1),)
    )
    with pytest.raises(DegenerateDimensionError):
        ehrhart_volume(spec)


def test_ehrhart_scale_cap():
    with pytest.raises(ScaleCapError):
        ehrhart_volume(spec_for_Pkn(2, 5))  # ambient 12


@pytest.mark.parametrize("k,n", [(2, 1), (2, 2), (3, 1)])
def test_verify_subdivision_passes(k, n):
    report = verify_subdivision(k, n)
    assert report.passed, report.failures
    assert set(report.piece_volumes) == {fuss_eulerian_catalan(k, n)}
    assert report.total_volume == eulerian(n, k * (n + 1) - 1)
    assert report.points_probed > 0
    assert sum(report.interior_hits) > 0
    assert len(report.piece_volumes) == n + 1
    assert report.to_json_dict()["piece_symmetry"] == (
        f"pieces 1..{n} are images of P_{{{k},{n}}} under the coordinate rotation by {k}*i"
    )


def test_verify_subdivision_runs_one_dp_per_polytope(monkeypatch):
    calls = []
    count = geometry.count_dilated_lattice_points

    def counting(spec, t):
        calls.append((spec, t))
        return count(spec, t)

    monkeypatch.setattr(geometry, "count_dilated_lattice_points", counting)
    assert verify_subdivision(2, 2).passed
    # P_{2,2} and Delta(3, 6), each at dilations t = 0..5
    pkn, hyper = spec_for_Pkn(2, 2), spec_for_hypersimplex(3, 6)
    assert len(calls) == 12
    assert calls == [(pkn, t) for t in range(6)] + [(hyper, t) for t in range(6)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_flipped_volume_sum_at_one_exceedance(n):
    total = sum(
        ehrhart_volume(spec_for_P2n_flipped(n, {t})).normalized_volume
        for t in range(1, n + 1)
    )
    assert total == eulerian_catalan(n)


def test_ehrhart_record_json_shape():
    record = ehrhart_volume(spec_for_Pkn(2, 1)).to_json_dict()
    assert record["normalized_volume"] == 2
    assert record["dimension"] == 3
    assert len(record["evaluations"]) == 4
    assert all("/" in c for c in record["coefficients"])
