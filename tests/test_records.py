"""Validation of the input records at construction, and the JSON of specs and results."""
import pytest

from eulercat import geometry
from eulercat.alcoved import AlcovedSpec, Bound, spec_for_Pkn
from eulercat.geometry import ehrhart_volume, verify_subdivision
from eulercat.orbit import analyze_orbit


def test_alcoved_spec_validates_at_construction():
    with pytest.raises(ValueError, match="empty bound"):
        AlcovedSpec(4, 2, (Bound(2, lower=2, upper=1),))
    with pytest.raises(ValueError, match="out of range"):
        AlcovedSpec(ambient_n=4, level_k=2, bounds=(Bound(5, upper=1),))
    with pytest.raises(ValueError, match="degenerate"):
        AlcovedSpec(ambient_n=4, level_k=4)
    spec = AlcovedSpec(ambient_n=4, level_k=2)
    assert spec.bounds == () and spec == AlcovedSpec(4, 2, ())
    assert repr(Bound(2, upper=1)) == "Bound(j=2, lower=None, upper=1)"


def test_record_json_shapes(monkeypatch):
    assert spec_for_Pkn(2, 2, {2}).to_json_dict() == {
        "ambient_n": 6,
        "level_k": 3,
        "bounds": [{"j": 2, "b": None, "c": 1}, {"j": 4, "b": 2, "c": None}],
    }
    assert ehrhart_volume(spec_for_Pkn(2, 1)) == {
        "dimension": 3,
        "evaluations": [1, 5, 14, 30],
        "coefficients": ["1/1", "13/6", "3/2", "1/3"],
        "normalized_volume": 2,
    }
    ok, report = verify_subdivision(2, 1)
    assert ok
    assert report == {
        "piece_volumes": [2, 2],
        "total_volume": 4,
        "hypersimplex_volume": 4,
        "expected_piece_volume": 2,
        "interior_hits": [2, 2],
        "failures": [],
    }
    assert analyze_orbit((2, 4, 1, 5, 3)) == {
        "base": "2 4 1 5 3",
        "case": "n-plus-one-cyclic-descents",
        "exceedances": [0, 1, 2],
        "shifts": [
            {"start": 1, "permutation": "2 4 1 5 3", "exceedance": 0},
            {"start": 3, "permutation": "1 5 3 2 4", "exceedance": 1},
            {"start": 5, "permutation": "3 2 4 1 5", "exceedance": 2},
        ],
    }
    # each coefficient of d! p(t) is rendered over d! in lowest terms, zero as 0/1:
    # the counts h = 1, 1, 3, 10 give p(t) = 1 - 1/2 t^2 + 1/2 t^3, with p(-1) = 0
    monkeypatch.setattr(geometry, "count_dilated_lattice_points",
                        lambda band, t: (1, 1, 3, 10)[t])
    assert ehrhart_volume(spec_for_Pkn(2, 1))["coefficients"] == ["1/1", "0/1", "-1/2", "1/2"]
