"""The result records: construction-time validation and their JSON shapes."""
import pytest

from eulercat.alcoved import AlcovedSpec, Bound, spec_for_Pkn
from eulercat.geometry import EhrhartRecord, ehrhart_volume, verify_subdivision
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


def test_record_json_shapes():
    assert Bound(2, upper=1).to_json_dict() == {"i": 0, "j": 2, "b": None, "c": 1}
    assert spec_for_Pkn(2, 2, {2}).to_json_dict() == {
        "ambient_n": 6,
        "level_k": 3,
        "bounds": [{"i": 0, "j": 2, "b": None, "c": 1}, {"i": 0, "j": 4, "b": 2, "c": None}],
    }
    assert ehrhart_volume(spec_for_Pkn(2, 1)).to_json_dict() == {
        "dimension": 3,
        "evaluations": [1, 5, 14, 30],
        "coefficients": ["1/1", "13/6", "3/2", "1/3"],
        "normalized_volume": 2,
    }
    # coefficients of d! p(x), rendered in lowest terms over d!
    assert EhrhartRecord(3, (), (6, 0, -9, 2), 2).to_json_dict()["coefficients"] == \
        ["1/1", "0/1", "-3/2", "1/3"]
    ok, report = verify_subdivision(2, 1)
    assert ok
    assert report == {
        "piece_volumes": [2, 2],
        "total_volume": 4,
        "hypersimplex_volume": 4,
        "expected_piece_volume": 2,
        "interior_hits": [60, 58],
        "failures": [],
    }
    cert = analyze_orbit((2, 4, 1, 5, 3))
    assert cert.to_json_dict() == {
        "base": "2 4 1 5 3",
        "case": "n-plus-one-cyclic-descents",
        "exceedances": [0, 1, 2],
        "shifts": [
            {"start": 1, "permutation": "2 4 1 5 3", "exceedance": 0},
            {"start": 3, "permutation": "1 5 3 2 4", "exceedance": 1},
            {"start": 5, "permutation": "3 2 4 1 5", "exceedance": 2},
        ],
    }
