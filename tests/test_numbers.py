import json
import math
import sys

import pytest

from eulercat.cli import main
from eulercat.numbers import (
    catalan,
    eulerian,
    eulerian_catalan_upto,
    eulerian_row,
    eulerian_rows,
    fuss_eulerian_catalan,
)

from conftest import brute_descent_census
from oracles import (
    column_walk_eulerian,
    enumerate_diagonal_paths,
    eulerian_catalan,
    exceedance_positions,
)


def test_eulerian_small_values_against_brute_force():
    assert eulerian(0, 5) == 1
    assert eulerian(1, 3) == brute_descent_census(3)[1] == 4
    assert eulerian(2, 5) == brute_descent_census(5)[2] == 66


@pytest.mark.parametrize("n", range(1, 8))
def test_eulerian_matches_exhaustive_census(n):
    census = brute_descent_census(n)
    for m in range(n):
        assert eulerian(m, n) == census.get(m, 0)


def test_eulerian_out_of_range_and_errors():
    assert eulerian(-1, 4) == 0
    assert eulerian(4, 4) == 0
    with pytest.raises(ValueError):
        eulerian(0, 0)


@pytest.mark.parametrize("n", range(1, 13))
def test_eulerian_row_symmetry_and_sum(n):
    for m in range(n):
        assert eulerian(m, n) == eulerian(n - m - 1, n)
    assert sum(eulerian(m, n) for m in range(n)) == math.factorial(n)


def test_eulerian_catalan_values():
    assert [eulerian_catalan(n) for n in range(5)] == [1, 2, 22, 604, 31238]


@pytest.mark.parametrize("n", range(1, 11))
def test_eulerian_catalan_equals_twice_off_central(n):
    assert eulerian_catalan(n) == 2 * eulerian(n, 2 * n)


def test_fuss_values():
    assert fuss_eulerian_catalan(2, 2) == eulerian_catalan(2) == 22
    assert fuss_eulerian_catalan(3, 1) == 13
    assert fuss_eulerian_catalan(4, 0) == 1


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("n", range(7))
def test_fuss_divisibility_identity(k, n):
    assert (n + 1) * fuss_eulerian_catalan(k, n) == eulerian(n, k * n + k - 1)


def test_fuss_rejects_small_k():
    with pytest.raises(ValueError):
        fuss_eulerian_catalan(1, 3)


def test_catalan_values_against_path_enumeration():
    with pytest.raises(ValueError, match=r"^n must be >= 0$"):
        catalan(-1)
    assert catalan(0) == 1
    # C(n) counts the diagonal paths with exceedance 0

    assert catalan(3) == sum(
        1 for p in enumerate_diagonal_paths(3) if len(exceedance_positions(p)) == 0
    ) == 5
    assert catalan(8) == sum(
        1 for p in enumerate_diagonal_paths(8) if len(exceedance_positions(p)) == 0
    ) == 1430


def test_big_values_stay_exact():
    # the central Eulerian number near n = 10 exceeds 64 bits
    assert eulerian(10, 21) > 2**63
    assert eulerian_catalan(10) * 11 == eulerian(10, 21)


@pytest.mark.parametrize("m,n", [(0, 501), (1, 501), (250, 501), (500, 501),
                                 (3, 900), (449, 900), (450, 900)])
def test_eulerian_past_n_500_matches_closed_form(m, n):
    # eulerian is the closed form, and the row walk shares no code with it; A(250, 501)
    # is the centre of an odd row, A(449, 900) and A(450, 900) meet at an even row's mirror
    assert eulerian(m, n) == eulerian_row(n)[m]


def test_closed_form_matches_the_row_walk():
    # every entry, upper halves included, of rows 1..60: both parities of the seam
    for n in range(1, 61):
        assert [eulerian(m, n) for m in range(n)] == eulerian_row(n)


@pytest.mark.parametrize("m,n", [(10, 3000), (3, 1200)])
def test_eulerian_band_far_from_the_row_matches_closed_form(m, n):
    # the column walk visits only columns 0..m of rows 1..n; row 3000 is never built
    assert eulerian(m, n) == column_walk_eulerian(m, n)


def test_band_walk_matches_full_row_walk():
    # eulerian_rows clips each lower half to the entries with at most width ascents
    full = list(eulerian_rows(121, 120))
    for width in (0, 7, 40, 60):
        for r, (band, half) in enumerate(zip(eulerian_rows(121, width), full), 1):
            assert band == half[max(0, r - 1 - width):]


def test_eulerian_catalan_upto_matches_the_closed_form():
    # the centre of each odd half against one alternating sum per n
    ec = eulerian_catalan_upto(300)
    assert ec == [fuss_eulerian_catalan(2, n) for n in range(301)]
    for max_n in range(61):
        assert eulerian_catalan_upto(max_n) == ec[: max_n + 1]


def test_eulerian_row_900_sum_and_symmetry():
    row = eulerian_row(900)
    assert len(row) == 900
    assert sum(row) == math.factorial(900)
    assert row == row[::-1]
    assert row[17] == eulerian(17, 900)


def test_eulerian_row_rejects_empty_row():
    with pytest.raises(ValueError):
        eulerian_row(0)
    with pytest.raises(ValueError):
        eulerian_catalan_upto(-1)


def test_ec_cli_walk_matches_one_at_a_time(capsys):
    assert main(["ec", "--max-n", "40", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows == [{"n": n, "ec": eulerian_catalan(n)} for n in range(41)]


def test_answers_of_any_size_print(capsys):
    # fuss(5000, 2) has 7,156 digits, past CPython's default limit for int-to-str
    assert main(["fuss", "--k", "5000", "--n", "2", "--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    digits = captured.out.splitlines()[1].split(",")[2]
    assert len(digits) == 7156
    value = 0
    for start in range(0, len(digits), 1000):  # read back in pieces under the limit
        piece = digits[start:start + 1000]
        value = value * 10 ** len(piece) + int(piece)
    # A(2, n) = 3^n - (n+1) 2^n + n(n+1)/2, written out by hand
    assert value == (3**14999 - 15000 * 2**14999 + 14999 * 15000 // 2) // 3


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0,
                    reason="int-to-str digit limit switched off")
def test_argv_keeps_the_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    # the caller's limit comes back after success, bad arguments and a cap refusal
    for argv, code in [(["fuss", "--k", "3", "--n", "1"], 0),
                       (["ec", "--max-n", "-1"], 2),
                       (["census", "--n", "31"], 3)]:
        assert main(argv) == code
        assert sys.get_int_max_str_digits() == limit
    with pytest.raises(SystemExit) as exc:
        main(["catalan", "--max-n", "-1" + "0" * 5000])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
