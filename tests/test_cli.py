import argparse
import contextlib
import csv
import io
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulercat import alcoved, cli, errors, geometry, numbers, orbit, paths, permcore
from eulercat.cli import build_parser, main
from eulercat.errors import WORK_CAP, Budget
from eulercat.numbers import eulerian, fuss_eulerian_catalan
from oracles import eulerian_catalan


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_subprocess(*argv):
    return subprocess.run(
        [sys.executable, "-m", "eulercat.cli", *argv],
        capture_output=True,
    )


def test_ec_table(capsys):
    code, out, _ = run_cli(capsys, "ec", "--max-n", "2")
    assert code == 0
    values = [line.split()[-1] for line in out.strip().splitlines()[1:]]
    assert values == ["1", "2", "22"]


def test_ec_csv_and_json(capsys):
    code, out, _ = run_cli(capsys, "ec", "--max-n", "2", "--format", "csv")
    assert code == 0
    assert out == "n,ec\n0,1\n1,2\n2,22\n"
    code, out, _ = run_cli(capsys, "ec", "--max-n", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == [
        {"n": 0, "ec": 1}, {"n": 1, "ec": 2}, {"n": 2, "ec": 22},
    ]


def test_eulerian_row(capsys):
    code, out, _ = run_cli(capsys, "eulerian-row", "--n", "1", "--format", "csv")
    assert code == 0
    assert out == "m,count\n0,1\n"
    code, out, _ = run_cli(capsys, "eulerian-row", "--n", "4", "--format", "csv")
    assert out == "m,count\n0,1\n1,11\n2,11\n3,1\n"


def test_fuss_and_catalan(capsys):
    code, out, _ = run_cli(capsys, "fuss", "--k", "3", "--n", "1", "--format", "csv")
    assert code == 0 and out == "k,n,count\n3,1,13\n"
    code, out, _ = run_cli(capsys, "catalan", "--max-n", "3", "--format", "csv")
    assert code == 0 and out.strip().splitlines()[-1] == "3,5"


def test_dyck_count(capsys):
    code, out, _ = run_cli(capsys, "dyck-count", "--n", "2", "--k", "2",
                           "--format", "csv")
    assert code == 0 and out == "n,k,count\n2,2,22\n"
    # --k defaults to 2, and fuss(2, 3) = 604
    code, out, _ = run_cli(capsys, "dyck-count", "--n", "3", "--format", "csv")
    assert code == 0 and out == "n,k,count\n3,2,604\n"


def test_census(capsys):
    code, out, _ = run_cli(capsys, "census", "--n", "2", "--format", "csv")
    assert code == 0
    assert out == "exceedance,count\n0,22\n1,22\n2,22\n"


def test_census_by_position(capsys):
    code, out, _ = run_cli(capsys, "census", "--n", "2", "--by-position",
                           "--format", "csv")
    assert code == 0
    assert out == 'positions,count\n{},22\n{1},11\n{2},11\n"{1,2}",22\n'


def test_census_at_n_0(capsys):
    # S_1 has one permutation, with the empty ad-word: no exceedance at any position
    code, out, _ = run_cli(capsys, "census", "--n", "0", "--by-position")
    assert code == 0 and out == "positions  count\n{}         1\n"
    code, out, err = run_cli(capsys, "census", "--n", "-1", "--by-position")
    assert code == 2 and out == "" and err == "error: n must be >= 0\n"
    # P_{2,0}(T) is no polytope, so the census has no volumes to meet
    for n in ("0", "-1"):
        code, out, err = run_cli(capsys, "verify", "census-vs-volumes", "--n", n)
        assert code == 2 and out == "" and err == "error: n must be >= 1\n"


def test_forced_census_at_n_30(capsys):
    code, out, _ = run_cli(capsys, "census", "--n", "30", "--force", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:] == [f"{j},{eulerian_catalan(30)}" for j in range(31)]


def test_orbit_certificate(capsys):
    code, out, _ = run_cli(capsys, "orbit", "2", "1", "3", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert sorted(record["exceedances"]) == [0, 1]
    code, out, _ = run_cli(capsys, "orbit", "2", "4", "1", "5", "3",
                           "--format", "json")
    assert code == 0
    assert sorted(json.loads(out)["exceedances"]) == [0, 1, 2]


def test_orbit_rejects_wrong_descent_count(capsys):
    code, _, err = run_cli(capsys, "orbit", "1", "2", "3")
    assert code == 2
    assert "descent" in err


def test_orbit_rejects_a_non_permutation(capsys):
    code, _, err = run_cli(capsys, "orbit", "1", "1", "2")
    assert code == 2
    assert "not a permutation of 1..3" in err
    with pytest.raises(SystemExit) as exc:
        main(["orbit", "2", "x", "1"])  # argparse reads the integers
    assert exc.value.code == 2


def test_volume_json(capsys):
    code, out, _ = run_cli(capsys, "volume", "--shape", "pkn", "--k", "2",
                           "--n", "2", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["ehrhart"]["normalized_volume"] == 22
    code, out, _ = run_cli(capsys, "volume", "--shape", "p2n", "--n", "2",
                           "--flip", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["ehrhart"]["normalized_volume"] == 11


def test_p2n_is_pkn_at_k_2(capsys):
    # --shape p2n prints what pkn --k 2 does, with every --flip T and with none
    for n in range(1, 4):
        for flip in [(), *(("--flip", ",".join(map(str, T))) for T in alcoved.all_subsets(n))]:
            outs = [run_cli(capsys, "volume", "--shape", *shape, "--n", str(n), *flip,
                            "--format", "json")
                    for shape in (("p2n",), ("pkn", "--k", "2"))]
            assert outs[0] == outs[1] and outs[0][0] == 0


@pytest.mark.parametrize("k,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)])
def test_pkn_flip_volume_is_its_flaw_set_count(capsys, k, n):
    # the flaw walk counts the W-set of P_{k,n}(T); it shares nothing with the Ehrhart DP
    census = alcoved.exceedance_position_census(k, n)
    volumes = {}
    for T in census:
        code, out, _ = run_cli(capsys, "volume", "--shape", "pkn", "--k", str(k),
                               "--n", str(n), "--flip", ",".join(map(str, T)),
                               "--format", "json")
        assert code == 0
        volumes[T] = json.loads(out)["ehrhart"]["normalized_volume"]
    assert volumes == census
    if (k, n) == (3, 2):
        assert volumes == {(): 1431, (1,): 672, (2,): 759, (1, 2): 1431}


@pytest.mark.parametrize("n,flip,message", [
    ("2", "3", "flip set [3] not a subset of 1..2"),
    ("0", "3", "flip set [3] not a subset of 1..0"),  # the flip set is checked before n
    ("0", "", "n must be >= 1"),
    ("2", "1,x", "cannot parse flip set '1,x'"),
])
def test_volume_refuses_bad_p2n_slices(capsys, n, flip, message):
    for shape in (("p2n",), ("pkn", "--k", "3")):
        code, out, err = run_cli(capsys, "volume", "--shape", *shape, "--n", n, "--flip", flip)
        assert code == 2 and out == "" and err == f"error: {message}\n"


def test_volume_requires_k_for_pkn(capsys):
    code, _, err = run_cli(capsys, "volume", "--shape", "pkn", "--n", "2")
    assert code == 2 and "required" in err


@pytest.mark.parametrize("argv,flag", [
    pytest.param(("--shape", "hypersimplex", "--k", "2", "--n", "4", "--flip", "1"), "--flip",
                 id="argv2---flip"),
    pytest.param(("--shape", "p2n", "--k", "2", "--n", "2"), "--k", id="argv3---k"),
    pytest.param(("--shape", "p2n", "--k", "3", "--n", "2", "--flip", "1"), "--k",
                 id="argv4---k"),
])
def test_volume_refuses_flags_its_shape_ignores(capsys, argv, flag):
    code, out, err = run_cli(capsys, "volume", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and flag in err


@pytest.mark.parametrize("argv", [
    ("verify", "equidistribution", "--n", "2"),
    ("verify", "subdivision", "--k", "2", "--n", "2"),
    ("verify", "alcoved-vs-dyck", "--k", "3", "--n", "1"),
    ("verify", "census-vs-volumes", "--n", "2"),
])
def test_verify_targets_pass(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.startswith("PASS")


CAP_REFUSAL = "error: the work passes the cap of 440000 cells; pass --force to proceed\n"


def test_scale_cap_refusal(capsys):
    # census --n 8 fills 3,104 cells; --n 31 fills 453,375, past the cap of 440,000
    code, out, _ = run_cli(capsys, "census", "--n", "8", "--format", "csv")
    assert code == 0 and out.splitlines()[1:] == [f"{j},{eulerian_catalan(8)}" for j in range(9)]
    code, out, err = run_cli(capsys, "census", "--n", "31")
    assert code == 3 and out == ""
    assert err == CAP_REFUSAL


def test_one_budget_per_command(capsys):
    # census-vs-volumes fills 354k cells at --n 7 and 1.02M at --n 8, although each
    # of its 256 volumes at --n 8 fills at most 7,246: every volume draws on one budget
    code, out, _ = run_cli(capsys, "verify", "census-vs-volumes", "--n", "7")
    assert code == 0 and out.startswith("PASS")
    code, out, err = run_cli(capsys, "verify", "census-vs-volumes", "--n", "8")
    assert code == 3 and out == ""
    assert err == CAP_REFUSAL


def test_each_command_has_a_fresh_budget(capsys):
    # census --n 30 fills 399,775 cells, so a budget left over from the first run
    # would refuse the second
    for _ in range(2):
        code, out, err = run_cli(capsys, "census", "--n", "30", "--format", "csv")
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == [f"{j},{eulerian_catalan(30)}" for j in range(31)]


@pytest.mark.parametrize("planted", [False, True], ids=["none", "planted"])
def test_main_gives_back_the_callers_budget(capsys, monkeypatch, planted):
    # the budget lasts one command: after every exit the caller's value is back, and a
    # caller's budget, unlimited or full, is neither read nor charged by the command
    callers = Budget(None)
    if planted:
        callers = Budget()
        callers.charge(WORK_CAP)
    monkeypatch.setattr(errors, "budget", callers)
    monkeypatch.setattr(geometry, "eval_poly", lambda coeffs, x: -1)  # volume exits 1
    for argv, code in [(["census", "--n", "2"], 0),
                       (["dyck-count", "--n", "2", "--force"], 0),
                       (["volume", "--shape", "pkn", "--k", "2", "--n", "1"], 1),
                       (["ec", "--max-n", "-1"], 2),
                       (["census", "--n", "31"], 3)]:
        assert main(argv) == code, argv
        assert errors.budget is callers, argv
    with pytest.raises(SystemExit) as exc:
        main(["census", "--n", "x"])
    assert exc.value.code == 2
    assert errors.budget is callers
    assert callers.filled == (WORK_CAP if planted else 0)


def test_force_lifts_the_cap(capsys):
    # Delta(22, 44) fills 459,889 cells, past the cap; Delta(22, 43) fills 419,122
    code, out, err = run_cli(capsys, "volume", "--shape", "hypersimplex", "--k", "22",
                             "--n", "44")
    assert code == 3 and out == ""
    assert err == CAP_REFUSAL
    code, out, _ = run_cli(capsys, "volume", "--shape", "hypersimplex", "--k", "22",
                           "--n", "44", "--force", "--format", "json")
    assert code == 0
    assert json.loads(out)["ehrhart"]["normalized_volume"] == eulerian(21, 43)
    code, out, _ = run_cli(capsys, "volume", "--shape", "hypersimplex", "--k", "22",
                           "--n", "43", "--format", "csv")
    assert code == 0 and out == f"shape,dimension,volume\nhypersimplex,42,{eulerian(21, 42)}\n"


@pytest.mark.parametrize("argv", [
    ("volume", "--shape", "hypersimplex", "--k", "22", "--n", "44"),
    # P_{2,19} fills 165,500 cells with its bounds and 40 dilations, and Delta(20, 40)
    # 313,681 more
    ("verify", "subdivision", "--k", "2", "--n", "19"),
    # the census fills 3,104 cells and the 256 volumes over a million; none of them is
    # past the cap on its own
    ("verify", "census-vs-volumes", "--n", "8"),
], ids=["delta-22-44", "subdivision-2-19", "census-vs-volumes-8"])
def test_an_over_cap_volume_runs_no_dilation(capsys, monkeypatch, argv):
    # a command charges every dilation of all its volumes before the first DP
    real, calls = geometry.count_dilated_lattice_points, []
    monkeypatch.setattr(geometry, "count_dilated_lattice_points",
                        lambda band, t: calls.append(t) or real(band, t))
    assert run_cli(capsys, *argv) == (3, "", CAP_REFUSAL)
    assert calls == []


def test_force_lifts_the_limit_not_the_meter(capsys, monkeypatch):
    # census --n 31 fills 453,375 cells on one budget with no limit; an uncapped
    # command runs on a capped budget and fills none
    built = []

    def recording(limit):
        built.append(Budget(limit))
        return built[-1]

    monkeypatch.setattr(cli, "Budget", recording)
    for argv in (["census", "--n", "31", "--force"], ["ec", "--max-n", "30"]):
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
    assert [(budget.limit, budget.filled) for budget in built] == \
        [(None, 453_375), (WORK_CAP, 0)]
    # outside a command the budget counts but never refuses
    assert isinstance(errors.budget, Budget) and errors.budget.limit is None
    Budget(None).charge(10 ** 12)


@pytest.mark.parametrize("argv", [
    ("volume", "--shape", "hypersimplex", "--k", "1", "--n", "1000000000"),
    ("volume", "--shape", "pkn", "--k", "100000000", "--n", "1"),
    ("verify", "subdivision", "--k", "100000000", "--n", "1"),
])
def test_large_ambient_dimension_is_refused_before_the_dp(capsys, argv):
    # the spec is small, but one dilation would fill a window per coordinate
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err == CAP_REFUSAL


@pytest.mark.parametrize("argv", [
    ("volume", "--shape", "pkn", "--k", "2", "--n", "1000000"),
    ("volume", "--shape", "p2n", "--n", "1000000"),
    ("verify", "subdivision", "--k", "2", "--n", "1000000"),
    ("verify", "alcoved-vs-dyck", "--k", "2", "--n", "1000000"),
])
def test_huge_p_kn_is_refused_before_its_bounds_are_built(capsys, monkeypatch, argv):
    # P_{k,n} charges one cell per bound before it builds any
    def unbuilt(*args, **kwargs):
        raise AssertionError("a bound of P_{k,n} built before the cap refusal")

    monkeypatch.setattr(alcoved, "Bound", unbuilt)
    assert run_cli(capsys, *argv) == (3, "", CAP_REFUSAL)


def test_alcoved_vs_dyck_refuses_n_below_1(capsys):
    # P_{k,0} is no polytope: n < 1 is refused with one text, as in census-vs-volumes
    for n in ("0", "-1"):
        assert run_cli(capsys, "verify", "alcoved-vs-dyck", "--n", n) == \
            (2, "", "error: n must be >= 1\n")


def plant_wrong_walk(monkeypatch):
    """Each final count of the descent-word walk one too high."""
    real = permcore.descent_word_walk

    def inflated(m, d, step):
        return {key: count + 1 for key, count in real(m, d, step).items()}

    monkeypatch.setattr(permcore, "descent_word_walk", inflated)
    monkeypatch.setattr(paths, "descent_word_walk", inflated)  # bound at import


def plant_wrong_alternating_sum(monkeypatch):
    """Every Eulerian number of the closed form doubled."""
    real = numbers.eulerian

    def doubled(m, n):
        return 2 * real(m, n)

    monkeypatch.setattr(numbers, "eulerian", doubled)
    monkeypatch.setattr(geometry, "eulerian", doubled)  # bound at import


def plant_wrong_lattice_dp(monkeypatch):
    """Every lattice-point count doubled, at every dilation."""
    real = geometry.count_dilated_lattice_points
    monkeypatch.setattr(geometry, "count_dilated_lattice_points",
                        lambda band, t: 2 * real(band, t))


def plant_wrong_half_rows(monkeypatch):
    """Each entry of every half that the Eulerian row walk yields one too high."""
    real = numbers.eulerian_rows

    def inflated(n, width):
        for half in real(n, width):
            yield [count + 1 for count in half]

    monkeypatch.setattr(numbers, "eulerian_rows", inflated)


# one planted fault per engine, by the engine names of README's table
ENGINE_FAULTS = {
    "descent-walk": plant_wrong_walk,
    "alternating-sum": plant_wrong_alternating_sum,
    "lattice-dp": plant_wrong_lattice_dp,
    "half-row-walk": plant_wrong_half_rows,
}

# the engines each command reads, on any side of its report (README's table)
ENGINES_READ = {
    ("verify", "equidistribution"): {"descent-walk", "alternating-sum"},
    ("verify", "alcoved-vs-dyck"): {"descent-walk", "alternating-sum"},
    ("verify", "subdivision"): {"lattice-dp", "alternating-sum"},
    ("verify", "census-vs-volumes"): {"descent-walk", "lattice-dp"},
    ("volume", "--shape", "pkn", "--k", "2"): {"lattice-dp"},
}


@pytest.mark.parametrize("fault", ENGINE_FAULTS)
@pytest.mark.parametrize("command", ENGINES_READ,
                         ids=lambda command: command[1] if command[0] == "verify" else "volume")
def test_a_faulty_engine_fails_every_command_that_reads_it(capsys, monkeypatch, command, fault):
    # no command may pass on an engine it reads, and one that reads another engine
    # is not disturbed
    ENGINE_FAULTS[fault](monkeypatch)
    code, _, _ = run_cli(capsys, *command, "--n", "2")
    assert code == (1 if fault in ENGINES_READ[command] else 0)


def test_wrong_half_rows_change_the_eulerian_row(capsys, monkeypatch):
    # the half-row-walk plant bites, though no command of the matrix reads that engine
    plant_wrong_half_rows(monkeypatch)
    code, out, _ = run_cli(capsys, "eulerian-row", "--n", "4", "--format", "csv")
    assert code == 0 and out != "m,count\n0,1\n1,11\n2,11\n3,1\n"


@pytest.mark.parametrize("k,n", [(2, 3), (3, 2)])
def test_alcoved_vs_dyck_fails_on_a_wrong_walk(capsys, monkeypatch, k, n):
    # the matrix's one cell whose report is checked whole: both counts are rules of
    # one walk, so a fault in it moves them together; the closed form, which runs no
    # walk, is what catches it
    plant_wrong_walk(monkeypatch)
    code, out, _ = run_cli(capsys, "verify", "alcoved-vs-dyck", "--k", str(k), "--n", str(n),
                           "--format", "json")
    expected = fuss_eulerian_catalan(k, n)
    assert code == 1
    assert json.loads(out) == {"target": "alcoved-vs-dyck", "k": k, "n": n,
                               "alcoved_count": expected + 1, "dyck_count": expected + 1,
                               "expected": expected, "status": "FAIL"}


# the commands the benchmark runs without --force, listed here on their own
BENCHMARK_UNFORCED = [
    ("census", "--n", "4"),
    ("census", "--n", "4", "--by-position"),
    ("dyck-count", "--n", "4", "--k", "2"),
    ("dyck-count", "--n", "2", "--k", "3"),
    ("dyck-count", "--n", "1", "--k", "5"),
    ("verify", "equidistribution", "--n", "4"),
    ("verify", "alcoved-vs-dyck", "--k", "2", "--n", "4"),
    ("verify", "census-vs-volumes", "--n", "4"),
    ("verify", "subdivision", "--k", "3", "--n", "2"),
]


@pytest.mark.parametrize("argv", BENCHMARK_UNFORCED)
def test_benchmark_commands_pass_the_cap(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0 and err == ""
    assert json.loads(out)


@pytest.mark.parametrize("argv,err", [
    (("eulerian-row", "--n", "0"), "error: n must be >= 1\n"),
    (("ec", "--max-n", "-1"), "error: max_n must be >= 0\n"),
    (("catalan", "--max-n", "-1"), "error: max_n must be >= 0\n"),
    (("fuss", "--k", "2", "--n", "-1"), "error: n must be >= 0\n"),
])
def test_numbers_commands_refuse_out_of_range(capsys, argv, err):
    assert run_cli(capsys, *argv) == (2, "", err)


def test_bad_subcommand_exits_2():
    result = run_subprocess("verify", "bogus", "--n", "1")
    assert result.returncode == 2


def test_byte_identical_reruns():
    for argv in (
        ["census", "--n", "2", "--format", "json"],
        ["verify", "census-vs-volumes", "--n", "2", "--format", "json"],
        ["ec", "--max-n", "5", "--format", "csv"],
    ):
        first = run_subprocess(*argv)
        second = run_subprocess(*argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


def test_caps_are_taken_only_where_read(capsys):
    # the caps are constants; --force, the one way past them, exists only where a cap is read
    for argv in (("ec", "--max-n", "2", "--force"),
                 ("orbit", "2", "1", "3", "--force"),
                 ("census", "--n", "2", "--max-factorial-cap", "5"),
                 ("volume", "--shape", "pkn", "--k", "2", "--n", "2", "--max-ambient", "40")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
    code, out, _ = run_cli(capsys, "census", "--n", "2", "--force", "--format", "csv")
    assert code == 0 and out == "exceedance,count\n0,22\n1,22\n2,22\n"


def test_option_surface_is_pinned():
    # every option is one more configuration to test and benchmark: adding one changes this
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    surface = {
        name: {s for a in sub._actions for s in a.option_strings or [a.dest]} - {"-h", "--help"}
        for name, sub in commands.choices.items()
    }
    assert surface == {
        "eulerian-row": {"--n", "--format"},
        "ec": {"--max-n", "--format"},
        "fuss": {"--k", "--n", "--format"},
        "catalan": {"--max-n", "--format"},
        "dyck-count": {"--n", "--k", "--format", "--force"},
        "census": {"--n", "--by-position", "--format", "--force"},
        "orbit": {"word", "--format"},
        "volume": {"--shape", "--k", "--n", "--flip", "--format", "--force"},
        "verify": {"target", "--n", "--k", "--format", "--force"},
    }


HELP = {
    "eulerian-row": "one row of the Eulerian triangle",
    "ec": "Eulerian-Catalan numbers EC_0..EC_max",
    "fuss": "the Fuss-type count A(n, kn+k-1)/(n+1)",
    "catalan": "Catalan numbers C_0..C_max",
    "dyck-count": "(k-1)-Dyck permutation count",
    "census": "exceedance census of S_{2n+1} with n descents",
    "orbit": "cyclic-orbit certificate for one permutation",
    "volume": "exact normalized volume via Ehrhart counting",
    "verify": "run a cross-verification identity",
}
CAPPED = {"dyck-count", "census", "volume", "verify"}


def run_help(capsys, monkeypatch, *argv):
    monkeypatch.setenv("COLUMNS", "200")  # one help line per entry
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    captured = capsys.readouterr()
    assert exc.value.code == 0 and captured.err == ""
    return captured.out


def test_help_lists_every_command(capsys, monkeypatch):
    out = run_help(capsys, monkeypatch)
    for name, text in HELP.items():
        assert re.search(rf"^    {re.escape(name)} +{re.escape(text)}$", out, re.M), name


@pytest.mark.parametrize("command", sorted(HELP))
def test_command_help_shows_force_only_where_capped(capsys, monkeypatch, command):
    out = run_help(capsys, monkeypatch, command)
    assert out.startswith(f"usage: eulercat {command} [-h] [--format {{plain,")
    assert ("--force" in out) == (command in CAPPED)


README_CLI = (Path(__file__).resolve().parents[1] / "README.md").read_text() \
    .split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
README_EXAMPLES = [shlex.split(line.split("#", 1)[0])[1:] for line in README_CLI.splitlines()]


def test_readme_lists_every_command():
    assert {argv[0] for argv in README_EXAMPLES} == set(HELP)


@pytest.mark.parametrize("argv", README_EXAMPLES, ids=" ".join)
def test_readme_examples_run(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and out and err == ""


SAMPLE_ARGV = {
    "eulerian-row": ("--n", "4"),
    "ec": ("--max-n", "2"),
    "fuss": ("--k", "3", "--n", "1"),
    "catalan": ("--max-n", "3"),
    "dyck-count": ("--n", "2"),
    "census": ("--n", "2"),
    "orbit": ("2", "4", "1", "5", "3"),
    "volume": ("--shape", "pkn", "--k", "2", "--n", "2"),
    "verify": ("equidistribution", "--n", "2"),
}


COMMANDS = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_accepted_format_is_that_format(capsys, command, fmt):
    argv = [command, *SAMPLE_ARGV[command], "--format", fmt]
    formats = next(a for a in COMMANDS[command]._actions if "--format" in a.option_strings)
    if fmt not in formats.choices:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        return
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    if fmt == "json":
        json.loads(out)
    elif fmt == "csv":
        header, *rows = csv.reader(io.StringIO(out))
        assert rows and all(len(row) == len(header) for row in rows)
        assert all(cell and ":" not in cell for cell in header)


@pytest.mark.parametrize("target,k,n", [
    ("equidistribution", 3, 8), ("equidistribution", 6, 8),
    ("census-vs-volumes", 3, 1), ("census-vs-volumes", 3, 2), ("census-vs-volumes", 3, 3),
    ("census-vs-volumes", 4, 1), ("census-vs-volumes", 4, 2),
    ("census-vs-volumes", 5, 1), ("census-vs-volumes", 5, 2),
])
def test_verify_reads_k_on_every_target(capsys, target, k, n):
    code, out, err = run_cli(capsys, "verify", target, "--k", str(k), "--n", str(n),
                             "--format", "json")
    report = json.loads(out)
    assert code == 0 and err == "" and report["status"] == "PASS"
    assert (report["k"], report["n"]) == (k, n)
    if target == "equidistribution":
        assert report["expected"] == fuss_eulerian_catalan(k, n)
    else:
        # the flaw sets of S_{kn+k-1} with n descents: every one of them, once
        assert sum(e["census"] for e in report["entries"].values()) == eulerian(n, k * n + k - 1)


@pytest.mark.parametrize("argv", [
    # the flaw walk refuses k < 2 for the first two, spec_for_Pkn for the rest
    pytest.param(("verify", "equidistribution"), id="equidistribution"),
    pytest.param(("verify", "census-vs-volumes"), id="census-vs-volumes"),
    pytest.param(("verify", "subdivision"), id="subdivision"),
    pytest.param(("verify", "alcoved-vs-dyck"), id="alcoved-vs-dyck"),
    pytest.param(("volume", "--shape", "pkn"), id="volume-pkn"),
])
def test_verify_refuses_k_below_2(capsys, argv):
    assert run_cli(capsys, *argv, "--k", "1", "--n", "2") == \
        (2, "", "error: k must be >= 2\n")


def test_verify_reports_name_k(capsys):
    # every report is target, k, n and status around what its target measured
    for target, k, measured in [
        ("equidistribution", 3, {"census": {"0": 13, "1": 13}, "expected": 13}),
        ("census-vs-volumes", 3, {
            "entries": {"{}": {"census": 13, "volume": 13}, "{1}": {"census": 13, "volume": 13}},
            "mismatches": []}),
        ("alcoved-vs-dyck", 3, {"alcoved_count": 13, "dyck_count": 13, "expected": 13}),
        ("subdivision", 2, {
            "piece_volumes": [2, 2], "total_volume": 4, "hypersimplex_volume": 4,
            "expected_piece_volume": 2, "interior_hits": [2, 2], "failures": []}),
    ]:
        code, out, _ = run_cli(capsys, "verify", target, "--k", str(k), "--n", "1",
                               "--format", "json")
        assert code == 0 and json.loads(out) == {
            "target": target, "k": k, "n": 1, **measured, "status": "PASS"}
    code, out, _ = run_cli(capsys, "verify", "equidistribution", "--n", "1")
    assert code == 0 and out == ("PASS equidistribution\n  census: {'0': 2, '1': 2}\n"
                                 "  expected: 2\n  k: 2\n  n: 1\n")


def test_closed_stdout_exits_141_quietly():
    # like `eulercat verify ... | head -n 1`, with the reader gone before the first write
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "eulercat.cli", "verify", "census-vs-volumes", "--n", "2"],
            stdout=write_end, stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 141
    assert result.stderr == b""


def test_closed_stdout_exits_141_when_unbuffered():
    # like `eulercat eulerian-row --n 900 | head -c 10`: the reader leaves mid-write, and
    # with PYTHONUNBUFFERED the text layer would drop the rest of the short write(2)
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "eulercat.cli", "eulerian-row", "--n", "900"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(10) == b"m    count"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert stderr == b""


def test_overlapping_probe_exits_1(capsys, monkeypatch):
    # every probe point reads as interior to every piece
    monkeypatch.setattr(geometry, "_piece_memberships",
                        lambda spec, k, numerators: [True] * (spec.ambient_n // k))
    code, out, _ = run_cli(capsys, "verify", "subdivision", "--k", "2", "--n", "1",
                           "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "FAIL" and report["interior_hits"] == [0, 0]
    # one failure line per alcove of Delta(2, 4), none mirrored for the other piece, and
    # then the alcove count of each piece
    *points, count = report["failures"]
    assert len(points) == 4
    assert all(re.fullmatch(r"point \([0-9/, ]+\) lies in pieces \[0, 1\], not in exactly one", f)
               for f in points)
    assert count == "alcoves per piece [0, 0] != expected 2"


def test_probe_inside_two_loosened_pieces_exits_1(capsys, monkeypatch):
    # no true probe is inside two pieces, so loosen P_{2,2} to x_1 + x_2 <= 2 and
    # probe the alcove point of w = 2 4 3 5 1, which is inside pieces 0 and 2
    real = geometry.spec_for_Pkn

    def loosened(k, n, flipped=()):
        spec = real(k, n, flipped)
        first, *rest = spec.bounds
        return alcoved.AlcovedSpec(spec.ambient_n, spec.level_k,
                                   (first._replace(upper=first.upper + 1), *rest))

    monkeypatch.setattr(geometry, "spec_for_Pkn", loosened)
    monkeypatch.setattr(geometry, "_alcove_points",
                        lambda ambient_n, level_k, ranks: [(2, 2, 5, 2, 2, 5)])
    code, out, _ = run_cli(capsys, "verify", "subdivision", "--n", "2", "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert report["failures"] == [
        "piece volume 33 != expected 22",
        "point (1/3, 1/3, 5/6, 1/3, 1/3, 5/6) lies in pieces [0, 2], not in exactly one",
        "alcoves per piece [0, 0, 0] != expected 22",
    ]
    # a probe in two pieces is a hit in neither
    assert report["interior_hits"] == [0, 0, 0]


def test_uncovered_probe_exits_1(capsys, monkeypatch):
    # every probe point reads as outside every piece
    monkeypatch.setattr(geometry, "_piece_memberships",
                        lambda spec, k, numerators: [False] * (spec.ambient_n // k))
    code, out, _ = run_cli(capsys, "verify", "subdivision", "--k", "2", "--n", "1")
    assert code == 1 and out.startswith("FAIL subdivision")
    assert re.search(r"point \([0-9/, ]+\) lies in pieces \[\], not in exactly one", out)


def test_probes_all_in_one_piece_exit_1(capsys, monkeypatch):
    # every probe reads as inside piece 0 alone, so each is in exactly one piece; only
    # the count of every alcove of Delta(3, 6) shows the other pieces empty
    monkeypatch.setattr(geometry, "_piece_memberships",
                        lambda spec, k, numerators: [True] + [False] * (spec.ambient_n // k - 1))
    code, out, _ = run_cli(capsys, "verify", "subdivision", "--k", "2", "--n", "2",
                           "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert report["interior_hits"] == [66, 0, 0]
    assert report["failures"] == ["alcoves per piece [66, 0, 0] != expected 22"]


def test_hypersimplex_off_the_eulerian_number_exits_1(capsys, monkeypatch):
    # the volume of Delta(2, 4) one too high; P_{2,1}, which has bounds, is counted true
    real = geometry.ehrhart_volume

    def inflated(spec, band=None):
        record = real(spec, band)
        if not spec.bounds:
            record["normalized_volume"] += 1
        return record

    monkeypatch.setattr(geometry, "ehrhart_volume", inflated)
    code, out, _ = run_cli(capsys, "verify", "subdivision", "--k", "2", "--n", "1",
                           "--format", "json")
    assert code == 1
    assert json.loads(out)["failures"] == ["hypersimplex volume 5 != Eulerian number 4"]


def test_wrong_fuss_fails_only_the_checks_that_read_it(capsys, monkeypatch):
    # the hypersimplex is judged by its alcove count, and the probes rank the 4 alcoves
    # of Delta(2, 4), not the 6 a wrong fuss implies
    real = geometry.fuss_eulerian_catalan
    monkeypatch.setattr(geometry, "fuss_eulerian_catalan", lambda k, n: real(k, n) + 1)
    code, out, _ = run_cli(capsys, "verify", "subdivision", "--k", "2", "--n", "1",
                           "--format", "json")
    assert code == 1
    assert json.loads(out)["failures"] == [
        "piece volume 2 != expected 3", "alcoves per piece [2, 2] != expected 3"]


def test_census_off_its_volume_exits_1(capsys, monkeypatch):
    real = alcoved.exceedance_position_census

    def off_by_one(k, n):
        census = real(k, n)
        census[(1,)] += 1
        return census

    monkeypatch.setattr(alcoved, "exceedance_position_census", off_by_one)
    code, out, _ = run_cli(capsys, "verify", "census-vs-volumes", "--n", "2")
    assert code == 1 and out.startswith("FAIL census-vs-volumes")
    assert "  mismatches: ['{1}']\n" in out
    assert "'{1}': {'census': 12, 'volume': 11}" in out


def test_orbit_invariant_failure_exits_1(capsys, monkeypatch):
    # no step is a flaw, so every listed shift reads as exceedance 0
    monkeypatch.setattr(orbit, "is_flaw_step", lambda x, y, letter, k: False)
    assert run_cli(capsys, "orbit", "2", "4", "1", "5", "3") == (
        1, "", "error: internal invariant failed: "
               "exceedances [0, 0, 0] are not a permutation of 0..2\n")


def test_invariant_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(geometry, "eval_poly", lambda coeffs, x: -1)
    code, out, err = run_cli(capsys, "volume", "--shape", "pkn", "--k", "2", "--n", "1")
    assert code == 1
    assert out == ""
    assert err == ("error: internal invariant failed: h(-1) = -1/6, not 0: "
                   "a lattice-point count is wrong\n")


@pytest.mark.parametrize("planted,message", [
    ({3: (2, 1)}, "empty polytope: h(1) = 0"),
    ({3: (2, 2)}, "leading Ehrhart coefficient vanishes: polytope has dimension < 5"),
], ids=["empty", "flat"])
def test_empty_or_flat_polytope_from_a_cli_spec_exits_1(capsys, monkeypatch, planted, message):
    # every spec the CLI builds is full-dimensional and non-empty, so both refusals
    # are bugs there, not bad arguments: a crossed window, or an interior one of one sum
    real = geometry._windows
    monkeypatch.setattr(geometry, "_windows",
                        lambda spec: [planted.get(i, w) for i, w in enumerate(real(spec))])
    assert run_cli(capsys, "volume", "--shape", "pkn", "--k", "2", "--n", "2") == (
        1, "", f"error: internal invariant failed: {message}\n")


@pytest.mark.parametrize("planted,message", [
    (lambda real, band, t: 0 if t == 1 else real(band, t),
     "h(-1) = 210/1, not 0: a lattice-point count is wrong"),
    (lambda real, band, t: 1, "h(-1) = 1/1, not 0: a lattice-point count is wrong"),
    # h(-1) = 0 and h(0) = 1 hold, so only the volume's sign catches it
    (lambda real, band, t: 1 + t, "normalized volume 0 is not positive"),
], ids=["empty-at-1", "constant", "linear"])
def test_wrong_lattice_count_is_a_fault_not_a_degenerate_polytope(
        capsys, monkeypatch, planted, message):
    # the band already showed the polytope full-dimensional, so a count that reads it
    # empty or flat is an engine fault
    real = geometry.count_dilated_lattice_points
    monkeypatch.setattr(geometry, "count_dilated_lattice_points",
                        lambda band, t: planted(real, band, t))
    assert run_cli(capsys, "volume", "--shape", "pkn", "--k", "2", "--n", "2") == (
        1, "", f"error: internal invariant failed: {message}\n")


@pytest.mark.parametrize("shape", [("pkn", "--k", "2", "--n", "2"),
                                   ("hypersimplex", "--k", "16", "--n", "32")],
                         ids=["pkn", "hypersimplex"])
def test_lattice_count_scaled_at_every_dilation_prints_no_volume(capsys, monkeypatch, shape):
    # a count scaled at every t keeps h(-1) = 0, but the 0-fold dilate is one point
    plant_wrong_lattice_dp(monkeypatch)
    assert run_cli(capsys, "volume", "--shape", *shape) == (
        1, "", "error: internal invariant failed: h(0) = 2, not 1: "
               "a lattice-point count is wrong\n")


def test_wrong_lattice_count_prints_no_volume(capsys, monkeypatch):
    # the interpolant meets every h(0..d) it is given, wrong or not, so a value
    # known exactly is its guard: one count off by one at any dilation, h(0) too,
    # moves h(-1) off 0 and must exit 1
    real = geometry.count_dilated_lattice_points
    wrong = {}
    monkeypatch.setattr(geometry, "count_dilated_lattice_points",
                        lambda band, t: real(band, t) + wrong.get(t, 0))
    for shape, d in [(("pkn", "--k", "2", "--n", "3"), 7), (("pkn", "--k", "2", "--n", "2"), 5),
                     (("hypersimplex", "--k", "3", "--n", "6"), 5)]:
        for t in range(d + 1):
            for delta in (1, -1):
                wrong.clear()
                wrong[t] = delta
                code, out, err = run_cli(capsys, "volume", "--shape", *shape)
                assert (code, out) == (1, ""), (shape, t, delta)
                assert err.startswith("error: internal invariant failed: h(-1) = "), err


def test_indivisible_fuss_count_exits_1(capsys, monkeypatch):
    real = numbers.eulerian
    monkeypatch.setattr(numbers, "eulerian", lambda m, n: real(m, n) + 1)
    assert run_cli(capsys, "fuss", "--k", "2", "--n", "3") == (
        1, "", "error: internal invariant failed: fuss(2, 3): 2417 is not divisible by 4; "
               "this indicates a bug in the Eulerian alternating sum\n")


def test_indivisible_eulerian_catalan_number_exits_1(capsys, monkeypatch):
    real = numbers.eulerian_rows

    def raised_by_one(n, width):
        for half in real(n, width):
            yield [a + 1 for a in half]  # a copy: the walk reads its own half

    monkeypatch.setattr(numbers, "eulerian_rows", raised_by_one)
    code, out, err = run_cli(capsys, "ec", "--max-n", "2")
    assert (code, out) == (1, "")
    assert err == ("error: internal invariant failed: EC_1: 5 is not divisible by 2; "
                   "this indicates a bug in the Eulerian row walk\n")


def test_negative_volume_exits_1(capsys, monkeypatch):
    # h = 1, 1, 0 meets h(0) = 1 and h(-1) = 0, but 2! h(t) = 2 + t - t^2
    monkeypatch.setattr(geometry, "count_dilated_lattice_points",
                        lambda band, t: (1, 1, 0)[t])
    code, out, err = run_cli(capsys, "volume", "--shape", "hypersimplex", "--k", "1", "--n", "3")
    assert (code, out) == (1, "")
    assert err == "error: internal invariant failed: normalized volume -1 is not positive\n"


DIET_PROBE = """
import sys
from eulercat.cli import main
code = main(sys.argv[1:])
print(" ".join(sorted(sys.modules)), file=sys.stderr)
sys.exit(code)
"""

# no CLI process loads these; the strict parser and the JSON writer keep argparse and json,
# and with them re, enum, gettext and locale, off every argv that argparse would read alike
NEVER = {"typing", "__future__", "dataclasses", "fractions"}
ARGPARSE_AND_JSON = {"re", "enum", "argparse", "json", "gettext", "locale"}


@pytest.mark.parametrize("argv,absent", [
    (("catalan", "--max-n", "0", "--format", "json"),
     NEVER | ARGPARSE_AND_JSON | {"csv", "eulercat.orbit", "eulercat.alcoved",
                                  "eulercat.geometry", "eulercat.paths", "eulercat.permcore"}),
    (("census", "--n", "1"), NEVER | ARGPARSE_AND_JSON | {"eulercat.geometry", "eulercat.numbers"}),
    (("volume", "--shape", "pkn", "--k", "2", "--n", "2", "--format", "json"),
     NEVER | ARGPARSE_AND_JSON | {"decimal", "eulercat.orbit", "eulercat.paths",
                                  "eulercat.permcore"}),
    (("orbit", "2", "4", "1", "5", "3", "--format", "json"),
     NEVER | ARGPARSE_AND_JSON | {"eulercat.alcoved", "eulercat.geometry", "eulercat.numbers"}),
    (("verify", "subdivision", "--k", "2", "--n", "1", "--format", "json"),
     NEVER | ARGPARSE_AND_JSON | {"decimal", "eulercat.orbit", "eulercat.paths",
                                  "eulercat.permcore"}),
    # csv imports re and enum itself
    (("census", "--n", "1", "--format", "csv"),
     NEVER | ARGPARSE_AND_JSON - {"re", "enum"} | {"eulercat.geometry"}),
])
def test_subcommand_imports_only_what_it_runs(argv, absent):
    # a fresh interpreter without site, whose hooks may load typing or re before the CLI
    # runs; pytest itself has loaded dataclasses and fractions
    result = subprocess.run([sys.executable, "-S", "-c", DIET_PROBE, *argv],
                            capture_output=True, text=True)
    assert result.returncode == 0
    loaded = set(result.stderr.split())
    assert "eulercat.errors" in loaded
    # the subdivision probes unrank their alcoves and draw no random numbers
    assert "random" not in loaded
    assert loaded & absent == set()


def test_an_argv_the_strict_parser_defers_runs_argparse():
    # the = form is argparse's alone: the same answer, by the parser that the happy path skips
    argv = ("census", "--n=1", "--format", "json")
    result = subprocess.run([sys.executable, "-S", "-c", DIET_PROBE, *argv],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout == '[{"count": 2, "exceedance": 0}, {"count": 2, "exceedance": 1}]\n'
    assert "argparse" in set(result.stderr.split())


@pytest.mark.parametrize("argv,code,out,err", [
    (("census", "--n", "2", "--format", "csv"), 0, "exceedance,count\n0,22\n1,22\n2,22\n", ""),
    (("census", "--n", "31"), 3, "", CAP_REFUSAL),
], ids=["answer", "cap-refusal"])
def test_run_flushes_both_streams_before_os_exit(monkeypatch, argv, code, out, err):
    # run() ends the process by os._exit, which flushes nothing: both text layers here hold
    # what they are given until flushed, so each byte read at the exit was flushed by run()
    raw = {name: io.BytesIO() for name in ("stdout", "stderr")}
    for name, buffer in raw.items():
        monkeypatch.setattr(sys, name, io.TextIOWrapper(buffer, encoding="utf-8"))
    exits = []
    monkeypatch.setattr(os, "_exit", lambda status: exits.append(
        (status, raw["stdout"].getvalue().decode(), raw["stderr"].getvalue().decode())))
    monkeypatch.setattr(sys, "argv", ["eulercat", *argv])
    cli.run()
    assert exits == [(code, out, err)]


ODD_WORDS = ["-1", "-x", "x", "", " 3", "1_0", "\u0663", "2.0", "--", "-", "csv", "1,x", "-h"]


def option_value(kwargs):
    """The words that argparse reads as one valid value of an option."""
    if "choices" in kwargs:
        return st.sampled_from(kwargs["choices"])
    if kwargs.get("type") is int:
        return st.integers(0, 12).map(str)
    return st.sampled_from(["1", "2", "1,2", ""])


@st.composite
def command_argv(draw):
    """(argv, altered): a well-formed argv of one command, in any option order, and it
    may be altered in the ways that argparse reads otherwise, refuses or answers with help."""
    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    words, units = [], []
    for flag, kwargs in cli.COMMANDS[name][2]:
        if flag[0] != "-":
            words = draw(st.lists(option_value(kwargs), min_size=1,
                                  max_size=4 if "nargs" in kwargs else 1))
        elif "required" in kwargs or draw(st.booleans()):
            units.append([flag] if "action" in kwargs else [flag, draw(option_value(kwargs))])
    units = [list(unit) for unit in draw(st.permutations(units))]
    altered = draw(st.booleans())
    for _ in range(draw(st.integers(1, 3)) if altered else 0):
        kind = draw(st.sampled_from(["abbreviate", "equals", "repeat", "odd", "negative",
                                     "word", "help", "drop"] if units else ["word", "help"]))
        unit = draw(st.sampled_from(units)) if units else None
        where = draw(st.integers(0, len(units)))
        if kind == "abbreviate":
            unit[0] = unit[0][:draw(st.integers(0, max(len(unit[0]) - 1, 0)))]
        elif kind == "equals" and len(unit) == 2:
            unit[:] = [f"{unit[0]}={unit[1]}"]
        elif kind == "repeat":
            units.insert(where, [*unit[:1], *(draw(option_value({})) for _ in unit[1:])])
        elif kind == "odd" and len(unit) == 2:
            unit[1] = draw(st.sampled_from(ODD_WORDS) | st.text(max_size=3))
        elif kind == "negative" and len(unit) == 2:
            unit[1] = f"-{unit[1]}"
        elif kind == "word":
            units.insert(where, [draw(st.sampled_from(ODD_WORDS) | st.text(max_size=3))])
        elif kind == "help":
            units.insert(where, [draw(st.sampled_from(["-h", "--help"]))])
        elif kind == "drop":
            units.remove(unit)
    return [name, *words, *itertools.chain.from_iterable(units)], altered


@settings(max_examples=400)
@given(command_argv())
def test_strict_parser_gives_argparse_namespace_or_defers(case):
    argv, altered = case
    fast = cli._fast_parse(argv)
    fast = fast and vars(fast)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = vars(build_parser().parse_args(argv))
        except SystemExit:  # an error or help, which argparse alone writes
            parsed = None
    if not altered:  # the strict parser reads every well-formed argv itself
        assert fast is not None
    assert fast is None or fast == parsed


json_leaves = (st.none() | st.booleans() | st.integers() | st.integers(-10**400, 10**400)
               | st.text() | st.floats(allow_nan=False))
json_records = st.recursive(
    json_leaves, lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=20)


@given(json_records)
def test_json_writer_gives_json_dumps_bytes(record):
    assert cli.render_json(record) == json.dumps(record, sort_keys=True) + "\n"


@given(st.lists(st.text(), min_size=1, max_size=4, unique=True).flatmap(
    lambda headers: st.tuples(st.just(headers), st.lists(st.lists(
        json_leaves, min_size=len(headers), max_size=len(headers)), max_size=5))))
def test_json_table_gives_json_dumps_bytes(table):
    headers, rows = table
    assert cli.render_table(headers, rows, "json") == \
        json.dumps([dict(zip(headers, row)) for row in rows], sort_keys=True) + "\n"
