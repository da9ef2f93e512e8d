"""
Command-line front end.

Exit codes: 0 success, 1 a verification identity or an internal
invariant failed, 2 bad arguments or malformed input, 3 scale-cap
refusal, 141 stdout closed by its reader.  All results go to stdout,
diagnostics to stderr; identical invocations produce byte-identical
output.

COMMANDS feeds a strict parser and argparse, which reads every argv the
strict one defers, so argparse alone writes usage, help and errors; with a
JSON writer for the records, a command that succeeds loads neither of them.
Each handler imports the modules it runs: start-up is most of a short command.
"""
import os
import sys
from collections.abc import Sequence
from types import SimpleNamespace

from . import errors
from .errors import WORK_CAP, Budget

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_ARGS = 2
EXIT_SCALE_CAP = 3
EXIT_BROKEN_PIPE = 128 + 13  # as if killed by SIGPIPE


def _json(value) -> str:
    """json.dumps(value, sort_keys=True) for a record; what this does not write, json does."""
    if type(value) is int:  # not a bool, whose json is not its str
        return str(value)
    if type(value) is str and value.isascii() and value.isprintable() \
            and '"' not in value and "\\" not in value:
        return f'"{value}"'
    if type(value) is list:
        return "[" + ", ".join(map(_json, value)) + "]"
    if type(value) is dict and set(map(type, value)) <= {str}:
        return "{" + ", ".join(f"{_json(k)}: {_json(value[k])}" for k in sorted(value)) + "}"
    if value is None:
        return "null"
    import json

    return json.dumps(value, sort_keys=True)


def render_table(headers: list[str], rows: list[list], fmt: str) -> str:
    if fmt == "json":
        cols = sorted(range(len(headers)), key=headers.__getitem__)
        keys = [_json(headers[c]).replace("%", "%%") + ": %s" for c in cols]  # sort_keys order
        record = "{%s}" % ", ".join(keys)  # one template for every row
        records = [record % tuple([_json(row[c]) for c in cols]) for row in rows]
        return "[%s]\n" % ", ".join(records)
    str_rows = [list(map(str, row)) for row in rows]
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([headers, *str_rows])
        return buf.getvalue()
    widths = [max(map(len, column)) for column in zip(headers, *str_rows)]
    return "".join(["  ".join(map(str.ljust, row, widths)).rstrip() + "\n"
                    for row in [headers, *str_rows]])


def render_json(record: dict) -> str:
    return _json(record) + "\n"


def _cmd_eulerian_row(args) -> tuple[int, str]:
    from . import numbers
    rows = [[m, count] for m, count in enumerate(numbers.eulerian_row(args.n))]
    return EXIT_OK, render_table(["m", "count"], rows, args.format)


def _cmd_ec(args) -> tuple[int, str]:
    from . import numbers
    rows = [[n, ec] for n, ec in enumerate(numbers.eulerian_catalan_upto(args.max_n))]
    return EXIT_OK, render_table(["n", "ec"], rows, args.format)


def _cmd_fuss(args) -> tuple[int, str]:
    from . import numbers
    rows = [[args.k, args.n, numbers.fuss_eulerian_catalan(args.k, args.n)]]
    return EXIT_OK, render_table(["k", "n", "count"], rows, args.format)


def _cmd_catalan(args) -> tuple[int, str]:
    from . import numbers
    if args.max_n < 0:
        raise ValueError("max_n must be >= 0")
    rows = [[n, numbers.catalan(n)] for n in range(args.max_n + 1)]
    return EXIT_OK, render_table(["n", "catalan"], rows, args.format)


def _cmd_dyck_count(args) -> tuple[int, str]:
    from . import orbit

    rows = [[args.n, args.k, orbit.count_dyck_permutations(args.k, args.n)]]
    return EXIT_OK, render_table(["n", "k", "count"], rows, args.format)


def _cmd_census(args) -> tuple[int, str]:
    if args.by_position:
        from . import alcoved

        census = alcoved.exceedance_position_census(2, args.n)
        rows = [[alcoved.subset_key(T), count] for T, count in census.items()]
        return EXIT_OK, render_table(["positions", "count"], rows, args.format)
    from . import orbit

    census = orbit.equidistribution_census(2, args.n)
    rows = [[j, count] for j, count in sorted(census.items())]
    return EXIT_OK, render_table(["exceedance", "count"], rows, args.format)


def _cmd_orbit(args) -> tuple[int, str]:
    from . import orbit

    cert = orbit.analyze_orbit(args.word)
    if args.format == "json":
        return EXIT_OK, render_json(cert)
    rows = [[s["start"], s["permutation"], s["exceedance"]] for s in cert["shifts"]]
    table = render_table(["start", "shift", "exceedance"], rows, "plain")
    return EXIT_OK, f"case: {cert['case']}\n{table}"


def _parse_flip(text: str) -> frozenset[int]:
    if not text.strip():
        return frozenset()
    try:
        return frozenset(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse flip set {text!r}") from exc


def _cmd_volume(args) -> tuple[int, str]:
    from . import alcoved, geometry

    k = args.k
    if args.shape == "p2n":  # a second spelling of pkn at k = 2
        if k is not None:
            raise ValueError("--k does not apply to --shape p2n (k is 2)")
        k = 2
    if args.shape == "hypersimplex" and args.flip is not None:
        raise ValueError("--flip does not apply to --shape hypersimplex")
    if k is None:
        raise ValueError(f"--k is required for --shape {args.shape}")
    spec = (alcoved.spec_for_hypersimplex(k, args.n) if args.shape == "hypersimplex"
            else alcoved.spec_for_Pkn(k, args.n, _parse_flip(args.flip or "")))
    ehrhart = geometry.ehrhart_volume(spec)
    if args.format == "json":
        return EXIT_OK, render_json({"spec": spec.to_json_dict(), "ehrhart": ehrhart})
    rows = [[args.shape, ehrhart["dimension"], ehrhart["normalized_volume"]]]
    return EXIT_OK, render_table(["shape", "dimension", "volume"], rows, args.format)


def _verify_equidistribution(args) -> tuple[bool, dict]:
    from . import numbers, orbit

    census = orbit.equidistribution_census(args.k, args.n)
    expected = numbers.fuss_eulerian_catalan(args.k, args.n)
    ok = all(count == expected for count in census.values())
    return ok, {"census": {str(j): c for j, c in sorted(census.items())}, "expected": expected}


def _verify_subdivision(args) -> tuple[bool, dict]:
    from . import geometry

    return geometry.verify_subdivision(args.k, args.n)


def _verify_alcoved_vs_dyck(args) -> tuple[bool, dict]:
    from . import alcoved, numbers, orbit

    spec = alcoved.spec_for_Pkn(args.k, args.n)
    via_paths = orbit.count_dyck_permutations(args.k, args.n)
    via_alcoves = alcoved.w_set_count(spec)
    # both counts are rules of one walk, so the closed form, which runs none, judges them
    expected = numbers.fuss_eulerian_catalan(args.k, args.n)
    ok = via_alcoves == via_paths == expected
    return ok, {"alcoved_count": via_alcoves, "dyck_count": via_paths, "expected": expected}


def _verify_census_vs_volumes(args) -> tuple[bool, dict]:
    from . import alcoved, geometry

    if args.n < 1:
        raise ValueError("n must be >= 1")  # P_{k,0}(T) is no polytope
    census = alcoved.exceedance_position_census(args.k, args.n)
    records = geometry.ehrhart_volumes([alcoved.spec_for_Pkn(args.k, args.n, T) for T in census])
    entries = {alcoved.subset_key(T): {"census": count, "volume": record["normalized_volume"]}
               for (T, count), record in zip(census.items(), records)}
    mismatches = [key for key, entry in entries.items() if entry["census"] != entry["volume"]]
    return not mismatches, {"entries": entries, "mismatches": mismatches}


_VERIFY = {
    "equidistribution": _verify_equidistribution,
    "subdivision": _verify_subdivision,
    "alcoved-vs-dyck": _verify_alcoved_vs_dyck,
    "census-vs-volumes": _verify_census_vs_volumes,
}


def _cmd_verify(args) -> tuple[int, str]:
    """The one place that frames a report: each target returns (ok, what it measured)."""
    ok, measured = _VERIFY[args.target](args)
    report = {"target": args.target, "k": args.k, "n": args.n, **measured,
              "status": "PASS" if ok else "FAIL"}
    code = EXIT_OK if ok else EXIT_VERIFY_FAILED
    if args.format == "json":
        return code, render_json(report)
    return code, f"{report['status']} {args.target}\n" + "".join(
        f"  {key}: {report[key]}\n" for key in sorted(report) if key not in ("status", "target"))


REPORT = ["plain", "json"]  # a report is no table, so no csv
INT = {"type": int, "required": True}
K, N, MAX_N = ("--k", {"type": int, "default": 2}), ("--n", INT), ("--max-n", INT)


def _command(run, help, options, formats=("plain", "csv", "json"), capped=False):
    """A subcommand that runs `run(args)`; only a capped one takes --force."""
    force = ("--force", {"action": "store_true", "default": False, "help": (
        f"lift the work cap of {WORK_CAP} cells that the command's counts and volumes share")})
    return run, help, [("--format", {"choices": formats, "default": "plain"}),
                       *([force] if capped else []), *options]


COMMANDS = {
    "eulerian-row": _command(_cmd_eulerian_row, "one row of the Eulerian triangle", [N]),
    "ec": _command(_cmd_ec, "Eulerian-Catalan numbers EC_0..EC_max", [MAX_N]),
    "fuss": _command(_cmd_fuss, "the Fuss-type count A(n, kn+k-1)/(n+1)", [("--k", INT), N]),
    "catalan": _command(_cmd_catalan, "Catalan numbers C_0..C_max", [MAX_N]),
    "dyck-count": _command(_cmd_dyck_count, "(k-1)-Dyck permutation count", [N, K], capped=True),
    "census": _command(_cmd_census, "exceedance census of S_{2n+1} with n descents", [N, (
        "--by-position", {"action": "store_true", "default": False, "help": (
            "bucket by the exact set of exceedance positions")})], capped=True),
    "orbit": _command(_cmd_orbit, "cyclic-orbit certificate for one permutation",
                      [("word", {"type": int, "nargs": "+", "metavar": "W"})], REPORT),
    "volume": _command(_cmd_volume, "exact normalized volume via Ehrhart counting", [
        ("--shape", {"choices": ["hypersimplex", "pkn", "p2n"], "required": True}),
        ("--k", {"type": int}), N, ("--flip", {"help": (
            "comma-separated flip set T of P_{k,n}(T) for --shape pkn or p2n, e.g. 1,2")})],
        capped=True),
    "verify": _command(_cmd_verify, "run a cross-verification identity",
                       [("target", {"choices": list(_VERIFY)}), N, K], REPORT, capped=True),
}


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(prog="eulercat", description=(
        "Exact Eulerian-Catalan counts, censuses, and polytope volumes"))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, help, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(run=run, force=False)  # an uncapped command fills no cells
    return parser


def _fast_parse(argv: Sequence[str]) -> SimpleNamespace | None:
    """build_parser().parse_args(argv), or None where argparse might read argv otherwise or
    print: the command, its positional words, then exact options once, no value like `-x`."""
    if not argv or argv[0] not in COMMANDS:
        return None
    run, _, options = COMMANDS[argv[0]]
    args, named, groups = {"command": argv[0], "run": run, "force": False}, dict(options), []
    for flag, kwargs in options:
        args[flag.lstrip("-").replace("-", "_")] = kwargs.get("default")
    # each option with the words up to the next one; the positional's words come first
    for token in [*(flag for flag in named if flag[0] != "-"), *argv[1:]]:
        if token[:1] == "-" or not groups:
            groups.append([token, []])
        else:
            groups[-1][1].append(token)
    for flag, texts in groups:
        kwargs = named.pop(flag, None)  # popped, so a repeat defers
        # a store_true takes no word, the positional of nargs "+" any, the rest one
        if kwargs is None or ("action" in kwargs) == bool(texts) \
                or len(texts) > 1 and "nargs" not in kwargs:
            return None
        try:  # as argparse, whose type=int calls int()
            values = list(map(kwargs.get("type", str), texts))
        except ValueError:
            return None
        if not set(values) <= set(kwargs.get("choices", values)):
            return None
        dest = flag.lstrip("-").replace("-", "_")
        args[dest] = values if "nargs" in kwargs else values[0] if values else True
    return None if any("required" in kw for kw in named.values()) else SimpleNamespace(**args)


def _write_stdout(text: str) -> None:
    """Write every byte of text, so that a closed reader raises BrokenPipeError here."""
    # under PYTHONUNBUFFERED the text layer writes straight to the raw file and
    # drops what a short write(2) leaves over, so write the bytes until all are out,
    # after whatever the text layer still holds
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
    while data:
        data = data[sys.stdout.buffer.write(data):]
    sys.stdout.buffer.flush()


def main(argv: Sequence[str] | None = None) -> int:
    args = _fast_parse(sys.argv[1:] if argv is None else argv) or build_parser().parse_args(argv)
    # both settings last one command: an answer may have any number of digits (argv was
    # read under the limit), and every engine call of the command charges one budget
    limit, budget = sys.get_int_max_str_digits(), errors.budget
    try:
        errors.budget = Budget(None if args.force else WORK_CAP)
        sys.set_int_max_str_digits(0)
        code, text = args.run(args)
        _write_stdout(text)
        return code
    except BrokenPipeError:
        # the reader has gone: end quietly, and leave nothing for the exit-time flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except errors.ScaleCapError as exc:
        print(f"error: {exc}; pass --force to proceed", file=sys.stderr)
        return EXIT_SCALE_CAP
    except (errors.InvariantError, errors.DegenerateDimensionError) as exc:
        # every spec the CLI builds is full-dimensional and non-empty, so an empty or
        # flat polytope here is a bug, not bad input
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    finally:
        sys.set_int_max_str_digits(limit)
        errors.budget = budget


def run() -> None:
    """The process entry: main, both streams flushed, then os._exit, which skips teardown."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
