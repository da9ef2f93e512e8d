"""
Command-line front end.

Exit codes: 0 success, 1 a verification identity or an internal
invariant failed, 2 bad arguments or malformed input, 3 scale-cap
refusal, 141 stdout closed by its reader.  All results go to stdout,
diagnostics to stderr; identical invocations produce byte-identical
output.
"""
import argparse
import json
import os
import sys
from collections.abc import Sequence

from . import errors, numbers
from .errors import (WORK_CAP, Budget, DegenerateDimensionError, InvariantError,
                     ScaleCapError)

# Each handler imports the modules it runs, so a process loads only what its
# subcommand needs: start-up is a large share of every short command.

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_ARGS = 2
EXIT_SCALE_CAP = 3
EXIT_BROKEN_PIPE = 128 + 13  # as if killed by SIGPIPE


def render_table(headers: list[str], rows: list[list], fmt: str) -> str:
    if fmt == "json":
        records = [dict(zip(headers, row)) for row in rows]
        return json.dumps(records, sort_keys=True) + "\n"
    str_rows = [[str(cell) for cell in row] for row in rows]
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(str_rows)
        return buf.getvalue()
    widths = [
        max(len(h), *(len(r[c]) for r in str_rows)) if str_rows else len(h)
        for c, h in enumerate(headers)
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in str_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def render_json(record: dict) -> str:
    return json.dumps(record, sort_keys=True) + "\n"


TABLE = ["plain", "csv", "json"]
REPORT = ["plain", "json"]  # a report is no table, so no csv


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulercat",
        description="Exact Eulerian-Catalan counts, censuses, and polytope volumes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, formats=TABLE, capped=False):
        """A subcommand that runs `run(args)`; only a capped one takes --force."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--format", choices=formats, default="plain")
        if capped:
            p.add_argument("--force", action="store_true", help=(
                f"lift the work cap of {WORK_CAP} cells that the command's counts "
                "and volumes share"))
        p.set_defaults(run=run, force=False)  # an uncapped command fills no cells
        return p

    p = command("eulerian-row", _cmd_eulerian_row, "one row of the Eulerian triangle")
    p.add_argument("--n", type=int, required=True)

    p = command("ec", _cmd_ec, "Eulerian-Catalan numbers EC_0..EC_max")
    p.add_argument("--max-n", type=int, required=True)

    p = command("fuss", _cmd_fuss, "the Fuss-type count A(n, kn+k-1)/(n+1)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = command("catalan", _cmd_catalan, "Catalan numbers C_0..C_max")
    p.add_argument("--max-n", type=int, required=True)

    p = command("dyck-count", _cmd_dyck_count, "(k-1)-Dyck permutation count", capped=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=2)

    p = command("census", _cmd_census, "exceedance census of S_{2n+1} with n descents",
                capped=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--by-position", action="store_true",
                   help="bucket by the exact set of exceedance positions")

    p = command("orbit", _cmd_orbit, "cyclic-orbit certificate for one permutation", REPORT)
    p.add_argument("word", type=int, nargs="+", metavar="W")

    p = command("volume", _cmd_volume, "exact normalized volume via Ehrhart counting",
                capped=True)
    p.add_argument("--shape", choices=["hypersimplex", "pkn", "p2n"], required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--flip",
                   help="comma-separated flip set T of P_{k,n}(T) for --shape pkn or p2n, "
                        "e.g. 1,2")

    p = command("verify", _cmd_verify, "run a cross-verification identity", REPORT,
                capped=True)
    p.add_argument("target", choices=list(_VERIFY))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=2)

    return parser


def _cmd_eulerian_row(args) -> tuple[int, str]:
    rows = [[m, count] for m, count in enumerate(numbers.eulerian_row(args.n))]
    return EXIT_OK, render_table(["m", "count"], rows, args.format)


def _cmd_ec(args) -> tuple[int, str]:
    rows = [[n, ec] for n, ec in enumerate(numbers.eulerian_catalan_upto(args.max_n))]
    return EXIT_OK, render_table(["n", "ec"], rows, args.format)


def _cmd_fuss(args) -> tuple[int, str]:
    rows = [[args.k, args.n, numbers.fuss_eulerian_catalan(args.k, args.n)]]
    return EXIT_OK, render_table(["k", "n", "count"], rows, args.format)


def _cmd_catalan(args) -> tuple[int, str]:
    if args.max_n < 0:
        raise ValueError("max_n must be >= 0")
    rows = [[n, numbers.catalan(n)] for n in range(args.max_n + 1)]
    return EXIT_OK, render_table(["n", "catalan"], rows, args.format)


def _cmd_dyck_count(args) -> tuple[int, str]:
    from . import orbit

    count = orbit.count_dyck_permutations(args.k, args.n)
    rows = [[args.n, args.k, count]]
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
    if args.shape == "hypersimplex":
        spec = alcoved.spec_for_hypersimplex(k, args.n)
    else:
        spec = alcoved.spec_for_Pkn(k, args.n, _parse_flip(args.flip or ""))
    ehrhart = geometry.ehrhart_volume(spec)
    if args.format == "json":
        return EXIT_OK, render_json({"spec": spec.to_json_dict(), "ehrhart": ehrhart})
    rows = [[args.shape, ehrhart["dimension"], ehrhart["normalized_volume"]]]
    return EXIT_OK, render_table(["shape", "dimension", "volume"], rows, args.format)


def _verify_equidistribution(args) -> tuple[bool, dict]:
    from . import orbit

    census = orbit.equidistribution_census(args.k, args.n)
    expected = numbers.fuss_eulerian_catalan(args.k, args.n)
    ok = all(count == expected for count in census.values())
    return ok, {"census": {str(j): c for j, c in sorted(census.items())}, "expected": expected}


def _verify_subdivision(args) -> tuple[bool, dict]:
    from . import geometry

    return geometry.verify_subdivision(args.k, args.n)


def _verify_alcoved_vs_dyck(args) -> tuple[bool, dict]:
    from . import alcoved, orbit

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
    entries = {}
    mismatches = []
    for T, count in census.items():
        spec = alcoved.spec_for_Pkn(args.k, args.n, T)
        volume = geometry.ehrhart_volume(spec)["normalized_volume"]
        entries[alcoved.subset_key(T)] = {"census": count, "volume": volume}
        if count != volume:
            mismatches.append(alcoved.subset_key(T))
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
    lines = [f"{report['status']} {args.target}\n"]
    lines += [f"  {key}: {report[key]}\n" for key in sorted(report)
              if key not in ("status", "target")]
    return code, "".join(lines)


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
    args = build_parser().parse_args(argv)
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
    except ScaleCapError as exc:
        print(f"error: {exc}; pass --force to proceed", file=sys.stderr)
        return EXIT_SCALE_CAP
    except (InvariantError, DegenerateDimensionError) as exc:
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


if __name__ == "__main__":
    sys.exit(main())
