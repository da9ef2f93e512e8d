#!/usr/bin/env python3
"""
End-to-end and per-layer benchmark of the eulercat command line.

Run from the repository root:

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

Each command of a workload runs as a fresh `python -m eulercat.cli ...
--format json` process with PYTHONPATH=src, one at a time (a closed loop
with one client), and its answer is checked against checks.py.  A run
repeats the workload's command list, with a burst of O(1) start-up
probes before each pass, until --seconds are used.  It reports each
command's fastest pass, summed over the list, and the median set-up
time.  With --trace 1 it alternates plain passes with passes whose
commands run under traced_cli.py, and reports per-module times and call
counts instead.  The last line of stdout is one JSON object; the full
record, spans of the last traced pass included, goes to perfbench/out/.
See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
CHILD_TRACE = os.path.join(OUT_DIR, "child-trace.json")
CLI = (sys.executable, "-m", "eulercat.cli")
TRACED_CLI = (sys.executable, os.path.join(HERE, "traced_cli.py"), CHILD_TRACE)

SETUP_BURST = 3  # start-up probes run back to back before each pass
HARD_LIMIT_S = 150.0  # kill whatever still runs then, so a run ends well within 180 s
MODULES = ("cli", "numbers", "orbit", "alcoved", "paths", "permcore", "geometry")


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    maxrss_mib: float
    error: str | None
    trace: dict | None = None


@dataclass
class Pass:
    """One run of the command list; walls and cpus are per command, in order."""

    walls: list[float] = field(default_factory=list)
    cpus: list[float] = field(default_factory=list)
    peak_rss_mib: float = 0.0
    errors: list[str] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.walls)

    def add(self, command: checks.Command, outcome: Outcome) -> None:
        self.walls.append(outcome.wall_s)
        self.cpus.append(outcome.cpu_s)
        self.peak_rss_mib = max(self.peak_rss_mib, outcome.maxrss_mib)
        if outcome.error:
            self.errors.append(f"{' '.join(command.args)}: {outcome.error}")
        if outcome.trace is not None:
            self.traces.append(outcome.trace)


class Runner:
    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.attempted = 0
        self.failed = 0

    def _spawn(self, argv) -> tuple[float, int, bytes, bytes, os.struct_rusage]:
        """Run argv to completion; resources come from wait4 on this child alone."""
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        chunks = {proc.stdout: [], proc.stderr: []}
        killed = False
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                remaining = self.deadline - perf_counter()
                if remaining <= 0 and not killed:
                    proc.kill()
                    killed = True
                for key, _ in sel.select(max(remaining, 0.1)):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        code = -1 if killed else proc.returncode
        return wall, code, b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]), usage

    def run(self, command: checks.Command, traced: bool = False) -> Outcome:
        self.attempted += 1
        if traced and os.path.exists(CHILD_TRACE):
            os.remove(CHILD_TRACE)
        argv = (TRACED_CLI if traced else CLI) + command.args + ("--format", "json")
        wall, code, stdout, stderr, usage = self._spawn(argv)
        error = judge(command, code, stdout, stderr)
        trace = None
        if traced and error is None:
            try:
                with open(CHILD_TRACE) as fh:
                    trace = json.load(fh)
                os.remove(CHILD_TRACE)
            except (OSError, ValueError) as exc:
                error = f"no trace record: {exc}"
        if error:
            self.failed += 1
        return Outcome(wall, usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss / 1024, error, trace)

    def run_pass(self, commands, traced: bool = False) -> Pass:
        result = Pass()
        for command in commands:
            result.add(command, self.run(command, traced))
        return result


def judge(command: checks.Command, code: int, stdout: bytes, stderr: bytes) -> str | None:
    if code != 0:
        # a failed identity prints its witness on stdout, a crash on stderr
        tail = (stderr or stdout).decode(errors="replace").strip().splitlines()[-1:]
        return f"exit code {code} {tail}"
    try:
        out = json.loads(stdout)
        return command.check(out)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"malformed output: {exc!r}"


# ------------------------------------------------------------ per-layer

# (metric, functions it sums, field: 0 calls, 1 seconds including callees)
FUNCTION_METRICS = (
    ("cli.parse_s", ("cli.build_parser", "cli.parse_args"), 1),
    ("cli.render_s", ("cli.render_table", "cli.render_json"), 1),
    ("orbit.census_s", ("orbit.equidistribution_census",), 1),
    ("orbit.dyck_s", ("orbit.count_dyck_permutations",), 1),
    ("orbit.certificate_s", ("orbit.analyze_orbit",), 1),
    ("alcoved.w_set_s", ("alcoved.w_set_count",), 1),
    ("alcoved.position_census_s", ("alcoved.exceedance_position_census",), 1),
    ("geometry.dp_calls", ("geometry.count_dilated_lattice_points",), 0),
    ("geometry.dp_s", ("geometry.count_dilated_lattice_points",), 1),
    ("geometry.interp_s", ("geometry.interpolate_at_integers", "geometry.eval_poly"), 1),
)


def pass_layers(traces: list[dict]) -> tuple[dict, dict]:
    """Per-layer values of one traced pass, and the metrics it cannot give."""
    totals = defaultdict(lambda: [0, 0.0, 0.0])
    found: set[str] = set()
    subdivision_self = 0.0
    for trace in traces:
        found.update(trace["functions"])
        subdivision_self += trace["subdivision_self_s"]
        for name, (calls, seconds, self_seconds) in trace["totals"].items():
            t = totals[name]
            t[0] += calls
            t[1] += seconds
            t[2] += self_seconds
    values, missing = {}, {}

    def absent(metric, names) -> bool:
        gone = [n for n in names if n not in found]
        if gone:
            missing[metric] = "function not found: " + ", ".join(gone)
        return bool(gone)

    for module in MODULES:
        names = [n for n in found if n.startswith(module + ".")]
        for metric, index in ((f"{module}.calls", 0), (f"{module}.self_s", 2)):
            if metric == "cli.calls":
                continue
            if names:
                values[metric] = sum(totals[n][index] for n in names)
            else:
                missing[metric] = f"module eulercat.{module} not found"
    for metric, names, index in FUNCTION_METRICS:
        if not absent(metric, names):
            values[metric] = sum(totals[n][index] for n in names)
    if not absent("geometry.subdivision_self_s",
                  ("geometry.verify_subdivision", "geometry.ehrhart_volume")):
        values["geometry.subdivision_self_s"] = subdivision_self
    return values, missing


def best_sum(passes: list[Pass], field_name: str) -> float:
    """Each command's fastest time over the passes, summed over the list.

    Other tenants of the machine only ever add time to a command, so the
    per-command minimum is the steadiest estimate of the program's own cost.
    """
    columns = zip(*(getattr(p, field_name) for p in passes))
    return sum(min(column) for column in columns)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mib"):
        return "MiB"
    if metric.endswith("calls"):
        return "count"
    return "ratio"


# ------------------------------------------------------------ runs


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    commands = checks.build(name, seed)
    start = perf_counter()
    runner = Runner(start + HARD_LIMIT_S)
    probe = checks.setup_probe()
    warm = runner.run(probe)  # fills the bytecode cache; not timed
    if warm.error:
        raise RuntimeError(f"the CLI does not start: {warm.error}")
    setup, plain, traced = [], [], []
    while True:
        if trace:
            plain.append(runner.run_pass(commands))
            traced.append(runner.run_pass(commands, traced=True))
        else:
            # one set-up sample per pass: the fastest start-up of a short burst
            setup.append(min(runner.run(probe).wall_s for _ in range(SETUP_BURST)))
            plain.append(runner.run_pass(commands))
        elapsed = perf_counter() - start
        cycle = elapsed / len(plain)
        if elapsed + cycle > seconds or elapsed + 2 * cycle > HARD_LIMIT_S:
            break

    errors = [e for p in plain + traced for e in p.errors]
    if trace:
        per_pass = [pass_layers(p.traces) for p in traced]
        metrics = {
            metric: statistics.median(values[metric] for values, _ in per_pass)
            for metric in per_pass[0][0]
        }
        missing = per_pass[0][1]
        imports = [t["import_s"] for p in traced for t in p.traces]
        if imports:
            metrics["cli.import_s"] = statistics.median(imports)
        else:
            missing["cli.import_s"] = "no traced command succeeded"
        metrics["trace.overhead_ratio"] = best_sum(traced, "walls") / best_sum(plain, "walls")
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": best_sum(plain, "walls"),
            "cpu_s": best_sum(plain, "cpus"),
            "peak_rss_mib": statistics.median(p.peak_rss_mib for p in plain),
            "pass_ratio": 1 - runner.failed / runner.attempted,
        }
        missing = {}
    return {
        "meta": meta(name, seed, seconds, trace),
        "passes": {"plain": len(plain), "traced": len(traced), "setup_bursts": len(setup)},
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m: {"value": v, "unit": unit_of(m)}
                    for m, v in sorted(metrics.items())},
        "missing": missing,
        "errors": errors,
        "samples": {
            "setup_s": setup,
            "commands": [" ".join(c.args) for c in commands],
            "wall_s": [p.walls for p in plain],
            "cpu_s": [p.cpus for p in plain],
            "traced_wall_s": [p.walls for p in traced],
        },
        "last_traced_pass": traced[-1].traces if traced else [],
    }


def meta(name: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
    }


def commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def self_check() -> int:
    """One plain and one traced pass per workload, answers checked."""
    ok = True
    for name in checks.WORKLOADS:
        runner = Runner(perf_counter() + HARD_LIMIT_S)
        commands = checks.build(name, 0)
        plain = runner.run_pass(commands)
        traced = runner.run_pass(commands, traced=True)
        _, missing = pass_layers(traced.traces)
        errors = plain.errors + traced.errors
        ok = ok and not errors
        print(f"{name}: {len(commands)} commands, wall {plain.wall_s:.2f} s, "
              f"traced {traced.wall_s:.2f} s, peak {plain.peak_rss_mib:.0f} MiB, "
              f"{len(errors)} failed, {len(missing)} per-layer metrics missing")
        for line in errors:
            print(f"  FAIL {line}")
        for metric, reason in sorted(missing.items()):
            print(f"  missing {metric}: {reason}")
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0].strip())
    parser.add_argument("--workload", choices=sorted(checks.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="one pass per workload, to test the harness and its checks")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "eulercat", "cli.py")):
        print(f"error: no eulercat sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print("meta " + json.dumps(record["meta"], sort_keys=True))
    print("passes " + json.dumps(record["passes"], sort_keys=True))
    for metric, reason in sorted(record["missing"].items()):
        print(f"missing {metric}: {reason}")
    for line in record["errors"]:
        print(f"FAIL {line}")
    for metric, m in record["metrics"].items():
        print(f"{metric} {m['value']:.6g} {m['unit']}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
