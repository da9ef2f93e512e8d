"""
Run one eulercat CLI command with the package's public functions timed.

Usage: PYTHONPATH=src python3 perfbench/traced_cli.py TRACE.json ARGS...

ARGS are passed to eulercat.cli.main unchanged, so stdout and the exit
code are the command's own.  Each public function of the traced modules
is rebound to a timing wrapper, in its own module and wherever another
eulercat module imported it by name.  Functions called once per
permutation (the `paths` and `permcore` modules) are kept as a call
count plus total and self time; every other call is also kept as a span
(id, parent id, name, start, end).  Everything stays in memory until the
command ends and is then written to TRACE.json.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

MODULES = ("cli", "numbers", "orbit", "alcoved", "paths", "permcore", "geometry")
AGGREGATED = frozenset({"paths", "permcore"})


class Tracer:
    def __init__(self):
        self.stack = []  # one [span id, seconds spent in traced callees] per open call
        self.spans = []
        self.totals = {}  # name -> [calls, seconds, self seconds]
        self.last_id = 0

    def wrap(self, name, fn, aggregated):
        stack, spans, totals = self.stack, self.spans, self.totals

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            if aggregated:
                span_id = parent
            else:
                self.last_id += 1
                span_id = self.last_id
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                total = totals.get(name)
                if total is None:
                    total = totals[name] = [0, 0.0, 0.0]
                total[0] += 1
                total[1] += elapsed
                total[2] += elapsed - frame[1]
                if not aggregated:
                    spans.append((span_id, parent, name, start, end))

        return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap every public function of MODULES; return the names wrapped."""
    wrappers = {}  # id(original) -> (original, wrapper)
    names = []
    for short in MODULES:
        try:
            module = importlib.import_module(f"eulercat.{short}")
        except ImportError:
            continue
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            names.append(f"{short}.{attr}")
            wrappers[id(obj)] = (obj, tracer.wrap(names[-1], obj, short in AGGREGATED))
    for name, module in list(sys.modules.items()):
        if name != "eulercat" and not name.startswith("eulercat."):
            continue
        for attr, obj in list(vars(module).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])

    cli = sys.modules["eulercat.cli"]
    build_parser = getattr(cli, "build_parser", None)
    if build_parser is not None:
        # argparse is the cli layer's parsing cost; time it as cli.parse_args
        def traced_build_parser(*args, **kwargs):
            parser = build_parser(*args, **kwargs)
            parser.parse_args = tracer.wrap("cli.parse_args", parser.parse_args, False)
            return parser
        cli.build_parser = traced_build_parser
        names.append("cli.parse_args")
    return sorted(names)


def nested_self(spans, outer: str, inner: str) -> float:
    """Seconds in `outer` spans minus the `inner` spans they enclose."""
    by_id = {span[0]: span for span in spans}
    total = sum(end - start for _, _, name, start, end in spans if name == outer)
    for _, parent, name, start, end in spans:
        if name != inner:
            continue
        while parent is not None:
            if by_id[parent][2] == outer:
                total -= end - start
                break
            parent = by_id[parent][1]
    return total


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import eulercat.cli
    import_s = perf_counter() - start

    tracer = Tracer()
    functions = install(tracer)
    try:
        code = eulercat.cli.main(argv)
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code
    sys.stdout.flush()

    record = {
        "import_s": import_s,
        "functions": functions,
        "totals": tracer.totals,
        "subdivision_self_s": nested_self(
            tracer.spans, "geometry.verify_subdivision", "geometry.ehrhart_volume"),
        "spans": tracer.spans,
    }
    with open(out_path, "w") as fh:
        json.dump(record, fh)
    return code if isinstance(code, int) else 1


if __name__ == "__main__":
    sys.exit(main())
