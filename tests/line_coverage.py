"""
Line coverage of src/eulercat under the tier-1 suite, by the stdlib tracer.

    python tests/line_coverage.py

Runs tier-1 in this process under sys.settrace, with Hypothesis derandomized
(the same examples every run) and without deadlines (tracing slows every
test), and records each line of src/eulercat that gets a line event.  The
lines to run are those that hold bytecode, read off the line table of each
code object that compiling the file gives (co_lines()), so every line of a
multi-line statement that holds code must run.  A docstring of a function or
class, an `else:` or a closing bracket holds none.  The model is CPython
3.11's line table: a later CPython inlines comprehensions into their
function, which moves their lines to another scope.

Exit status: pytest's, if a test fails; otherwise 1 if a line never ran and
ALLOWED does not name it, or ALLOWED names a line that ran or is gone;
otherwise 0.  pytest does not collect this file.
"""
import os
import sys
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "eulercat"

# (scope, text of the line) -> why no in-process test runs it
ALLOWED = {
    ("cli.main", "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())"):
        "only a reader that closes stdout mid-write reaches it; test_cli runs that in a subprocess",
    ("cli.main", "return EXIT_BROKEN_PIPE"):
        "only a reader that closes stdout mid-write reaches it; test_cli runs that in a subprocess",
    ("cli", "run()"):
        "runs only as `python -m eulercat.cli`, which test_cli runs in a subprocess",
}


def code_lines(path: Path) -> set[tuple[str, int]]:
    """(scope, line) of each line of one file that holds bytecode; the scope is the
    module stem, or `<stem>.<qualname>` inside a function or class."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        codes.extend(const for const in code.co_consts if isinstance(const, CodeType))
        scope = path.stem if code.co_name == "<module>" else f"{path.stem}.{code.co_qualname}"
        # the module's RESUME sits on line 0, and some instructions have no line
        lines.update((scope, line) for _, _, line in code.co_lines() if line)
    return lines


def pytest_configure(config):
    # a hook of this module, which main passes to pytest as a plugin: hypothesis is
    # imported after pytest has marked it for assertion rewriting
    from hypothesis import settings

    settings.register_profile("line-coverage", deadline=None, derandomize=True)
    settings.load_profile("line-coverage")


def run_traced(args: list[str], files: list[Path]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest on args under the tracer; the exit code and the lines run per file."""
    ran = {str(path): set() for path in files}
    by_code_file: dict[str, set[int] | None] = {}

    def trace_calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in by_code_file:
            by_code_file[filename] = ran.get(os.path.realpath(filename))
        lines = by_code_file[filename]
        if lines is None:
            return None

        def trace_lines(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    sys.settrace(trace_calls)
    try:
        code = pytest.main(args, plugins=[sys.modules[__name__]])
    finally:
        sys.settrace(None)
    return code, ran


def main() -> int:
    # the package under test is this checkout's, here and in the tests' subprocesses
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    files = sorted(PACKAGE.glob("*.py"))
    code, ran = run_traced(["-q", str(ROOT / "tests")], files)
    if code != 0:
        print(f"line coverage: tier-1 failed (pytest exit {code})", file=sys.stderr)
        return code
    import eulercat

    if Path(eulercat.__file__).resolve().parent != PACKAGE:
        print(f"line coverage: tests imported {eulercat.__file__}, not {PACKAGE}",
              file=sys.stderr)
        return 1
    missed = {}
    for path in files:
        text = path.read_text().splitlines()
        for scope, line in sorted(code_lines(path)):
            if line not in ran[str(path)]:
                key = scope, text[line - 1].strip()
                missed.setdefault(key, []).append(f"{path.name}:{line}")
    unexplained = sorted(key for key in missed if key not in ALLOWED)
    stale = sorted(key for key in ALLOWED if key not in missed)
    for key, where in sorted(missed.items()):
        status = f"allowed: {ALLOWED[key]}" if key in ALLOWED else "NOT RUN"
        print(f"{', '.join(where)} {key[0]}: {key[1]}  [{status}]")
    for scope, line in stale:
        print(f"stale allowlist entry, the line ran or is gone: {scope}: {line}")
    return 1 if unexplained or stale else 0


if __name__ == "__main__":
    sys.exit(main())
