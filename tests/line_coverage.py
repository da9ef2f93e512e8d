"""
Statement coverage of src/eulercat under the tier-1 suite, by the stdlib tracer.

    python tests/line_coverage.py

Runs tier-1 in this process under sys.settrace, with Hypothesis derandomized
(the same examples every run) and without deadlines (tracing slows every
test), and records each line of src/eulercat that runs.  A statement ran when
a line event fell on one of its own lines: every line of a simple statement,
the header lines (`if ...:`, `else:`, `except ...:`, `finally:`, ...) of a
compound one.  Docstrings and the body of `if TYPE_CHECKING:` are no code
that runs, so they are not statements here.

Exit status: pytest's, if a test fails; otherwise 1 if a statement never ran
and ALLOWED does not name it, or ALLOWED names a statement that ran or is
gone; otherwise 0.  pytest does not collect this file.
"""
import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "eulercat"

# (function, first line of the statement) -> why no in-process test runs it
ALLOWED = {
    ("cli.main", "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())"):
        "only a reader that closes stdout mid-write reaches it; test_cli runs that in a subprocess",
    ("cli.main", "return EXIT_BROKEN_PIPE"):
        "only a reader that closes stdout mid-write reaches it; test_cli runs that in a subprocess",
    ("cli", "sys.exit(main())"):
        "runs only as `python -m eulercat.cli`, which test_cli runs in a subprocess",
}


def _span(node: ast.stmt) -> set[int]:
    return set(range(node.lineno, node.end_lineno + 1))


def _bodies(node: ast.stmt):
    """The statement lists nested in node, but for the body of `if TYPE_CHECKING:`."""
    if not (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
            and node.test.id == "TYPE_CHECKING"):
        yield getattr(node, "body", [])
    yield getattr(node, "orelse", [])
    yield getattr(node, "finalbody", [])
    for handler in getattr(node, "handlers", ()):
        yield handler.body


def statements(path: Path):
    """(function, first line, line number, own lines) of each statement of one file."""
    source = path.read_text()
    text = source.splitlines()

    def visit(body, scope):
        for node in body:
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                    and isinstance(node.value.value, str):
                continue
            bodies = list(_bodies(node))
            own = _span(node).difference(*(_span(stmt) for b in bodies for stmt in b))
            yield scope, text[node.lineno - 1].strip(), node.lineno, own
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{node.name}"
            else:
                inner = scope
            for b in bodies:
                yield from visit(b, inner)

    yield from visit(ast.parse(source, filename=str(path)).body, path.stem)


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
        for scope, line, lineno, own in statements(path):
            if not own & ran[str(path)]:
                missed.setdefault((scope, line), []).append(f"{path.name}:{lineno}")
    unexplained = sorted(key for key in missed if key not in ALLOWED)
    stale = sorted(key for key in ALLOWED if key not in missed)
    for key, where in sorted(missed.items()):
        status = f"allowed: {ALLOWED[key]}" if key in ALLOWED else "NOT RUN"
        print(f"{', '.join(where)} {key[0]}: {key[1]}  [{status}]")
    for scope, line in stale:
        print(f"stale allowlist entry, the statement ran or is gone: {scope}: {line}")
    return 1 if unexplained or stale else 0


if __name__ == "__main__":
    sys.exit(main())
