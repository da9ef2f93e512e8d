import ast
from pathlib import Path

import eulercat


def _raises_assertion_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_bare_assert_in_package():
    # `python -O` strips assert statements; invariants must raise explicitly, and
    # as errors.InvariantError, which the CLI maps to exit 1
    sources = sorted(Path(eulercat.__file__).parent.glob("*.py"))
    assert {p.name for p in sources} >= {"cli.py", "geometry.py", "numbers.py"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
        or isinstance(node, ast.Raise) and node.exc is not None and _raises_assertion_error(node)
    ]
    assert found == []
