import ast
from pathlib import Path

import eulercat


def test_no_bare_assert_in_package():
    # `python -O` strips assert statements; invariants must raise explicitly
    sources = sorted(Path(eulercat.__file__).parent.glob("*.py"))
    assert {p.name for p in sources} >= {"cli.py", "geometry.py", "numbers.py"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
