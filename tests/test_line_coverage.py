import sys

from line_coverage import code_lines

MODULE = '''\
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import random


def f(x):
    """A docstring
    on two lines."""
    if x:
        y = 1
    else:
        y = 2
    total = max(
        x,
        y,
    )
    return [v * 2 for v in range(total)]
'''


def test_code_lines_are_the_lines_that_hold_bytecode(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(MODULE)
    # CPython 3.12 inlines a comprehension into its function (PEP 709)
    comprehension = "mod.f.<locals>.<listcomp>" if sys.version_info < (3, 12) else "mod.f"
    # the docstring (8-9), `else:` (12) and the closing bracket (17) hold no code; the
    # `def` line is the function's entry and the module's definition of it
    assert code_lines(path) == {
        ("mod", 1), ("mod", 3), ("mod", 4), ("mod", 7),
        ("mod.f", 7), ("mod.f", 10), ("mod.f", 11), ("mod.f", 13),
        ("mod.f", 14), ("mod.f", 15), ("mod.f", 16), ("mod.f", 18),
        (comprehension, 18),
    }
