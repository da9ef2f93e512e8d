import ast
from collections import Counter
from pathlib import Path

import eulercat

SOURCES = sorted(Path(eulercat.__file__).parent.glob("*.py"))
BENCH_RUNNER = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _raises_assertion_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_bare_assert_in_package():
    # `python -O` strips assert statements; invariants must raise explicitly, and
    # as errors.InvariantError, which the CLI maps to exit 1
    assert {p.name for p in SOURCES} >= {"cli.py", "geometry.py", "numbers.py"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
        or isinstance(node, ast.Raise) and node.exc is not None and _raises_assertion_error(node)
    ]
    assert found == []


def _names(node):
    """Every name node mentions as a variable or attribute; docstrings are not names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_public_function_runs_in_src():
    # a public function that no src code names outside its own def runs in no
    # command: it is test scaffolding and belongs in tests/oracles.py
    defined, named = {}, set()
    for path in SOURCES:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            own = None
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                own = node.name
                defined[own] = f"{path.name}:{node.lineno} {own}"
            named.update(name for name in _names(node) if name != own)
    assert "analyze_orbit" in defined
    assert sorted(where for name, where in defined.items() if name not in named) == []


def test_every_private_helper_is_named_in_src():
    # a private function or class that no src code names outside its own definition
    # is dead: a simplification left it behind, or only a test still calls it
    trees = [(path.name, ast.parse(path.read_text(), filename=str(path))) for path in SOURCES]
    named = Counter(name for _, tree in trees for name in _names(tree))
    private = [
        (f"{file}:{node.lineno} {node.name}", node)
        for file, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.endswith("__")
    ]
    assert "_windows" in {node.name for _, node in private}
    assert sorted(where for where, node in private
                  if named[node.name] == Counter(_names(node))[node.name]) == []


def test_k_comes_before_n_and_has_no_default():
    # every object of the paper is indexed by the pair (k, n): a function that takes
    # both takes k first, and no k has a default, so no caller leans on k = 2 unseen
    found, paired = [], set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            names = [arg.arg for arg in positional + args.kwonlyargs]
            defaulted = positional[len(positional) - len(args.defaults):] + [
                arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None]
            name = getattr(node, "name", "lambda")
            if {"k", "n"} <= set(names):
                paired.add(name)
            if ("k" in {arg.arg for arg in defaulted}
                    or {"k", "n"} <= set(names) and names.index("k") > names.index("n")):
                found.append(f"{path.name}:{node.lineno} {name}")
    assert {"flaw_walk", "fuss_eulerian_catalan", "count_dyck_permutations"} <= paired
    assert found == []


def test_scale_cap_error_is_raised_in_one_place():
    # one work cap, charged through errors.Budget: a second cap would raise it elsewhere
    raised = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Raise) and node.exc is not None
        and "ScaleCapError" in set(_names(node.exc))
    ]
    assert len(raised) == 1 and raised[0].startswith("errors.py:")


def test_the_budget_is_set_by_the_command_alone():
    # the work cap is a setting of one command: no function takes it as a parameter,
    # and cli.main is the one place that sets (and restores) errors.budget
    params, setters = [], set()
    for path in SOURCES:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            owner = f"{path.stem}.{top.name}" if isinstance(top, ast.FunctionDef) else path.stem
            for node in ast.walk(top):
                if isinstance(node, ast.arg) and node.arg == "cap":
                    params.append(f"{path.name}:{node.lineno}")
                elif (isinstance(node, ast.Attribute) and node.attr == "budget"
                      and isinstance(node.ctx, ast.Store)
                      or isinstance(node, ast.Global) and "budget" in node.names):
                    setters.add(owner)
    assert params == []
    assert setters == {"cli.main"}


def _traced_names(tree):
    """The functions the bench runner sums per layer: every name in FUNCTION_METRICS,
    and each literal tuple of names it passes to absent(), the nested pair included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "FUNCTION_METRICS"
                for target in node.targets):
            for _, functions, _ in ast.literal_eval(node.value):
                names.update(functions)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "absent" and isinstance(node.args[1], ast.Tuple)):
            names.update(ast.literal_eval(node.args[1]))
    return names


def test_every_traced_function_is_defined():
    # the per-layer trace wraps functions by name, and a name that is gone only
    # shows as a missing metric, so a rename must fail here.  cli.parse_args is
    # the parser's own method, which the traced CLI wraps
    traced = _traced_names(ast.parse(BENCH_RUNNER.read_text(), filename=str(BENCH_RUNNER)))
    assert {"orbit.analyze_orbit", "geometry.verify_subdivision",
            "geometry.ehrhart_volume", "cli.parse_args"} <= traced
    defined = {
        f"{path.stem}.{node.name}"
        for path in SOURCES
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, ast.FunctionDef)
    }
    assert sorted(traced - defined - {"cli.parse_args"}) == []


def _modules_tuple(path):
    """The literal MODULES tuple that one perfbench script assigns."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "MODULES" for target in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"no MODULES in {path}")


def test_every_traced_module_has_a_public_function():
    # run.py reads one per-layer metric per module, and traced_cli wraps each
    # module's top-level public functions: a module with none, or one that only one
    # of the two lists names, leaves a metric missing at the end of a traced run
    modules = _modules_tuple(BENCH_RUNNER)
    assert modules == _modules_tuple(BENCH_RUNNER.with_name("traced_cli.py"))
    by_stem = {path.stem: path for path in SOURCES}
    bare = [
        module for module in modules
        if not any(isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                   for node in ast.parse(by_stem[module].read_text()).body)
    ]
    assert bare == []


def test_only_alcoved_reads_the_bounds_of_a_spec():
    # AlcovedSpec.limits() is the one reading of a spec's bounds: the DP band, the
    # W-set walk and the subdivision probes all take it, so no other module reads a
    # spec's bounds or a Bound's sides
    found = [
        f"{path.name}:{node.lineno} .{node.attr}"
        for path in SOURCES if path.name != "alcoved.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in {"lower", "upper", "bounds"}
    ]
    assert found == []
