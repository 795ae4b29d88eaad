import ast
import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["inv-grid", "sub-ladder"])
def test_traced_benchmark_run_reports_every_layer(workload):
    # the traced run is the only one that runs perfbench/layers.py, which
    # calls every verify --quick suite through cli.main and every public
    # function that it names; sub-ladder's pass adds the importance-sampled
    # and plain subordinator rows of all three regimes
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.01", "--trace", "1"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=300.0)
    assert done.returncode == 0, done.stderr.decode()
    result = json.loads(done.stdout.decode().splitlines()[-1])
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(result["metrics"]) == declared
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def _subheat_references(tree):
    """(dotted owner, name) of every name a module imports from subheat or
    reads off a subheat module it bound."""
    bound = {}  # local name -> the dotted subheat path it stands for
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "subheat":
                    local = alias.asname or alias.name.split(".")[0]
                    bound[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "subheat":
            for alias in node.names:
                refs.append((node.module, alias.name))
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
            refs.append((bound[node.value.id], node.attr))
    return refs


def _resolves(dotted):
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            try:
                obj = importlib.import_module(".".join(parts[:i]))
            except ImportError:
                return False
    return True


def test_every_subheat_name_the_benchmark_uses_resolves():
    # the benchmark runs from its own files, which a change to the package
    # does not edit; a public name it still uses must not go missing
    refs = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        refs.update(_subheat_references(ast.parse(path.read_text(encoding="utf-8"), str(path))))
    assert ("subheat", "check_small_ball") in refs and ("subheat.cli", "main") in refs
    assert [f"{owner}.{name}" for owner, name in sorted(refs) if not _resolves(f"{owner}.{name}")] == []


def _bound_names(target):
    """The names an assignment target binds, through tuple and list targets."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for elt in target.elts for name in _bound_names(elt)]
    return []


def _unread_package_code():
    """(module, name) of every module-level function, class and constant of
    src/subheat, dunders aside, that nothing reaches from cli.main, from a
    module-level statement that defines and imports nothing, or from a
    subheat name that perfbench/*.py uses; a definition reaches every
    package name it reads."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in (ROOT / "src" / "subheat").glob("*.py")}
    defs, imports = {}, {}
    statements = []  # (module, node) of the module-level statements that define and import nothing
    for module, tree in trees.items():
        # local name -> (module, name) it imports, or (module, None) for a module
        imports[module] = {
            alias.asname or alias.name: (node.module, alias.name) if node.module else (alias.name, None)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
        }
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n for t in targets for n in _bound_names(t)]
            else:
                names = []
            names = [n for n in names if not (n.startswith("__") and n.endswith("__"))]
            defs.update({(module, n): node for n in names})
            if not names and not isinstance(node, (ast.Import, ast.ImportFrom)):
                statements.append((module, node))

    def resolve(module, name):
        while (module, name) not in defs:
            module, name = imports[module].get(name, (None, None))
            if name is None:
                return None
        return module, name

    def reads(module, node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield resolve(module, sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                owner, name = imports[module].get(sub.value.id, (None, ""))
                if name is None:
                    yield resolve(owner, sub.attr)

    reached = {("cli", "main")}
    for path in (ROOT / "perfbench").glob("*.py"):
        for owner, name in _subheat_references(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            # owner is subheat, a module of it, or a name in either, as in subheat.Kind.INVERSE
            path_in = owner.split(".")[1:] + [name]
            module = path_in.pop(0) if path_in[0] in trees else "__init__"
            reached.add(resolve(module, path_in[0]))
    reached.discard(None)  # a subheat module itself, as in from subheat import cli
    todo = statements + [(module, defs[module, name]) for module, name in reached]
    while todo:
        module, node = todo.pop()
        for found in set(reads(module, node)) - reached - {None}:
            reached.add(found)
            todo.append((found[0], defs[found]))
    return sorted(set(defs) - reached)


def test_every_package_definition_has_a_reader():
    # a definition that neither the CLI, the import of the package nor the
    # benchmark reaches has only tests for readers: delete it or give it one
    assert _unread_package_code() == []


def test_every_public_name_resolves():
    import subheat

    assert [name for name in subheat.__all__ if not hasattr(subheat, name)] == []
