"""Static checks on the package source, made with the standard library alone."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "noiselab"


def unused_imports(path: Path) -> list:
    """Names that `path` imports and never uses, except on lines marked
    `# noqa` (a name kept for another module to find there)."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa" not in lines[alias.lineno - 1]:
                    imported[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line}: {name}" for name, line in imported.items()
                  if name not in used)


def unused_private_names(path: Path) -> list:
    """Private module-level names of `path` (a `_name` function, class or
    assignment) that the module itself never reads."""
    tree = ast.parse(path.read_text())
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{path.name}:{line}: {name}" for name, line in defined.items()
                  if name.startswith("_") and not name.startswith("__")
                  and name not in loaded)


MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_private_names(path):
    assert unused_private_names(path) == []


# RngStream.indices holds PCG64's pending 32-bit half itself, outside numpy's
# generator. Only core_math may reach that generator, so that no other code
# draws a 32-bit output past the held half.
RAW_GENERATOR = {"_gen", "bit_generator", "random_raw"}


def raw_generator_uses(path: Path) -> list:
    """Attribute reads of the generator beneath an RngStream in `path`."""
    tree = ast.parse(path.read_text())
    return sorted(f"{path.name}:{node.lineno}: {node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in RAW_GENERATOR)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_core_math_reads_the_raw_generator(path):
    uses = raw_generator_uses(path)
    if path.name == "core_math.py":
        assert uses  # else the check reads nothing
    else:
        assert uses == []


# Both DLN models draw in one place, once per draw group and step, so that a
# grouped row reads what its run alone would draw and every stream ends where
# that run leaves it.
STREAM_DRAWS = {"normal", "indices"}


def draw_sites(path: Path) -> list:
    """(enclosing class and function, line) of each .normal( or .indices(
    call in `path`."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = (*scope, node.name)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in STREAM_DRAWS):
            sites.append((".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), ())
    return sites


def test_dln_streams_draw_only_in_grouped_draw():
    sites = draw_sites(SRC / "dln_dynamics.py")
    assert sites  # else the check reads nothing
    assert [f"line {line}: {scope}" for scope, line in sites if scope != "_Grouped.draw"] == []
