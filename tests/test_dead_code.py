"""Every function, class, method and module-level constant in lutpim has a reader outside the tests."""

import ast
from pathlib import Path

import lutpim

ROOT = Path(__file__).resolve().parents[1]

# module.name -> why it stays without a caller
ALLOWED = {
    "perf.layer_csv": "the per-layer CSV rendering that the one per-layer record will replace",
    "perf.compare_report": "acceptance criteria 6 and 9 render the paper comparison through it",
    "lut_core.LutCore.lookup": "acceptance criterion 1 drives each core through it",
}


def _definitions(tree, module):
    """(qualified name, bare name) of each module-level def, class and constant, and of each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name
        for target in node.targets if isinstance(node, ast.Assign) else ():
            if isinstance(target, ast.Name):
                yield f"{module}.{target.id}", target.id
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{module}.{node.name}.{item.name}", item.name


def _references(tree):
    """Names read, attributes read, and string constants (the tracer looks functions up by name)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_definition_has_a_caller():
    trees = {path: ast.parse(path.read_text()) for path in sorted((ROOT / "src" / "lutpim").glob("*.py"))}
    callers = {path: ast.parse(path.read_text()) for path in sorted((ROOT / "perfbench").glob("*.py"))}
    used = {name for tree in [*trees.values(), *callers.values()] for name in _references(tree)}
    exported = set(lutpim.__all__)
    dead = [
        qualified
        for path, tree in trees.items()
        for qualified, name in _definitions(tree, path.stem)
        if not (name.startswith("__") and name.endswith("__"))  # called by Python itself
        and name not in used
        and name not in exported
        and qualified not in ALLOWED
    ]
    assert not dead, f"defined but never used outside the tests: {dead}"
