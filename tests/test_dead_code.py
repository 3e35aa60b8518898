"""Every function, class, method and module-level constant in lutpim has a reader outside the tests,
every parameter of a lutpim function is read in its body, and every flag of a lutpim command is read."""

import ast
from pathlib import Path

import lutpim
from lutpim import cli

ROOT = Path(__file__).resolve().parents[1]

# module.name, or module.function.parameter for a parameter, -> why it stays without a reader
ALLOWED = {
    "perf.layer_csv": "the per-layer CSV rendering that the one per-layer record will replace",
    "perf.compare_report": "acceptance criteria 6 and 9 render the paper comparison through it",
    "lut_core.LutCore.lookup": "acceptance criterion 1 drives each core through it",
    "lut_core.LutCore.program": "acceptance criterion 1 drives each core through it",
    "cluster.Cluster.run_microprogram": "the entry for any program; mac8 runs the MAC program once itself and"
    " charges the tally only after its accumulator check passes",
    "engine._raw_dot_vector.bits": "perfbench's corrupted-accumulator test wraps this function by its"
    " three-argument form",
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


def _functions(node, prefix):
    """(qualified name, node) of each def below node, methods and nested defs included; lambdas are not defs."""
    for child in ast.iter_child_nodes(node):
        name = f"{prefix}.{child.name}" if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else prefix
        if isinstance(child, ast.FunctionDef):
            yield name, child
        yield from _functions(child, name)


def test_every_parameter_is_read():
    unread = []
    for path in sorted((ROOT / "src" / "lutpim").glob("*.py")):
        for qualified, fn in _functions(ast.parse(path.read_text()), path.stem):
            body = [n for stmt in fn.body for n in ast.walk(stmt)]
            read = {n.id for n in body if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            args = fn.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]:
                if arg is not None and f"{qualified}.{arg.arg}" not in ALLOWED and arg.arg not in read:
                    unread.append(f"{qualified}.{arg.arg}")
    assert not unread, f"parameters never read in their function's body: {unread}"


def _unread_flags(flags):
    """`command --dest` for each flag in a {command: {dest: action}} table that its command never reads.

    A command reads a flag as args.<dest> in its cmd_* function; --config is
    read by _apply_config, for every command.
    """
    tree = ast.parse((ROOT / "src" / "lutpim" / "cli.py").read_text())
    reads = {
        fn.name: {
            n.attr for n in ast.walk(fn)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "args"
        }
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
    }
    return [
        f"{command} --{dest}"
        for command, table in flags.items()
        for dest in table
        if dest != "help"
        and dest not in reads["_apply_config" if dest == "config" else cli.COMMANDS[command].__name__]
    ]


def test_every_flag_is_read_by_its_command():
    assert not _unread_flags(cli._parser()[1]), "flags their command never reads"


def test_a_flag_no_command_reads_is_found():
    flags = {command: dict(table) for command, table in cli._parser()[1].items()}
    flags["simulate"]["scratch"] = None
    assert _unread_flags(flags) == ["simulate --scratch"]
