"""Dead names: every top-level function, class and assigned name of the
package has a user.

Top-level assignments (tables and constants) count, dunder names aside.
A name counts as used when the package refers to it outside its own
definition: by name in its own module, by ``from .module import name`` in
a module that then reads ``name``, or as ``module.name`` in a module that
imports ``module``.  Otherwise it must
be public API (``tagauth.__all__``) or on ``KEPT`` with its reason.  The
sources are parsed, as in ``test_imports.py``.
"""

import ast
from pathlib import Path

import tagauth

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tagauth"
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(PACKAGE.glob("*.py"))}

# (module, name): why it stays with no caller in the package
KEPT = {
    ("word96", "add"): "the mod-2^96 wrap acceptance criterion 10 checks, named in README",
    ("word96", "sub"): "the mod-2^96 wrap acceptance criterion 10 checks, named in README",
    ("cli", "_verdict_to_dict"): "tests/test_golden.py pins verdict files through it",
    ("simulator", "ground_truth_to_dict"): "cli imports it, and reads it nowhere, only for "
                                           "perfbench/tracing.py to wrap cli.ground_truth_to_dict",
}


def defined(statement) -> list[str]:
    """The names a top-level statement defines: a function's or class's
    name, or the names an assignment binds, dunder names left out."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return [node.id for target in targets for node in ast.walk(target)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                and not (node.id.startswith("__") and node.id.endswith("__"))]
    return []


def unused(trees: dict) -> set:
    """(module, name) of each top-level function, class and assigned name of
    ``trees`` (module -> parsed source) that no other statement of them uses."""
    imported, attributes = {}, {}
    for module, tree in trees.items():
        imported[module], attributes[module] = set(), set()
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imported[module] |= {(node.module, alias.name) for alias in node.names
                                     if (alias.asname or alias.name) in loaded}
            elif isinstance(node, ast.Attribute):
                attributes[module].add(node.attr)
    found = set()
    for module, tree in trees.items():
        for definition in tree.body:
            for name in defined(definition):
                in_module = any(isinstance(node, ast.Name) and node.id == name
                                and isinstance(node.ctx, ast.Load)
                                for statement in tree.body if statement is not definition
                                for node in ast.walk(statement))
                elsewhere = any((module, name) in imported[other]
                                or (None, module) in imported[other]
                                and name in attributes[other]
                                for other in trees if other != module)
                if not in_module and not elsewhere:
                    found.add((module, name))
    return found


def test_every_definition_is_used_public_or_kept():
    dead = {(module, name) for module, name in unused(TREES) if name not in tagauth.__all__}
    assert dead <= set(KEPT), f"no caller, not in __all__, not kept: {dead - set(KEPT)}"


def test_every_kept_name_is_still_unused():
    # a kept name that gained a caller, or is gone, leaves the list
    assert set(KEPT) <= unused(TREES)


def test_the_check_finds_a_dead_name():
    live_and_dead = ast.parse("LIMIT = 3\nTABLE, __version__ = {}, '1'\n\n\n"
                              "def live():\n    return LIMIT\n\n\ndef dead():\n    live()\n")
    caller = ast.parse("from . import probe\n\nprobe.dead\nprobe.TABLE\n")
    # imported by name, but only TABLE is read after the import
    importer = ast.parse("from .probe import TABLE, dead\n\nTABLE\n")
    assert unused({"probe": live_and_dead}) == {("probe", "dead"), ("probe", "TABLE")}
    assert unused({"probe": live_and_dead, "caller": caller}) == set()
    assert unused({"probe": live_and_dead, "importer": importer}) == {("probe", "dead")}
