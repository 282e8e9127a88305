"""Import rules: the package is stdlib-only and the attacks stay passive."""

import ast
import sys
from pathlib import Path

import pytest

# the source files, parsed and never imported
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tagauth"
MODULES = sorted(PACKAGE.glob("*.py"))

# What ``attacks`` may import from the package: the protocol equations it
# inverts and the word arithmetic.  Anything else (the simulator above all)
# could hand it state a passive adversary never sees.
ATTACKS_MAY_IMPORT = {"gossamer", "word96"}


def imports(path: Path) -> list[tuple[int, str]]:
    """(relative level, module) of every import in ``path``; ``from . import
    x`` gives one entry per name, with ``x`` as its module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [(0, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level and node.module is None:
                found += [(node.level, alias.name) for alias in node.names]
            else:
                found.append((node.level, node.module))
    return found


def test_every_module_is_checked():
    assert {path.stem for path in MODULES} >= {"attacks", "cli", "simulator", "store"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_are_relative_or_stdlib(path):
    for level, module in imports(path):
        if level:
            assert level == 1, f"{path.name} imports from outside tagauth: {module}"
        else:
            top = module.split(".")[0]
            assert top in sys.stdlib_module_names, f"{path.name} imports {module}"


def test_attacks_import_only_gossamer_and_word96():
    # an absolute ``tagauth`` import already fails the stdlib test above
    within = {module.split(".")[0] for level, module in imports(PACKAGE / "attacks.py")
              if level}
    assert within <= ATTACKS_MAY_IMPORT


def functions_with(match) -> set[tuple[str, str]]:
    """(module, function) of each function in the package with a node that
    ``match`` accepts; a node outside any function is the module's,
    ``<module>``."""
    found = set()

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif match(node):
            found.add((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in MODULES:
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "<module>")
    return found


def callers(name: str) -> set[tuple[str, str]]:
    """(module, function) of each function in the package that calls ``name``,
    bare or as an attribute (``functions_with``)."""
    return functions_with(lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def test_one_function_runs_the_mixbits_lane_passes():
    # the chain order is written once, in gossamer.MIXBITS, and read by the
    # one generator of its lane passes; the campaign table and the zero-key
    # attack both take their passes from it.  The scalar MixBits runs a table
    # miss as one lane, with no chain, so the round loop is written once too
    assert callers("mixbits_original_lanes") == {("gossamer", "mixbits_passes"),
                                                 ("word96", "mixbits_original")}


def test_one_function_reads_the_readers_derivation():
    # each tag phase hands the reader_begin arguments it recovered, with the
    # reader's derivation, to tagstate.answer, the one code that reads it
    assert callers("answer") == {("sasi", "accept_sasi"), ("gossamer", "accept_original"),
                                 ("gossamer", "derive_auth")}
    assert functions_with(lambda node: isinstance(node, ast.Subscript) and getattr(
        node.value, "id", None) == "derived") == {("tagstate", "answer")}
