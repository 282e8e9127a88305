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
