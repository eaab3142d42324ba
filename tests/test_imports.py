"""Every name a package module imports is used in that module.

A deletion that leaves an import behind (a class or helper whose last
reader went) fails here.  __init__.py is skipped: its imports are the
public API.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "se2fusion"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names the source binds by import and never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    # an attribute chain such as np.array reads its leftmost Name
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(bound) - read)


def test_the_guard_finds_an_unused_import():
    source = ("import os\nimport os.path\nfrom numpy import array as arr, "
              "zeros\nfrom .graph import EdgeKind, PoseGraph\n"
              "x = zeros(3) + os.sep\ny: EdgeKind\n")
    assert unused_imports(source) == ["PoseGraph", "arr"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert MODULES
    assert unused_imports(path.read_text()) == []
