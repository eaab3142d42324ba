"""Every name a package module imports is used in that module, every
local name a package function binds is read in that function, every
parameter a package function or lambda takes is read by it, every
private function, class and method is used by the package, every public
module-level function and class is used by the package, exported by
__init__.py or read by the benchmark, every public method of a class
that __init__.py does not export is read by the package, every field of
a config class is read by the package outside that class, and every
module-level function and class of tests/helpers.py is read by a test
module or another helper.

A deletion that leaves an import behind (a class or helper whose last
reader went) fails here, and so does a local left over from a rewrite,
a parameter its function no longer reads, code whose last caller
outside the tests went, even if tests still call it, a method whose
last caller in the package was rewritten, a setting whose last reader
went, and an oracle that no test reads.  __init__.py is skipped by the
import check: its imports are the public API.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "se2fusion"
TESTS = ROOT / "tests"
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


_SCOPES = (ast.FunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(fn):
    """The nodes of a function's body, not entering a nested scope."""
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        yield node
        todo += [c for c in ast.iter_child_nodes(node)
                 if not isinstance(c, _SCOPES)]


def unused_locals(source: str) -> list:
    """The names each function binds by assignment, tuple unpacking, or
    as a loop or `with` target, and reads neither in its own body nor in
    a function nested in it, as "function.name".

    A name that starts with _ is exempt, and so is one the function
    declares global or nonlocal.
    """
    unused = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef):
            continue
        targets, outer = [], set()
        for node in _own_nodes(fn):
            if isinstance(node, ast.Assign):
                targets += node.targets
            elif isinstance(node, (ast.AnnAssign, ast.For)):
                targets.append(node.target)
            elif isinstance(node, ast.withitem) and node.optional_vars:
                targets.append(node.optional_vars)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                outer.update(node.names)
        bound = {n.id for t in targets for n in ast.walk(t)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        read = {n.id for n in ast.walk(fn)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused += [f"{fn.name}.{name}" for name in bound - read - outer
                   if not name.startswith("_")]
    return sorted(unused)


def test_the_guard_finds_an_unused_local():
    source = ("def f(xs, path):\n    a, (b, *c) = xs\n    d: int = 1\n"
              "    e = g = 2\n    for k, v in xs:\n        pass\n"
              "    with open(path) as fh:\n        pass\n"
              "    _skip, kept = xs\n    self_attr = xs\n"
              "    self_attr.x = 3\n    nested_reads = 4\n\n"
              "    def inner():\n        late = 5\n"
              "        return nested_reads\n\n"
              "    return b + g + inner() + kept + [late for late in xs]\n"
              "\n\ndef h():\n    global glob\n    glob = 1\n"
              "    total = 0\n    total += 1\n    return lambda: total\n")
    # a name read by a nested function is used, a name bound in the
    # nested function is that function's own, and a comprehension's
    # target is its own scope's
    assert unused_locals(source) == ["f.a", "f.c", "f.d", "f.e", "f.fh",
                                     "f.k", "f.v", "inner.late"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_locals(path):
    assert MODULES
    assert unused_locals(path.read_text()) == []


def unused_parameters(source: str) -> list:
    """The parameters each function, nested function or lambda takes and
    never reads, in its own body or in a function nested in it, as
    "function.name" ("lambda.name" for a lambda).

    Positional, keyword-only, *args and **kwargs parameters count; self,
    cls and a name that starts with _ are exempt.
    """
    unused = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
            continue
        a = fn.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                  a.vararg, a.kwarg) if p is not None]
        body = fn.body if isinstance(fn, ast.FunctionDef) else [fn.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(fn, "name", "lambda")
        unused += [f"{name}.{p}" for p in params
                   if p not in read and p not in ("self", "cls")
                   and not p.startswith("_")]
    return sorted(unused)


def test_the_guard_finds_an_unused_parameter():
    source = ("def f(a, b, /, c, *args, d, e=1, **kw):\n"
              "    def inner(x, y):\n        return b + x\n"
              "    return inner(c, kw) + (lambda p, q: p)(d, 0)\n"
              "\n\nclass C:\n    def m(self, _unused, z):\n"
              "        return 1\n\n    @classmethod\n"
              "    def k(cls, *, w):\n        return w\n"
              "\n\ndef g(t=lambda s: 0):\n    return t\n")
    # a parameter read by a nested function is used; self, cls and _
    # names are exempt; a lambda is checked like a def
    assert unused_parameters(source) == ["f.a", "f.args", "f.e",
                                         "inner.y", "lambda.q",
                                         "lambda.s", "m.z"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_parameters(path):
    assert MODULES
    assert unused_parameters(path.read_text()) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _reads(trees) -> tuple:
    """The Name ids and the attribute names the trees read."""
    names, attrs = set(), set()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                attrs.add(n.attr)
    return names, attrs


def dead_private_code(sources: dict) -> list:
    """The module-level `_private` functions and classes, and the
    non-dunder methods of `_Private` classes, that no source reads.

    sources maps a module name to its text.  A function or class counts
    as read by a Name or an attribute of that name anywhere, a method by
    an attribute only; its def statement is not a read.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    names, attrs = _reads(trees.values())
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and _private(node.name)):
                continue
            if node.name not in names | attrs:
                dead.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                dead += [f"{module}.{node.name}.{m.name}" for m in node.body
                         if isinstance(m, ast.FunctionDef)
                         and not m.name.startswith("__")
                         and m.name not in attrs]
    return sorted(dead)


def test_the_guard_finds_dead_private_code():
    sources = {
        "a": ("def _used():\n    pass\n\ndef _unused():\n    pass\n"
              "\nclass _Box:\n    def __init__(self):\n        pass\n"
              "    def read(self):\n        pass\n    def _dead(self):\n"
              "        pass\n\nclass Public:\n    def dead(self):\n"
              "        pass\n\ndef public():\n    pass\n"),
        "b": "from .a import _Box, _used\n_used()\n_Box().read()\nread = 1\n",
    }
    # a public class's methods are not checked, and a method is not read
    # by a plain name
    assert dead_private_code(sources) == ["a._Box._dead", "a._unused"]
    sources["b"] = "from .a import _Box\n_Box\nread = 1\n"
    assert dead_private_code(sources) == ["a._Box._dead", "a._Box.read",
                                          "a._unused", "a._used"]


def test_no_dead_private_code():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert "solver" in sources
    assert dead_private_code(sources) == []


def _exported(init) -> set:
    """The names the __init__ tree imports from the package modules."""
    return {a.name for n in ast.walk(init) if isinstance(n, ast.ImportFrom)
            for a in n.names}


def dead_public_code(sources: dict, readers: dict) -> list:
    """The module-level public functions and classes that no package
    source reads (a Name or an attribute of that name, as above), that
    __init__.py does not import and that no reader reads.

    sources maps a package module name to its text, "__init__" included;
    readers maps each other module that may read the package (the
    benchmark's) to its text.  Tests are not readers.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    names, attrs = _reads([*trees.values(),
                           *(ast.parse(t) for t in readers.values())])
    exported = _exported(trees["__init__"])
    return sorted(f"{module}.{node.name}"
                  for module, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_")
                  and node.name not in names | attrs | exported)


def test_the_guard_finds_dead_public_code():
    sources = {
        "__init__": "from .a import exported as renamed\n",
        "a": ("def exported():\n    pass\n\ndef helper():\n    pass\n"
              "\ndef benched():\n    pass\n\ndef tested():\n    pass\n"
              "\nclass Used:\n    def dead(self):\n        pass\n"
              "\ndef _private():\n    helper()\n"),
        "b": "from .a import Used\nUsed\n",
    }
    readers = {"run": "from se2fusion import a\na.benched()\n"}
    # a public class's methods are not checked, and an import by a
    # package module other than __init__ is not a read
    assert dead_public_code(sources, readers) == ["a.tested"]
    assert dead_public_code(sources, {}) == ["a.benched", "a.tested"]
    sources["b"] = "from .a import Used, tested\n"
    assert dead_public_code(sources, readers) == ["a.Used", "a.tested"]


def test_no_dead_public_code():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    readers = {p.stem: p.read_text() for p in (ROOT / "bench").glob("*.py")}
    assert "__init__" in sources and "run" in readers
    assert dead_public_code(sources, readers) == []


def dead_public_methods(sources: dict) -> list:
    """The public methods of the classes __init__.py does not import
    that no package source reads as an attribute, as
    "module.Class.method".

    sources maps a package module name to its text, "__init__" included.
    A method's def statement is not a read, and neither is a plain Name.
    Private classes count too; their private methods are
    dead_private_code's.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    _, attrs = _reads(trees.values())
    exported = _exported(trees["__init__"])
    return sorted(f"{module}.{node.name}.{m.name}"
                  for module, tree in trees.items() for node in tree.body
                  if isinstance(node, ast.ClassDef)
                  and node.name not in exported
                  for m in node.body if isinstance(m, ast.FunctionDef)
                  and not m.name.startswith("_") and m.name not in attrs)


def test_the_guard_finds_a_dead_public_method():
    sources = {
        "__init__": "from .a import Api\n",
        "a": ("class Api:\n    def untouched(self):\n        pass\n"
              "\nclass Ends:\n    def windows(self):\n        pass\n"
              "    def left(self):\n        return self.windows()\n"
              "    def _own(self):\n        pass\n"
              "\nclass _Box:\n    def rows(self):\n        pass\n"
              "    def spare(self):\n        pass\n"),
        "b": "from .a import Ends, _Box\nEnds().left()\nspare = _Box\n",
    }
    # an exported class's methods are the API, a read inside the class
    # counts, and a Name is not an attribute read
    assert dead_public_methods(sources) == ["a._Box.rows", "a._Box.spare"]
    sources["b"] = "from .a import Ends\n"
    assert dead_public_methods(sources) == ["a.Ends.left", "a._Box.rows",
                                            "a._Box.spare"]


def test_no_dead_public_methods():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert "odometry" in sources and "__init__" in sources
    assert dead_public_methods(sources) == []


CONFIGS = ("BuilderConfig", "ExperimentConfig", "SolverConfig",
           "GnssErrorModel", "OdoErrorModel")


def dead_config_fields(sources: dict, classes) -> list:
    """The annotated fields of the named classes that no source reads as
    an attribute (`x.field` in a load) outside that class's own body, so
    a check in its __post_init__ or a write is not a read.

    sources maps a package module name to its text.
    """
    trees = [ast.parse(text) for text in sources.values()]
    dead = []
    for tree in trees:
        for node in tree.body:
            if not (isinstance(node, ast.ClassDef) and node.name in classes):
                continue
            inside = {id(n) for n in ast.walk(node)}
            read = {n.attr for t in trees for n in ast.walk(t)
                    if isinstance(n, ast.Attribute)
                    and isinstance(n.ctx, ast.Load) and id(n) not in inside}
            dead += [f"{node.name}.{f.target.id}" for f in node.body
                     if isinstance(f, ast.AnnAssign)
                     and isinstance(f.target, ast.Name)
                     and f.target.id not in read]
    return sorted(dead)


def test_the_guard_finds_a_dead_config_field():
    sources = {
        "a": ("class Cfg:\n    used: int = 1\n    checked: int = 2\n"
              "    written: int = 3\n    other: int = 4\n\n"
              "    def __post_init__(self):\n        if self.checked < 0:\n"
              "            raise ValueError\n\n"
              "class Unlisted:\n    lone: int = 0\n\n"
              "def run(cfg):\n    cfg.written = 5\n    return cfg.used\n"),
    }
    # a read inside the class and a write are not reads, and a class
    # not named is not checked
    assert dead_config_fields(sources, ("Cfg",)) == \
        ["Cfg.checked", "Cfg.other", "Cfg.written"]
    sources["b"] = "def f(x):\n    return x.other + x.checked\n"
    assert dead_config_fields(sources, ("Cfg",)) == ["Cfg.written"]


def test_no_dead_config_fields():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    defined = {n.name for text in sources.values()
               for n in ast.parse(text).body if isinstance(n, ast.ClassDef)}
    assert set(CONFIGS) <= defined
    assert dead_config_fields(sources, CONFIGS) == []


def dead_helpers(helpers: str, readers: dict) -> list:
    """The module-level functions and classes of the helpers source that
    no reader reads and no other statement of the helpers source reads
    (a Name or an attribute of that name, as above; a helper's own body
    and an import are not reads).

    readers maps each test module's name to its text.
    """
    tree = ast.parse(helpers)
    names, attrs = _reads(ast.parse(t) for t in readers.values())
    dead = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        inner, inner_attrs = _reads(n for n in tree.body if n is not node)
        if node.name not in names | attrs | inner | inner_attrs:
            dead.append(node.name)
    return sorted(dead)


def test_the_guard_finds_a_dead_helper():
    helpers = ("import math\n\ndef oracle():\n    return _inner()\n"
               "\ndef _inner():\n    return math.pi\n\ndef unread():\n"
               "    pass\n\ndef recursive():\n    return recursive()\n"
               "\nclass Box:\n    pass\n\nDEFAULT = Box\n")
    readers = {"test_a": ("from helpers import oracle, unread\n\n"
                          "def test_x():\n    oracle()\n")}
    # an import is not a read, and neither is a helper's call to itself
    assert dead_helpers(helpers, readers) == ["recursive", "unread"]
    readers["test_a"] = "import helpers\nhelpers.recursive()\n"
    # a helper read by another helper is alive, even by a dead one
    assert dead_helpers(helpers, readers) == ["oracle", "unread"]


def test_no_dead_test_helpers():
    readers = {p.stem: p.read_text() for p in TESTS.glob("test_*.py")}
    assert "test_se2" in readers
    assert dead_helpers((TESTS / "helpers.py").read_text(), readers) == []
