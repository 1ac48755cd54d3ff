"""Stdlib lint of the package: no module imports a name it never uses
(the re-exports of `__init__.py` excepted), every private module-level
function, class or constant and every private method is used somewhere
in the package outside its own body, and every local name a function
binds is read.  The CLI encodes JSON only through `cli._dumps`, its one
strict encoder."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ietflow"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of every name bound by an import and never read."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_lint_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom a import b as c\n"
                          "sys.exit(c)\n") == [(1, "os")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


class _Uses(ast.NodeVisitor):
    """The private module-level functions, classes and constants (names an
    assignment binds) and the private methods a module defines, and the
    names it reads outside the body of the function or class of the same
    name."""

    def __init__(self):
        self.defined, self.used, self._inside = set(), set(), []

    def visit_Module(self, node):
        for child in node.body:
            if isinstance(child, ast.ClassDef):
                if _is_private(child.name):
                    self.defined.add(child.name)
                for item in child.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)) and \
                            _is_private(item.name):
                        self.defined.add(item.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and _is_private(child.name):
                self.defined.add(child.name)
            elif isinstance(child, (ast.Assign, ast.AnnAssign)):
                targets = child.targets if isinstance(child, ast.Assign) \
                    else [child.target]
                self.defined.update(
                    name.id for target in targets for name in ast.walk(target)
                    if isinstance(name, ast.Name) and _is_private(name.id))
        self.generic_visit(node)

    def visit_FunctionDef(self, node):
        self._inside.append(node.name)
        self.generic_visit(node)
        self._inside.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def _read(self, name: str):
        if name not in self._inside:
            self.used.add(name)

    def visit_Name(self, node):
        if not isinstance(node.ctx, ast.Store):
            self._read(node.id)

    def visit_Attribute(self, node):
        self._read(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        # an import of a private name from another module is a use of it
        self._read(node.name)


def unused_private(sources: dict) -> list:
    """(module, name) of every private module-level function, class or
    constant or private method that no module of `sources` (name ->
    source) reads outside its own body."""
    defined, used = [], set()
    for module, source in sources.items():
        uses = _Uses()
        uses.visit(ast.parse(source))
        defined += [(module, name) for name in sorted(uses.defined)]
        used |= uses.used
    return [(module, name) for module, name in defined if name not in used]


def test_lint_finds_an_unused_private_function():
    sources = {"a": "def _kept():\n    return _kept()\n\n"
                    "def _used():\n    pass\n\n"
                    "class C:\n    def _m(self):\n        self._m()\n"
                    "    def __len__(self):\n        return 0\n\n"
                    "class _Left:\n    def f(self):\n        return _Left()\n"
                    "\nclass _Made(tuple):\n    pass\n"
                    "\n_READ = 1\n_UNREAD, _PAIR = 2, (_READ, 3)\n"
                    "_TYPED: int = 4\n_LATER = 5\n",
               "b": "import a\nfrom a import _used\n\nx = a._Made()\n"
                    "y = a._PAIR + a._LATER\n"}
    assert unused_private(sources) == [("a", "_Left"), ("a", "_TYPED"),
                                       ("a", "_UNREAD"), ("a", "_kept"),
                                       ("a", "_m")]


def test_every_private_function_is_used():
    sources = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unused_private(sources) == []


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_scope(node):
    """The nodes of `node`'s body outside its nested functions, lambdas
    and classes (whose names, but not bodies, are yielded)."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, _SCOPES):
            yield from _own_scope(child)


def unused_locals(source: str) -> list:
    """(line, function, name) of every local name a function binds (by
    assignment, loop, `with`, `except` or a nested `def`) and never reads,
    itself or in a nested function; names starting with `_` are exempt,
    and so are the `global` and `nonlocal` ones."""
    out = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {node.id for node in ast.walk(func)
                if isinstance(node, ast.Name) and
                isinstance(node.ctx, ast.Load)}
        bound, shared = {}, set()
        for node in _own_scope(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.setdefault(node.id, node.lineno)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bound.setdefault(node.name, node.lineno)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                bound.setdefault(node.name, node.lineno)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                shared.update(node.names)
        out += [(line, func.name, name) for name, line in bound.items()
                if name not in read and name not in shared
                and not name.startswith("_")]
    return sorted(out)


def test_lint_finds_an_unused_local():
    source = ("def f(a):\n"
              "    den, num = a\n"
              "    _skip = 1\n"
              "    for i in range(num):\n"
              "        pass\n"
              "    try:\n"
              "        pass\n"
              "    except ValueError as exc:\n"
              "        pass\n"
              "    kept = 2\n"
              "    def inner():\n"
              "        return kept\n"
              "    def spare():\n"
              "        pass\n"
              "    return inner()\n")
    assert unused_locals(source) == [(2, "f", "den"), (4, "f", "i"),
                                     (8, "f", "exc"), (13, "f", "spare")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_local_is_read(path):
    assert unused_locals(path.read_text()) == []


def direct_json_dumps(source: str) -> list:
    """Lines that read `json.dumps` outside the body of `_dumps`."""
    tree = ast.parse(source)
    inside = {id(node) for func in ast.walk(tree)
              if isinstance(func, ast.FunctionDef) and func.name == "_dumps"
              for node in ast.walk(func)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and
                  node.attr == "dumps" and isinstance(node.value, ast.Name)
                  and node.value.id == "json" and id(node) not in inside)


def test_lint_finds_a_direct_json_dumps():
    source = ("import json\n"
              "def _dumps(obj):\n"
              "    return json.dumps(obj, allow_nan=False)\n"
              "print(_dumps({}))\n"
              "print(json.dumps({}))\n"
              "encode = json.dumps\n")
    assert direct_json_dumps(source) == [5, 6]


def test_cli_encodes_json_only_through_dumps():
    assert direct_json_dumps((PACKAGE / "cli.py").read_text()) == []
