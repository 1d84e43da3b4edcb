"""Source hygiene checks that need nothing beyond the standard library."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "lpackets"
MODULES = sorted(SRC.glob("*.py"))


def imported_names(tree):
    """Every name an import statement binds, except ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def exported_names(tree):
    """The string entries of a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts
                    if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(source):
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exported_names(tree)
    return sorted(set(imported_names(tree)) - used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_caught():
    source = ("from __future__ import annotations\n"
              "import json\n"
              "from os import path, sep\n"
              "from sys import argv as args\n"
              "__all__ = ['sep']\n"
              "print(path)\n")
    assert unused_imports(source) == ["args", "json"]


def module_imports(source):
    """The sibling modules a module imports at load time: its relative
    imports outside functions and ``if TYPE_CHECKING:`` blocks."""
    out = set()
    stack = list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING"):
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return out


def cyclic_modules(graph):
    """The modules left after repeatedly dropping every module that imports
    none of the remaining ones: empty exactly when ``graph`` is acyclic."""
    left = dict(graph)
    while True:
        done = [m for m, deps in left.items() if not deps & left.keys()]
        if not done:
            return sorted(left)
        for m in done:
            del left[m]


def test_no_import_cycles():
    graph = {p.stem: module_imports(p.read_text()) for p in MODULES}
    assert cyclic_modules(graph) == []


def test_import_cycle_is_caught():
    a = ("from typing import TYPE_CHECKING\n"
         "from .b import f\n"
         "if TYPE_CHECKING:\n"
         "    from .c import T\n"
         "def g():\n"
         "    from .c import h\n"
         "try:\n"
         "    from .d import k\n"
         "except ImportError:\n"
         "    pass\n")
    b = "from . import a\n"
    assert module_imports(a) == {"b", "d"}
    assert module_imports(b) == {"a"}
    assert cyclic_modules({"a": module_imports(a), "b": module_imports(b),
                           "c": {"a"}}) == ["a", "b", "c"]
    assert cyclic_modules({"a": module_imports(a), "b": set(),
                           "c": {"a"}}) == []


def unread_parameters(source):
    """``function.parameter`` for every parameter of a ``def`` or ``lambda``
    that its body never reads; ``self``, ``cls`` and ``_``-prefixed names are
    exempt.  A read inside a nested function counts."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for b in body for n in ast.walk(b)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        out += [f"{name}.{p.arg}" for p in params
                if p.arg not in read and p.arg not in ("self", "cls")
                and not p.arg.startswith("_")]
    return sorted(out)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def test_unread_parameter_is_caught():
    source = ("class A:\n"
              "    def m(self, x, y, _z):\n"
              "        def inner():\n"
              "            return x\n"
              "        return inner\n"
              "def f(a, *args, b=None, **kw):\n"
              "    return lambda u, v: a + u\n"
              "@classmethod\n"
              "def g(cls, c=len):\n"
              "    return kw\n")
    assert unread_parameters(source) == ["<lambda>.v", "f.args", "f.b", "f.kw",
                                         "g.c", "m.y"]
