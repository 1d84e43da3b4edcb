"""Source hygiene checks that need nothing beyond the standard library."""

import ast
import os
import subprocess
import sys
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


def imported_packages(source):
    """The top-level package of every absolute import."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


# Records are named tuples: importing ``dataclasses`` (which loads
# ``inspect``, ``ast``, ``dis`` and ``tokenize``) and decorating the classes
# took longer than most counts.
def test_no_module_imports_dataclasses():
    assert [p.name for p in MODULES
            if "dataclasses" in imported_packages(p.read_text())] == []


def test_dataclasses_import_is_caught():
    source = ("from __future__ import annotations\n"
              "import dataclasses.field, json\n"
              "from . import groups\n"
              "def f():\n"
              "    from dataclasses import dataclass\n")
    assert list(imported_packages(source)) == [
        "__future__", "dataclasses", "json", "dataclasses"]


# ``rootdata.stable_point_orbits`` reads each torus orbit's semisimple type
# and hands it over as ``TorusOrbit.key``; a pipeline reads an orbit only
# through its key and ``label()``, so one that read a point, its modulus or
# its orbit would be a second reading of the type.
ORBIT_POINT_FIELDS = {"rep", "modulus", "orbit"}


def orbit_point_reads(source):
    """Every attribute in ``ORBIT_POINT_FIELDS`` that ``source`` reads."""
    return sorted(node.attr for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute)
                  and node.attr in ORBIT_POINT_FIELDS)


@pytest.mark.parametrize("name", ["spectral.py", "strata.py"])
def test_pipelines_take_the_type_key_from_rootdata(name):
    assert orbit_point_reads((SRC / name).read_text()) == []


def test_orbit_point_read_is_caught():
    source = ("def f(orbits, o):\n"
              "    pts = [x.rep for x in orbits]\n"
              "    return o.modulus, len(o.orbit), o.key, o.label(), pts\n"
              "def ok(orbit, rep):\n"
              "    return orbit.key, rep, orbit.reps\n")
    assert orbit_point_reads(source) == ["modulus", "orbit", "rep"]


# ``rootdata.acting_group`` builds the group acting on the dual torus from
# the spec; a pipeline that built the dual datum or moved a component onto
# the torus itself would be a second builder.
ACTING_BUILDERS = {"dual_datum", "x_action"}


def acting_builder_uses(source):
    """Every name in ``ACTING_BUILDERS`` that ``source`` imports (under
    any alias) or reads as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [a.name for a in node.names if a.name in ACTING_BUILDERS]
        elif isinstance(node, ast.Attribute) and node.attr in ACTING_BUILDERS:
            found.append(node.attr)
    return sorted(found)


@pytest.mark.parametrize("name", ["spectral.py", "strata.py"])
def test_pipelines_take_the_acting_group_from_rootdata(name):
    assert acting_builder_uses((SRC / name).read_text()) == []


def test_acting_group_builder_is_caught():
    source = ("from .rootdata import dual_datum as dd, x_preserves\n"
              "from . import rootdata\n"
              "def f(spec):\n"
              "    return rootdata.x_action(spec.components[0]), dd\n"
              "def ok(spec, x_actions):\n"
              "    return spec.twist.sigma_x, x_actions, x_preserves\n")
    assert acting_builder_uses(source) == ["dual_datum", "x_action"]


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = ("import sys\n"
            "bare = set(sys.modules)\n"
            "import lpackets.cli\n"
            "print(*sorted({'dataclasses', 'inspect'} & (set(sys.modules) - bare)))\n")
    path = [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


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


def defaults_never_passed(sources):
    """``function.parameter`` for every defaulted parameter of a private or
    nested function that no call in ``sources`` passes, by position or by
    keyword.  Calls are matched by the called name (``f(...)`` or
    ``m.f(...)``); a method's ``self`` or ``cls`` takes no call position,
    and a ``*args`` or ``**kwargs`` argument passes everything."""
    defaulted, calls = [], []

    def visit(node, nested, method):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if nested or (child.name.startswith("_")
                              and not child.name.startswith("__")):
                    a = child.args
                    positional = a.posonlyargs + a.args
                    defaults = [None] * (len(positional) - len(a.defaults))
                    defaults += a.defaults + a.kw_defaults
                    if method:
                        positional, defaults = positional[1:], defaults[1:]
                    names = [p.arg for p in positional + a.kwonlyargs]
                    defaulted.extend((child.name, name,
                                      pos if pos < len(positional) else None)
                                     for pos, (name, default)
                                     in enumerate(zip(names, defaults))
                                     if default is not None)
                visit(child, True, False)
            elif isinstance(child, ast.ClassDef):
                visit(child, nested, True)
            else:
                if isinstance(child, ast.Call):
                    calls.append(child)
                visit(child, nested, False)

    def passes(call, name, pos):
        return (any(k.arg in (name, None) for k in call.keywords)
                or any(isinstance(x, ast.Starred) for x in call.args)
                or (pos is not None and pos < len(call.args)))

    for source in sources:
        visit(ast.parse(source), False, False)
    return sorted(f"{f}.{name}" for f, name, pos in defaulted
                  if not any(_called_name(c) == f and passes(c, name, pos)
                             for c in calls))


# a default that no caller overrides is a constant in disguise
def test_every_default_of_a_private_function_is_passed():
    assert defaults_never_passed([p.read_text() for p in MODULES]) == []


def test_default_never_passed_is_caught():
    a = ("def _f(x, y=1, *, z=2):\n"
         "    return x\n"
         "def _g(a, b=0):\n"
         "    return a\n"
         "def _h(k=1):\n"
         "    return k\n"
         "def public(p=1):\n"
         "    def inner(q=None, r=3):\n"
         "        return r\n"
         "    inner(r=4)\n"
         "    return _f(1, 2)\n"
         "class K:\n"
         "    def _m(self, u=0, v=1):\n"
         "        return u\n"
         "    def run(self, w=2):\n"
         "        return self._m(5)\n")
    b = ("from .a import _g, _h\n"
         "_g(*args)\n"
         "_h(**opts)\n")
    assert defaults_never_passed([a, b]) == ["_f.z", "_m.v", "inner.q"]


def referenced_names(node):
    """Every name a node reads, as a bare name, an attribute or an import;
    an assignment target is not a read."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            yield n.attr
        elif isinstance(n, ast.ImportFrom):
            yield from (alias.name for alias in n.names)


def unreferenced_private(sources):
    """``module.name`` for every module-level ``_``-prefixed function or
    class that no module references outside its own definition."""
    defined, used = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            names = set(referenced_names(node))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.discard(node.name)
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.append((module, node.name))
            used |= names
    return sorted(f"{m}.{name}" for m, name in defined if name not in used)


def test_every_private_helper_is_referenced():
    sources = {p.stem: p.read_text() for p in MODULES}
    assert unreferenced_private(sources) == []


def test_unreferenced_private_helper_is_caught():
    a = ("def _called():\n"
         "    return 1\n"
         "def _recursive(n):\n"
         "    return _recursive(n - 1)\n"
         "class _Unused:\n"
         "    pass\n"
         "def _imported():\n"
         "    pass\n"
         "def _by_attribute():\n"
         "    pass\n"
         "def __getattr__(name):\n"
         "    pass\n"
         "def public():\n"
         "    return _called()\n")
    b = ("from .a import _imported\n"
         "from . import a\n"
         "f = a._by_attribute\n")
    assert unreferenced_private({"a": a, "b": b}) == ["a._Unused", "a._recursive"]


def defined_names(node):
    """The names a ``def``, ``class`` or plain assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {t.id for t in node.targets if isinstance(t, ast.Name)}
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return {node.target.id}
    return set()


def unread_public(sources):
    """``module.name`` for every public module-level function, class or
    constant (``__version__`` too, not ``__all__``), and
    ``module.Class.name`` for every public method or property, that no
    module reads outside its own definition.  Reads are matched by name, as
    ``referenced_names`` yields them, so the strings of ``__all__`` are not
    reads."""
    defined, used = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            own = defined_names(node)
            defined += [(module, name) for name in own if name != "__all__"
                        and (not name.startswith("_") or name.endswith("__"))]
            parts = [node]
            if isinstance(node, ast.ClassDef):
                parts = node.body + node.bases + node.keywords + node.decorator_list
                defined += [(f"{module}.{node.name}", m.name) for m in node.body
                            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not m.name.startswith("_")]
            for part in parts:
                used |= set(referenced_names(part)) - own - defined_names(part)
    return sorted(f"{where}.{name}" for where, name in defined if name not in used)


# the API the package promises beyond what its own modules read
PUBLIC_API = {
    "__init__.__version__": "the installed version, for users and packaging",
}


def test_every_public_name_has_a_reader():
    sources = {p.stem: p.read_text() for p in MODULES}
    assert unread_public(sources) == sorted(PUBLIC_API)


def test_unread_public_name_is_caught():
    a = ("__version__ = '1'\n"
         "__all__ = ['unread', 'LIMIT']\n"
         "LIMIT = 3\n"
         "UNUSED: int = 2\n"
         "def unread():\n"
         "    return LIMIT\n"
         "def recursive(n):\n"
         "    return recursive(n - 1)\n"
         "def stored():\n"
         "    pass\n"
         "def _private():\n"
         "    pass\n"
         "class K:\n"
         "    def __len__(self):\n"
         "        return 0\n"
         "    def used(self):\n"
         "        return self.helper()\n"
         "    def helper(self):\n"
         "        return K()\n"
         "    @property\n"
         "    def size(self):\n"
         "        return self.size\n")
    b = ("from .a import K\n"
         "stored = 1\n"
         "print(K().used)\n")
    assert unread_public({"a": a, "b": b}) == [
        "a.K.size", "a.UNUSED", "a.__version__", "a.recursive", "a.stored",
        "a.unread", "b.stored"]


CACHE_NAMES = {"lru_cache", "cache"}
MUTABLE_CALLS = {"dict", "list", "set", "bytearray", "defaultdict",
                 "OrderedDict", "Counter", "deque"}
MUTABLE_NODES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                 ast.SetComp)


def _called_name(node):
    """The name a call or decorator refers to: ``f`` for ``f``, ``m.f``,
    ``f(...)`` and ``m.f(...)``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def process_wide_state(source):
    """``name:line`` for every function cached by ``lru_cache``/``cache``
    (as a decorator or a call anywhere), every module- or class-level
    binding of a mutable value except ``__all__``, and every ``global``
    statement: state that outlives one call into the module."""
    tree = ast.parse(source)
    functions = [f for f in ast.walk(tree)
                 if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
    decorators = {id(d) for f in functions for d in f.decorator_list}
    out = [f"{f.name}:{f.lineno}" for f in functions
           if any(_called_name(d) in CACHE_NAMES for d in f.decorator_list)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in decorators \
                and _called_name(node) in CACHE_NAMES:
            out.append(f"{_called_name(node)}:{node.lineno}")
        elif isinstance(node, ast.Global):
            out += [f"{name}:{node.lineno}" for name in node.names]
    scopes = [tree.body] + [c.body for c in tree.body if isinstance(c, ast.ClassDef)]
    for body in scopes:
        for node in body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if names == ["__all__"]:
                continue
            if isinstance(value, MUTABLE_NODES) or (
                    isinstance(value, ast.Call)
                    and _called_name(value) in MUTABLE_CALLS):
                out += [f"{name}:{node.lineno}" for name in names or ["?"]]
    return sorted(out)


# the cell structure of a factor type is a fixed table of the type alone;
# ``_scope`` is the memo table of the pipeline call in progress, None between
# calls (``tests/test_report.py`` checks that no table outlives its call)
ALLOWED_STATE = {"strata.py": ["_standalone"], "groups.py": ["_scope"]}


@pytest.mark.parametrize("name", ["spectral.py", "strata.py", "groups.py"])
def test_no_process_wide_state_in_pipelines(name):
    found = process_wide_state((SRC / name).read_text())
    assert [f.split(":")[0] for f in found] == ALLOWED_STATE.get(name, [])


def test_process_wide_state_is_caught():
    source = ("import functools\n"
              "from functools import lru_cache, cache\n"
              "__all__ = ['f']\n"
              "TABLE = {}\n"
              "SEEN: set = set()\n"
              "LIMIT = 10\n"
              "NAMES = ('a', 'b')\n"
              "class K:\n"
              "    memo = []\n"
              "    size = 3\n"
              "@lru_cache(maxsize=None)\n"
              "def f(x):\n"
              "    local = {}\n"
              "    return local\n"
              "@functools.cache\n"
              "def g():\n"
              "    global LIMIT\n"
              "    LIMIT = 1\n"
              "h = cache(len)\n")
    assert process_wide_state(source) == [
        "LIMIT:17", "SEEN:5", "TABLE:4", "cache:19", "f:12", "g:16",
        "memo:9"]


def group_builders(sources):
    """``module.definition`` for every ``FiniteGroup(...)`` call, named by
    its enclosing definitions (``<module>`` outside any)."""
    out = []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path + [child.name])
                continue
            if isinstance(child, ast.Call) and _called_name(child) == "FiniteGroup":
                out.append(".".join(path if len(path) > 1 else path + ["<module>"]))
            visit(child, path)

    for module, source in sources.items():
        visit(ast.parse(source), [module])
    return sorted(out)


# ``groups.table_group`` is the one constructor of a group, so every group
# carries the objects it was built from and no module lays out an index
def test_every_group_is_built_by_table_group():
    found = group_builders({p.stem: p.read_text() for p in MODULES})
    assert "groups.table_group" in found
    assert [f for f in found if f != "groups.table_group"] == []


def test_group_built_outside_table_group_is_caught():
    source = ("from .groups import FiniteGroup\n"
              "G = FiniteGroup((), ())\n"
              "def table_group(e):\n"
              "    return FiniteGroup(e)\n"
              "class K:\n"
              "    def make(self):\n"
              "        return groups.FiniteGroup(f(FiniteGroup(1)))\n")
    assert group_builders({"m": source}) == [
        "m.<module>", "m.K.make", "m.K.make", "m.table_group"]


def table_reads(source):
    """``(line, attribute)`` for every read of a ``.table`` or ``.mul``."""
    return sorted((node.lineno, node.attr)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("table", "mul"))


# the pipelines multiply group elements only through ``groups`` (its
# twisted images, classes, subgroups and products), never by table lookups
@pytest.mark.parametrize("name", ["spectral.py", "strata.py"])
def test_pipelines_multiply_only_through_groups(name):
    assert table_reads((SRC / name).read_text()) == []


def test_table_read_is_caught():
    source = ("def act(g, h, x):\n"
              "    y = g.mul(h, x)\n"
              "    t = g.table\n"
              "    mul = table = None\n"
              "    return t[y][x], mul, table, g.inverse, g.tables\n"
              "z = groups.FiniteGroup.mul\n")
    assert table_reads(source) == [(2, "mul"), (3, "table"), (6, "mul")]


SPLIT_METHODS = {"split", "rsplit", "partition", "rpartition"}


def calls_by_definition(sources, match):
    """``module.definition`` for every call ``match`` accepts, named by its
    enclosing definitions (``<module>`` outside any)."""
    out = []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path + [child.name])
                continue
            if isinstance(child, ast.Call) and match(child):
                out.append(".".join(path if len(path) > 1 else path + ["<module>"]))
            visit(child, path)

    for module, source in sources.items():
        visit(ast.parse(source), [module])
    return sorted(out)


def type_string_splits(sources):
    """Every ``split``, ``rsplit``, ``partition`` or ``rpartition`` call
    whose separator is ``"x"`` or holds a ``"+"``, as
    ``calls_by_definition`` names it."""
    def match(call):
        if not (isinstance(call.func, ast.Attribute)
                and call.func.attr in SPLIT_METHODS):
            return False
        seps = call.args[:1] + [k.value for k in call.keywords if k.arg == "sep"]
        return any(isinstance(s, ast.Constant) and isinstance(s.value, str)
                   and (s.value == "x" or "+" in s.value) for s in seps)
    return calls_by_definition(sources, match)


# ``rootdata.parse_type`` is the one reader of a type string: every other
# module takes the factors and the torus rank from it, or a ``SubSystem``
def test_only_the_type_parser_splits_type_strings():
    found = type_string_splits({p.stem: p.read_text() for p in MODULES})
    assert set(found) == {"rootdata.parse_type"}


def test_type_string_split_is_caught():
    source = ("head, _, tail = t.partition('+')\n"
              "def label(t):\n"
              "    return t.rsplit('+T', 1), t.split(sep='x'), t.split('.')\n"
              "class K:\n"
              "    def factors(self, t):\n"
              "        return t.replace('+', 'x').split('x'), t.rpartition('+')\n"
              "def ok(t):\n"
              "    return t.split(), t.split(','), t.partition(sep)\n")
    assert type_string_splits({"m": source}) == [
        "m.<module>", "m.K.factors", "m.K.factors", "m.label", "m.label"]


def kl_calls(sources):
    """Every call of ``kl_table`` or ``cells``, by name or as an attribute,
    as ``calls_by_definition`` names it."""
    def match(call):
        f = call.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        return name in ("kl_table", "cells")
    return calls_by_definition(sources, match)


# KL polynomials and cells are computed for the four simple types alone; a
# product reads its cells from its factors' (``strata._subsystem_cells``)
def test_only_the_standalone_cache_runs_kl():
    found = kl_calls({p.stem: p.read_text() for p in MODULES})
    assert set(found) == {"strata._standalone"}


def test_kl_call_is_caught():
    source = ("part = cells(kl_table(cox))\n"
              "class K:\n"
              "    def walk(self, cox):\n"
              "        return coxeter.cells(coxeter.kl_table(cox))\n"
              "def ok(cox):\n"
              "    return kl_tables(cox), cox.cells, cells_of(cox)\n")
    assert kl_calls({"m": source}) == [
        "m.<module>", "m.<module>", "m.K.walk", "m.K.walk"]
