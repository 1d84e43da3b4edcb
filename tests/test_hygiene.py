"""Source hygiene checks that need nothing beyond the standard library."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "lpackets"
MODULES = sorted(SRC.glob("*.py"))
SOURCES = {p.stem: p.read_text() for p in MODULES}


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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def private(name):
    """Whether a name, or the last part of a dotted one, is ``_``-prefixed
    but not dunder."""
    last = name.rsplit(".", 1)[-1]
    return last.startswith("_") and not last.startswith("__")


def scoped_nodes(tree):
    """Every node below ``tree`` with the ``def`` and ``class`` nodes that
    enclose it, outermost first; a definition encloses its decorators and
    arguments too, but not itself."""
    stack = [(tree, ())]
    while stack:
        node, scope = stack.pop()
        for child in ast.iter_child_nodes(node):
            yield child, scope
            inner = (child,) if isinstance(child, (*FUNCTIONS, ast.ClassDef)) else ()
            stack.append((child, scope + inner))


def defaults_never_passed(sources):
    """``function.parameter`` for every defaulted parameter of a private or
    nested function that no call in ``sources`` passes, by position or by
    keyword.  Calls are matched by the called name (``f(...)`` or
    ``m.f(...)``); a method's ``self`` or ``cls`` takes no call position,
    and a ``*args`` or ``**kwargs`` argument passes everything."""
    nodes = [n for source in sources for n in scoped_nodes(ast.parse(source))]
    calls = [node for node, _ in nodes if isinstance(node, ast.Call)]
    defaulted = []
    for node, scope in nodes:
        nested = any(isinstance(d, FUNCTIONS) for d in scope)
        if not isinstance(node, FUNCTIONS) or not (nested or private(node.name)):
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        defaults = [None] * (len(positional) - len(a.defaults))
        defaults += a.defaults + a.kw_defaults
        if scope and isinstance(scope[-1], ast.ClassDef):
            positional, defaults = positional[1:], defaults[1:]
        names = [p.arg for p in positional + a.kwonlyargs]
        defaulted += [(node.name, name, pos if pos < len(positional) else None)
                      for pos, (name, default) in enumerate(zip(names, defaults))
                      if default is not None]

    def passes(call, name, pos):
        return (any(k.arg in (name, None) for k in call.keywords)
                or any(isinstance(x, ast.Starred) for x in call.args)
                or (pos is not None and pos < len(call.args)))

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


def defined_names(node):
    """The names a ``def``, ``class`` or plain assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {t.id for t in node.targets if isinstance(t, ast.Name)}
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return {node.target.id}
    return set()


def unread_names(sources):
    """``module.name`` for every module-level function, class or constant,
    private or public (``__version__`` too, not ``__all__``), and
    ``module.Class.name`` for every method or property but the dunder ones,
    that no module reads outside its own definition.  Reads are matched by
    name, as ``referenced_names`` yields them, so the strings of ``__all__``
    are not reads."""
    defined, used = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            own = defined_names(node)
            defined += [(module, name) for name in own if name != "__all__"]
            parts = [node]
            if isinstance(node, ast.ClassDef):
                parts = node.body + node.bases + node.keywords + node.decorator_list
                defined += [(f"{module}.{node.name}", m.name) for m in node.body
                            if isinstance(m, FUNCTIONS)
                            and not m.name.startswith("__")]
            for part in parts:
                used |= set(referenced_names(part)) - own - defined_names(part)
    return sorted(f"{where}.{name}" for where, name in defined if name not in used)


# the API the package promises beyond what its own modules read
PUBLIC_API = {
    "__init__.__version__": "the installed version, for users and packaging",
}


def test_every_private_helper_is_referenced():
    assert [n for n in unread_names(SOURCES) if private(n)] == []


def test_every_public_name_has_a_reader():
    assert [n for n in unread_names(SOURCES) if not private(n)] == sorted(PUBLIC_API)


# planted modules for the two checks above
PLANTED_A = ("__version__ = '1'\n"
             "__all__ = ['unread', 'LIMIT']\n"
             "LIMIT = 3\n"
             "UNUSED: int = 2\n"
             "def unread():\n"
             "    return LIMIT\n"
             "def recursive(n):\n"
             "    return recursive(n - 1)\n"
             "def stored():\n"
             "    pass\n"
             "def _by_attribute():\n"
             "    pass\n"
             "def _imported():\n"
             "    pass\n"
             "class _Unused:\n"
             "    pass\n"
             "class K:\n"
             "    def __len__(self):\n"
             "        return 0\n"
             "    def used(self):\n"
             "        return self._helper()\n"
             "    def _helper(self):\n"
             "        return K()\n"
             "    def _spare(self):\n"
             "        return 1\n"
             "    @property\n"
             "    def size(self):\n"
             "        return self.size\n")
PLANTED_B = ("from .a import K, _imported\n"
             "from . import a\n"
             "stored = a._by_attribute\n"
             "print(K().used)\n")
PLANTED = {"a": PLANTED_A, "b": PLANTED_B}


def test_unreferenced_private_helper_is_caught():
    assert [n for n in unread_names(PLANTED) if private(n)] == [
        "a.K._spare", "a._Unused"]


def test_unread_public_name_is_caught():
    assert [n for n in unread_names(PLANTED) if not private(n)] == [
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
    nodes = list(scoped_nodes(ast.parse(source)))
    decorators = {id(d) for f, _ in nodes if isinstance(f, FUNCTIONS)
                  for d in f.decorator_list}
    out = []
    for node, scope in nodes:
        if isinstance(node, FUNCTIONS) and any(
                _called_name(d) in CACHE_NAMES for d in node.decorator_list):
            out.append(f"{node.name}:{node.lineno}")
        elif isinstance(node, ast.Call) and id(node) not in decorators \
                and _called_name(node) in CACHE_NAMES:
            out.append(f"{_called_name(node)}:{node.lineno}")
        elif isinstance(node, ast.Global):
            out += [f"{name}:{node.lineno}" for name in node.names]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and len(scope) < 2 \
                and all(isinstance(d, ast.ClassDef) for d in scope):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if names != ["__all__"] and (isinstance(node.value, MUTABLE_NODES) or (
                    isinstance(node.value, ast.Call)
                    and _called_name(node.value) in MUTABLE_CALLS)):
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


def rule_hits(sources, match):
    """``module.definition`` for every node ``match`` accepts, named by its
    enclosing definitions (``<module>`` outside any)."""
    return sorted(".".join([module, *([d.name for d in scope] or ["<module>"])])
                  for module, source in sources.items()
                  for node, scope in scoped_nodes(ast.parse(source)) if match(node))


def named(node, kind, names):
    """Whether ``node`` is a ``kind`` node (an attribute or a call) whose
    name, as ``_called_name`` reads it, is in ``names``."""
    return isinstance(node, kind) and _called_name(node) in names


def imports(node, names):
    """Whether ``node`` imports a name in ``names``, or a package in
    ``names`` by an absolute import."""
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] in names for a in node.names)
    return isinstance(node, ast.ImportFrom) and (
        any(a.name in names for a in node.names)
        or node.level == 0 and node.module.split(".")[0] in names)


def type_string_split(node):
    """A ``split``, ``rsplit``, ``partition`` or ``rpartition`` call whose
    separator is ``"x"`` or holds a ``"+"``."""
    if not named(node, ast.Call, {"split", "rsplit", "partition", "rpartition"}):
        return False
    seps = node.args[:1] + [k.value for k in node.keywords if k.arg == "sep"]
    return any(isinstance(s, ast.Constant) and isinstance(s.value, str)
               and (s.value == "x" or "+" in s.value) for s in seps)


PIPELINES = ("spectral", "strata")
ACTING_BUILDERS = {"dual_datum", "x_action"}

# Each rule forbids what its match accepts in ``modules``, outside the
# allowed definitions, and each allowed definition must hold a match.  Its
# planted source shows the definitions that the match finds there.  A row's
# key names its two tests, on the package and on the planted source.
RULES = {
    ("test_no_module_imports_dataclasses",
     "test_dataclasses_import_is_caught"): (
        lambda n: imports(n, {"dataclasses"}), SOURCES, (),
        "records are named tuples: importing dataclasses (which loads inspect, "
        "ast, dis and tokenize) and decorating the classes took longer than "
        "most counts",
        "from __future__ import annotations\n"
        "import dataclasses.field, json\n"
        "from . import groups\n"
        "def f():\n"
        "    from dataclasses import dataclass\n",
        ["m.<module>", "m.f"]),
    ("test_pipelines_take_the_type_key_from_rootdata",
     "test_orbit_point_read_is_caught"): (
        lambda n: named(n, ast.Attribute, {"rep", "modulus", "orbit"}),
        PIPELINES, (),
        "rootdata.stable_point_orbits hands each torus orbit's semisimple type "
        "over as TorusOrbit.key; a pipeline reads an orbit only through its key "
        "and label, so one that read a point, its modulus or its orbit would "
        "make a second reading of the type",
        "def f(orbits, o):\n"
        "    pts = [x.rep for x in orbits]\n"
        "    return o.modulus, len(o.orbit), o.key, o.label, pts\n"
        "def ok(orbit, rep):\n"
        "    return orbit.key, rep, orbit.reps\n",
        ["m.f", "m.f", "m.f"]),
    ("test_pipelines_take_the_acting_group_from_rootdata",
     "test_acting_group_builder_is_caught"): (
        lambda n: imports(n, ACTING_BUILDERS)
        or named(n, ast.Attribute, ACTING_BUILDERS), PIPELINES, (),
        "rootdata.acting_group builds the group acting on the dual torus from "
        "the spec; a pipeline that built the dual datum or moved a component "
        "onto the torus itself would be a second builder",
        "from .rootdata import dual_datum as dd, x_preserves\n"
        "from . import rootdata\n"
        "def f(spec):\n"
        "    return rootdata.x_action(spec.components[0]), dd\n"
        "def ok(spec, x_actions):\n"
        "    return spec.twist.sigma_x, x_actions, x_preserves\n",
        ["m.<module>", "m.f"]),
    ("test_pipelines_multiply_only_through_groups",
     "test_table_read_is_caught"): (
        lambda n: named(n, ast.Attribute, {"table", "mul"}), PIPELINES, (),
        "the pipelines multiply group elements only through groups (its twisted "
        "images, classes, subgroups and products), never by table lookups",
        "def act(g, h, x):\n"
        "    y = g.mul(h, x)\n"
        "    t = g.table\n"
        "    mul = table = None\n"
        "    return t[y][x], mul, table, g.inverse, g.tables\n"
        "z = groups.FiniteGroup.mul\n",
        ["m.<module>", "m.act", "m.act"]),
    ("test_every_group_is_built_by_table_group",
     "test_group_built_outside_table_group_is_caught"): (
        lambda n: named(n, ast.Call, {"FiniteGroup"}), SOURCES,
        ("groups.table_group",),
        "groups.table_group is the one constructor of a group, so every group "
        "carries the objects it was built from and no module lays out an index",
        "from .groups import FiniteGroup\n"
        "G = FiniteGroup((), ())\n"
        "def table_group(e):\n"
        "    return FiniteGroup(e)\n"
        "class K:\n"
        "    def make(self):\n"
        "        return groups.FiniteGroup(f(FiniteGroup(1)))\n",
        ["m.<module>", "m.K.make", "m.K.make", "m.table_group"]),
    ("test_only_the_type_parser_splits_type_strings",
     "test_type_string_split_is_caught"): (
        type_string_split, SOURCES, ("rootdata.parse_type",),
        "rootdata.parse_type is the one reader of a type string: every other "
        "module takes the factors and the torus rank from it, or a SubSystem",
        "head, _, tail = t.partition('+')\n"
        "def label(t):\n"
        "    return t.rsplit('+T', 1), t.split(sep='x'), t.split('.')\n"
        "class K:\n"
        "    def factors(self, t):\n"
        "        return t.replace('+', 'x').split('x'), t.rpartition('+')\n"
        "def ok(t):\n"
        "    return t.split(), t.split(','), t.partition(sep)\n",
        ["m.<module>", "m.K.factors", "m.K.factors", "m.label", "m.label"]),
    ("test_only_the_standalone_cache_runs_kl",
     "test_kl_call_is_caught"): (
        lambda n: named(n, ast.Call, {"kl_table", "cells"}), SOURCES,
        ("strata._standalone",),
        "KL polynomials and cells are computed for the four simple types alone; "
        "a product reads its cells from its factors' (strata._subsystem_cells)",
        "part = cells(kl_table(cox))\n"
        "class K:\n"
        "    def walk(self, cox):\n"
        "        return coxeter.cells(coxeter.kl_table(cox))\n"
        "def ok(cox):\n"
        "    return kl_tables(cox), cox.cells, cells_of(cox)\n",
        ["m.<module>", "m.<module>", "m.K.walk", "m.K.walk"]),
    ("test_oracle_has_one_block_multiplier",
     "test_translate_is_caught"): (
        lambda n: named(n, ast.Attribute, {"translate"}), SOURCES, (),
        "oracle.matrix_closure multiplies a block by shifting and mapping each "
        "row position; a bytes.translate path for rows that fit in a byte would "
        "be a second multiplier for the same products",
        "def times(block, table):\n"
        "    return [x.translate(table) for x in block]\n"
        "moved = map(bytes.translate, rows, tables)\n"
        "class K:\n"
        "    def ok(self, t, translate):\n"
        "        return translate(t), t.transpose(), t.translated\n",
        ["m.<module>", "m.times"]),
}


def rule_tests(match, modules, allowed, reason, planted, hits):
    """The two tests of a ``RULES`` row: that the package holds to it, one
    test per module for a pipeline rule, and that its match finds the
    planted hits."""
    def holds(scope):
        found = rule_hits({m: SOURCES[m] for m in scope}, match)
        assert set(found) == set(allowed), reason

    def caught():
        assert rule_hits({"m": planted}, match) == hits

    def per_module(module):
        holds([module])
    if modules is PIPELINES:
        return pytest.mark.parametrize("module", PIPELINES, ids=[
            f"{m}.py" for m in PIPELINES])(per_module), caught
    return lambda: holds(modules), caught


for names, row in RULES.items():
    globals().update(zip(names, rule_tests(*row)))


def name_graph(sources):
    """``module.name`` -> the ``module.name``s its definition reads, for
    every module-level name.  A read resolves to its own module's name, or
    through a relative import: ``from .m import f`` binds ``f`` to ``m.f``,
    and ``from . import m`` binds every name of ``m``, so that ``m.f``
    resolves.  A class reads whatever its methods read."""
    trees = {m: ast.parse(s) for m, s in sources.items()}
    top = {m: {name: node for node in tree.body for name in defined_names(node)}
           for m, tree in trees.items()}
    graph = {}
    for module, tree in trees.items():
        binds = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module:
                        binds[a.asname or a.name] = f"{node.module}.{a.name}"
                    else:
                        binds.update((name, f"{a.name}.{name}") for name in top[a.name])
        binds.update((name, f"{module}.{name}") for name in top[module])
        for name, node in top[module].items():
            graph[f"{module}.{name}"] = {binds[r] for r in referenced_names(node)
                                         if r in binds}
    return graph


def shared_names(sources, *roots):
    """The ``module.name``s that every root reaches in ``name_graph``."""
    graph = name_graph(sources)

    def reached(root):
        seen, stack = {root}, [root]
        while stack:
            for name in graph.get(stack.pop(), ()) - seen:
                seen.add(name)
                stack.append(name)
        return seen
    return sorted(set.intersection(*map(reached, roots)))


# The checks that guard a counting definition both pipelines run; none reads
# a pipeline, so a fault there cannot move both totals unseen.
IDENTITIES_A_B = ("test_references.py::test_semisimple_class_count_closed_form",
                  "test_references.py::test_semisimple_class_count_steinberg")
TWISTED_CLASSES = ("test_groups.py::test_twisted_classes_inside_a_semidirect_product",)
UNIPOTENT_COUNTS = ("test_references.py::test_unipotent_counts_per_type",)

# What the spectral and the stratified pipelines both reach, as (tag, module,
# names, reason): plumbing has one reason per module, and each counting
# entry names the checks that guard it.
SHARED = [
    ("plumbing", "coxeter", "CoxeterGroup enumerate_weyl reflection_on_y",
     "the Weyl group of a root datum"),
    ("plumbing", "errors", "InvariantError LPacketsError UnsupportedTypeError",
     "the package's errors"),
    ("plumbing", "groups",
     "CLOSURE_BLOCK Closure Packet Stratum _cycle_label _scope call_scope "
     "closure cyclic direct_product from_permutations memo orbits permuted "
     "semidirect strata_by_type strong_components symmetric table_group",
     "the orbit and closure loops, the group constructors, the per-call memo "
     "table and the records both pipelines emit"),
    ("plumbing", "lattice",
     "Matrix Vector _eliminate adjugate identity mat_inv_unimodular "
     "mat_mul mat_vec solve_integral transpose",
     "integer matrix arithmetic"),
    ("plumbing", "rootdata",
     "MAX_TORSION_POINTS RootDatum SubSystem TorusOrbit "
     "_classify_component _reduced dual_datum factor_permutation point_label "
     "whittaker_torsor_size x_action x_preserves",
     "the root datum, its dual, the torus orbit and subsystem records, and the "
     "Whittaker torsor size that a spec keeps for its reports"),
    ("plumbing", "springer",
     "SpecialClassRecord _ABAR_GROUPS abar_group assemble_product_group "
     "group_structure_label induced_automorphism",
     "family groups built from their labels, and their names"),
    ("counting", "lattice", "solve_torsion", IDENTITIES_A_B),
    # a spec builds its acting group and its torus orbits once, and both
    # pipelines read them from it
    ("counting", "rootdata",
     "GroupSpec acting_group centralizer_subdatum stable_point_orbits",
     IDENTITIES_A_B),
    ("counting", "groups", "FiniteGroup", TWISTED_CLASSES),
    ("counting", "springer", "_TABLES special_classes", UNIPOTENT_COUNTS),
]


def test_shared_code_is_in_the_ledger():
    found = shared_names(SOURCES, "spectral.spectral_strata",
                         "strata.stratified_strata")
    assert set(found) == {f"{module}.{name}" for _, module, names, _ in SHARED
                          for name in names.split()}
    for tag, _, _, why in SHARED:
        assert tag == "plumbing" or all(
            f"\ndef {test}(" in Path(__file__).with_name(file).read_text()
            for file, test in (guard.split("::") for guard in why)), why


def test_shared_name_is_caught():
    a = ("from .m import K, f\n"
         "from . import n\n"
         "def run_a(x):\n"
         "    return f() + n.g() + K + x.make\n")
    b = ("from .m import make, f as first\n"
         "from .n import g\n"
         "def run_b():\n"
         "    return make().size + first() + g()\n")
    m = ("def f():\n"
         "    return 1\n"
         "def make():\n"
         "    return K()\n"
         "class K:\n"
         "    def size(self):\n"
         "        return helper()\n"
         "def helper():\n"
         "    return 2\n")
    n = "def g():\n    return 3\n"
    assert shared_names({"a": a, "b": b, "m": m, "n": n}, "a.run_a",
                        "b.run_b") == ["m.K", "m.f", "m.helper", "n.g"]
