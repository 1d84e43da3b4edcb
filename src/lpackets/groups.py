"""Finite groups given by explicit multiplication tables.

Component groups, their extensions, and the twisted-conjugation bookkeeping
all happen on groups of order at most a few dozen, so everything is stored as
a full table.  Every group is built by ``table_group`` from the objects it
is made of (matrices, permutations, tuples of factor indices) and carries
them: element i is ``elements[i]``, ``index`` maps an object back to i, and
``labels[i]`` is its canonical name in reports.  Ties are always broken by
label so that output is deterministic.  So no caller computes the position
of a product element by hand: a direct product's elements are the tuples of
its factor indices, a semidirect product's the pairs (g, v).

``orbits`` (a finite group acting on a finite set), ``closure`` (the group
some elements generate, with its right Cayley tables, or any set closed
under right multiplication), ``strong_components``
(of a small digraph) and ``table_group`` (the multiplication table of a
closed set) are the package's one orbit loop, closure loop, component loop
and table loop; ``orbits`` is also the one check that an action keeps to the
set it walks.  ``FiniteGroup.twisted_images`` (the images b x f(b)^-1 of
x over every b) is the one formula of twisted conjugation: twisted classes
and twisted centralizers both read it, and a pipeline that acts by twisted
conjugation on part of a group walks ``orbits`` of it.

``Packet`` and ``Stratum`` are the one record both counting pipelines emit
and the reports render: each pipeline counts its packets on its own groups,
then hands over only labels and sizes.  Both are values: immutable named
tuples whose fields are strings, numbers and tuples, so equal fields make
equal records, a record hashes, and a memo result can be shared as it is.

Three pieces of plumbing both pipelines share live here too, and no
counting: ``strata_by_type`` is the per-type strata table (each semisimple
type's strata are built once, and every torus orbit of that type gets them
under its own label), ``permuted`` is the factor-permutation move (entry i of
a per-factor tuple goes to slot perm[i]), and ``call_scope`` with ``memo``
is the per-call memo.  Each pipeline runs its whole body in one
``call_scope``; inside it a ``memo`` function (lattice products and
inverses, reflection groups, integral subsystems, product component groups,
stratum packets) computes each distinct input once.  The table is dropped
when the call ends, so no result crosses from one pipeline call to another,
or to the oracle.  Outside a scope a ``memo`` function runs on every call.
A ``FiniteGroup`` compares and hashes by value, so a group can be part of a
memo key.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from contextlib import contextmanager
from functools import wraps
from itertools import compress, count, permutations, product, repeat
from operator import is_

from .errors import InvariantError


class Packet(namedtuple("Packet", "x_label size group_label")):
    """One parameter of a stratum: the twisted class of ``x_label`` and its
    packet, of ``size`` irreducible characters of the centralizer named
    ``group_label``."""
    __slots__ = ()


class Stratum(namedtuple("Stratum", "ss_label labels group_desc packets")):
    """The parameters over one semisimple label; ``labels`` names the
    stratum in the pipeline's own terms, as (name, value) pairs in render
    order, ``group_desc`` the group whose twisted classes are the packets,
    and ``packets`` is a tuple of ``Packet``."""
    __slots__ = ()

    @property
    def total(self) -> int:
        return sum(p.size for p in self.packets)


# The memo table of the pipeline call in progress: None between calls.
_scope = None


@contextmanager
def call_scope():
    """One pipeline call's memo table, for ``memo`` functions to fill.  A
    scope opened inside another shares its table; the outermost scope drops
    the table on exit, whether the call returned or raised."""
    global _scope
    if _scope is not None:
        yield
        return
    _scope = {}
    try:
        yield
    finally:
        _scope = None


def memo(fn):
    """``fn`` computed once per distinct positional arguments inside a
    ``call_scope``, and on every call outside one.

    The key is ``(fn, args)``, so every positional argument must be hashable
    and equal arguments must give equal results.  Keyword arguments (an
    ``rng`` that only orders a walk) pass through and are not part of the
    key.  A call that raises stores nothing.  The result is shared by every
    caller in the scope, so no caller may mutate it.  Each computing call
    looks the undecorated function up as ``__wrapped__``, where a test can
    put a spy.
    """
    @wraps(fn)
    def memoized(*args, **kwargs):
        table = _scope
        if table is None:
            return memoized.__wrapped__(*args, **kwargs)
        key = (fn, args)
        try:
            return table[key]
        except KeyError:
            pass
        value = table[key] = memoized.__wrapped__(*args, **kwargs)
        return value
    return memoized


def strata_by_type(torus_orbits, build) -> list[Stratum]:
    """The strata over every orbit of ``torus_orbits`` (``TorusOrbit``s), in
    orbit order.  ``build(key)`` gives the strata of one semisimple type with
    an empty semisimple label and runs once per ``TorusOrbit.key``; each orbit
    of that type gets them under ``orbit.label()``."""
    by_type: dict[tuple, list[Stratum]] = {}
    strata = []
    for orbit in torus_orbits:
        if orbit.key not in by_type:
            by_type[orbit.key] = build(orbit.key)
        label = orbit.label()
        strata += [st._replace(ss_label=label) for st in by_type[orbit.key]]
    return strata


def permuted(entries, perm) -> tuple:
    """``entries`` with entry i moved to slot perm[i]: how the factor
    permutations of ``rootdata.factor_permutation`` move a tuple of
    per-factor entries, stated once."""
    out = [None] * len(entries)
    for target, x in zip(perm, entries):
        out[target] = x
    return tuple(out)


def orbits(items, images) -> list[tuple]:
    """Orbits of a whole finite group on ``items``, in first-seen order.

    ``images(x)`` lists g(x) for every g in the group, in one fixed order.
    Each orbit comes back as ``(x, imgs)``: its first-seen point x and the
    list ``images(x)``, whose set is the orbit.  That is one pass over the
    group and no closure.  The orbits must partition ``items``: an image set
    that misses its start or leaves the items no orbit has taken raises.
    """
    remaining = set(items)
    out = []
    for x in items:
        if x not in remaining:
            continue
        imgs = images(x)
        orbit = set(imgs)
        if not (x in orbit and orbit <= remaining):
            raise InvariantError("the acting set is not a group on the items: "
                                 "its image sets do not partition them")
        remaining -= orbit
        out.append((x, imgs))
    return out


class Closure:
    """A set closed under right multiplication by generators: ``elements``
    in breadth-first order from the seeds (for a group, the identity, which
    is element 0), and its right Cayley tables, ``right[k][i]`` the index of
    ``elements[i]`` times generator k.  Its ``len`` is the element count."""
    __slots__ = ("elements", "right")

    def __init__(self, elements, right):
        self.elements = elements
        self.right = right

    def __len__(self) -> int:
        return len(self.elements)


# Elements closed per step of ``closure``: each step makes one call of the
# block multiplier per generator and one dictionary pass over the products.
CLOSURE_BLOCK = 1024


def closure(gens, times, seeds, cap) -> Closure:
    """The closure of ``seeds`` under right multiplication by ``gens``, with
    that multiplication as index tables.  With the identity as the one seed
    this is the group the generators generate.

    ``times(block, g)`` lists a x g for each a in the list ``block``.  Seeds
    take the first indices; after them indices are handed out in
    breadth-first order: scanning the elements in order and the generators
    in order, each product not seen before gets the next unused index.  The
    scan goes a block of ``CLOSURE_BLOCK`` elements at a time, so only the
    products not seen before take a Python step each.  Raises ValueError
    once it holds more than ``cap`` elements; callers turn that into their
    own error type.
    """
    elements = list(seeds)
    index = {x: i for i, x in enumerate(elements)}
    right = [array("i") for _ in gens]
    stride = len(gens)
    done = 0
    while done < len(elements):
        block = elements[done:done + CLOSURE_BLOCK]
        done += len(block)
        # products element-major: a_0 g_0, a_0 g_1, ..., a_1 g_0, ...
        products = [None] * (stride * len(block))
        for k, g in enumerate(gens):
            products[k::stride] = times(block, g)
        found = list(map(index.get, products))
        for j in compress(count(), map(is_, found, repeat(None))):
            x = products[j]
            i = index.setdefault(x, len(elements))
            if i == len(elements):
                if i == cap:
                    raise ValueError(f"closure exceeds {cap} elements")
                elements.append(x)
            found[j] = i
        for k, r in enumerate(right):
            r.extend(found[k::stride])
    return Closure(elements, right)


def strong_components(edges) -> list[tuple[int, ...]]:
    """Strongly connected components of the digraph on ``range(len(edges))``
    with ``edges[v]`` the successors of v; each component is sorted and they
    are listed by least member.

    Components come from mutual reach sets, closed Warshall-style: cubic in
    the vertex count, which is at most 12 here (every supported Weyl group
    has order at most 12).
    """
    n = len(edges)
    reach = [set(e) | {v} for v, e in enumerate(edges)]
    for k in range(n):
        for r in reach:
            if k in r:
                r |= reach[k]
    return sorted({tuple(u for u in sorted(reach[v]) if v in reach[u])
                   for v in range(n)})


def table_group(elements, mul, labels) -> "FiniteGroup":
    """The group on ``elements`` under ``mul``, with element i labelled
    ``labels[i]``: the one constructor of ``FiniteGroup``.

    Raises ValueError when a product falls outside ``elements``; callers turn
    that into their own error type.
    """
    elements = tuple(elements)
    index = {x: i for i, x in enumerate(elements)}
    try:
        table = [[index[mul(a, b)] for b in elements] for a in elements]
    except KeyError:
        raise ValueError("elements are not closed under multiplication") from None
    return FiniteGroup(elements, index, labels, table)


class FiniteGroup:
    """A group on the indices of ``elements``, the objects it was built
    from: element i is ``elements[i]``, labelled ``labels[i]``, and
    ``index`` maps each object back to its index.  ``table`` holds the
    products of indices.  The table is checked for an identity, unique
    inverses and distinct labels, and trusted to be associative: every table
    here is built from products of matrices, permutations or groups.  Only
    ``table_group`` constructs one.  Two groups with equal elements, labels
    and table are equal and hash alike, so a group can key a ``memo``."""
    __slots__ = ("elements", "index", "labels", "table", "identity", "inverse")

    def __init__(self, elements, index, labels, table):
        self.elements = elements
        self.index = index
        self.labels = tuple(labels)
        self.table = tuple(tuple(row) for row in table)
        n = len(self.labels)
        ident = None
        for e in range(n):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(n)):
                ident = e
                break
        if ident is None:
            raise ValueError("no identity element")
        self.identity = ident
        inv = []
        for x in range(n):
            found = [y for y in range(n) if self.table[x][y] == ident]
            if len(found) != 1:
                raise ValueError("element without unique inverse")
            inv.append(found[0])
        self.inverse = tuple(inv)
        if len(set(self.labels)) != n:
            raise ValueError("duplicate labels")

    def __eq__(self, other):
        return (isinstance(other, FiniteGroup) and self.labels == other.labels
                and self.elements == other.elements and self.table == other.table)

    def __hash__(self):
        return hash((self.elements, self.labels))

    @property
    def order(self) -> int:
        return len(self.labels)

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def element_order(self, x: int) -> int:
        k, y = 1, x
        while y != self.identity:
            y = self.table[y][x]
            k += 1
        return k

    def is_abelian(self) -> bool:
        return all(self.table[a][b] == self.table[b][a]
                   for a in range(self.order) for b in range(self.order))

    # ---- subgroups and classes -------------------------------------------

    def subgroup(self, indices) -> "FiniteGroup":
        """The subgroup on the given element indices, as its own group."""
        idx = sorted(set(indices))
        return table_group(idx, self.mul, [self.labels[g] for g in idx])

    def conjugacy_classes(self) -> list[tuple[int, ...]]:
        return self.twisted_orbits(range(self.order))

    def class_count(self) -> int:
        return len(self.conjugacy_classes())

    # ---- automorphisms and twisted conjugation ---------------------------

    def is_automorphism(self, perm) -> bool:
        if sorted(perm) != list(range(self.order)):
            return False
        return all(perm[self.table[a][b]] == self.table[perm[a]][perm[b]]
                   for a in range(self.order) for b in range(self.order))

    def twisted_orbits(self, f) -> list[tuple[int, ...]]:
        """Orbits of b . x = b x f(b)^-1 on the whole group.

        f is an automorphism given as an index permutation; f = identity gives
        ordinary conjugacy classes.
        """
        if not self.is_automorphism(f):
            raise ValueError("twist is not an automorphism")
        return [tuple(sorted(set(imgs))) for _, imgs in orbits(
            range(self.order), lambda x: self.twisted_images(x, f))]

    def twisted_images(self, x: int, f) -> list[int]:
        """b x f(b)^-1 for every b, in index order: the one formula of
        twisted conjugation."""
        t, inv = self.table, self.inverse
        return [t[t[b][x]][inv[f[b]]] for b in range(self.order)]

    def twisted_centralizer(self, x: int, f) -> list[int]:
        """Subgroup of b with b x f(b)^-1 = x."""
        return [b for b, y in enumerate(self.twisted_images(x, f)) if y == x]


# ---- constructors ---------------------------------------------------------


def cyclic(n: int) -> FiniteGroup:
    return table_group(range(n), lambda a, b: (a + b) % n,
                       [f"g{k}" if k else "e" for k in range(n)])


def _cycle_label(p: tuple[int, ...]) -> str:
    seen = [False] * len(p)
    parts = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = p[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = p[nxt]
        parts.append("(" + "".join(str(i) for i in cyc) + ")")
    return "".join(parts) if parts else "e"


def from_permutations(perms) -> FiniteGroup:
    """The group of the given permutation tuples (must be closed)."""
    perms = sorted(set(tuple(p) for p in perms))
    return table_group(perms, lambda a, b: tuple(a[i] for i in b),
                       [_cycle_label(p) for p in perms])


def symmetric(n: int) -> FiniteGroup:
    return from_permutations(permutations(range(n)))


def direct_product(factors) -> FiniteGroup:
    """The direct product of the groups ``factors``: its elements are the
    tuples of factor indices, in ``itertools.product`` order, multiplied
    componentwise and labelled by their factor labels joined with "*" (the
    empty product by "e")."""
    tables = [f.table for f in factors]
    elements = tuple(product(*(range(f.order) for f in factors)))
    return table_group(
        elements, lambda a, b: tuple(t[x][y] for t, x, y in zip(tables, a, b)),
        ["*".join(f.labels[i] for f, i in zip(factors, x)) or "e"
         for x in elements])


def semidirect(n: FiniteGroup, h: FiniteGroup, acts) -> FiniteGroup:
    """N semidirect H where acts[v] is the index permutation of N for v in H.

    Elements are the pairs (g, v) of indices in N and H, g-major, with
    multiplication (g1, v1)(g2, v2) = (g1 * acts[v1](g2), v1 v2); labels
    are "g|v".
    """
    for a in acts:
        if not n.is_automorphism(a):
            raise ValueError("action is not by automorphisms")
    for v1 in range(h.order):
        for v2 in range(h.order):
            a12 = acts[h.table[v1][v2]]
            comp = [acts[v1][acts[v2][g]] for g in range(n.order)]
            if list(a12) != comp:
                raise ValueError("action is not a homomorphism")
    elements = tuple(product(range(n.order), range(h.order)))
    return table_group(
        elements,
        lambda a, b: (n.table[a[0]][acts[a[1]][b[0]]], h.table[a[1]][b[1]]),
        [f"{n.labels[g]}|{h.labels[v]}" for g, v in elements])
