"""Finite groups given by explicit multiplication tables.

Component groups, their extensions, and the twisted-conjugation bookkeeping
all happen on groups of order at most a few dozen, so everything is stored as
a full table.  Elements are indices into ``labels``; the label strings are the
canonical element names used in reports, and ties are always broken by label
so that output is deterministic.

``orbits`` (a finite group acting on a finite set), ``closure`` (the group
some elements generate, with its right Cayley tables), ``strong_components``
(of a small digraph) and ``table_group`` (the multiplication table of a
closed set) are the package's one orbit loop, closure loop, component loop
and table loop.

``Packet`` and ``Stratum`` are the one record both counting pipelines emit
and the reports render: each pipeline counts its packets on its own groups,
then hands over only labels and sizes.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace
from itertools import permutations

from .errors import InvariantError


@dataclass(frozen=True)
class Packet:
    """One parameter of a stratum: the twisted class of ``x_label`` and its
    packet, of ``size`` irreducible characters of the centralizer named
    ``group_label``."""
    x_label: str
    size: int
    group_label: str


@dataclass
class Stratum:
    """The parameters over one semisimple label; ``labels`` names the
    stratum in the pipeline's own terms and ``group_desc`` the group whose
    twisted classes are the packets."""
    ss_label: str
    labels: dict
    group_desc: str
    packets: list[Packet]

    @property
    def total(self) -> int:
        return sum(p.size for p in self.packets)

    def relabelled(self, ss_label: str) -> Stratum:
        """A copy under another semisimple label, sharing no mutable field
        with this one."""
        return replace(self, ss_label=ss_label, labels=dict(self.labels),
                       packets=list(self.packets))


def orbits(items, images) -> list[tuple]:
    """Orbits of a whole finite group on ``items``, in first-seen order.

    ``images(x)`` lists g(x) for every g in the group, in one fixed order.
    Each orbit comes back as ``(x, imgs)``: its first-seen point x and the
    list ``images(x)``, whose set is the orbit.  That is one pass over the
    group and no closure.  An image set that misses its start or meets an
    earlier orbit means the acting set is not a group, and raises.
    """
    seen: set = set()
    out = []
    for x in items:
        if x in seen:
            continue
        imgs = images(x)
        orbit = set(imgs)
        if x not in orbit or not seen.isdisjoint(orbit):
            raise InvariantError("the acting set is not a group: "
                                 "its image sets do not partition the points")
        seen |= orbit
        out.append((x, imgs))
    return out


@dataclass(frozen=True)
class Closure:
    """A group closed from generators: ``elements`` in breadth-first order
    from the identity, which is element 0, and its right Cayley tables,
    ``right[k][i]`` the index of ``elements[i]`` times generator k."""
    elements: list
    right: list

    def __len__(self) -> int:
        return len(self.elements)


def closure(gens, mul, one, cap) -> Closure:
    """The group generated by ``gens`` under ``mul``, with its right
    multiplication by each generator as index tables.

    Indices are handed out in breadth-first order: scanning the elements in
    order and the generators in order, each product not seen before gets
    the next unused index.  Raises ValueError once it holds more than
    ``cap`` elements; callers turn that into their own error type.
    """
    index = {one: 0}
    elements = [one]
    right = [array("i") for _ in gens]
    steps = list(zip(gens, right))
    for a in elements:
        for g, r in steps:
            ag = mul(a, g)
            i = index.setdefault(ag, len(elements))
            if i == len(elements):
                if i == cap:
                    raise ValueError(f"closure exceeds {cap} elements")
                elements.append(ag)
            r.append(i)
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
    ``labels[i]``.

    Raises ValueError when a product falls outside ``elements``; callers turn
    that into their own error type.
    """
    index = {x: i for i, x in enumerate(elements)}
    try:
        table = [[index[mul(a, b)] for b in elements] for a in elements]
    except KeyError:
        raise ValueError("elements are not closed under multiplication") from None
    return FiniteGroup(labels, table, check=False)


class FiniteGroup:
    __slots__ = ("labels", "table", "identity", "inverse")

    def __init__(self, labels, table, check=True):
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
        if check:
            for a in range(n):
                for b in range(n):
                    ab = self.table[a][b]
                    for c in range(n):
                        if self.table[ab][c] != self.table[a][self.table[b][c]]:
                            raise ValueError("multiplication table is not associative")
        if len(set(self.labels)) != n:
            raise ValueError("duplicate labels")

    @property
    def order(self) -> int:
        return len(self.labels)

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def inv(self, x: int) -> int:
        return self.inverse[x]

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

    def centralizer(self, x: int) -> list[int]:
        return [g for g in range(self.order) if self.table[g][x] == self.table[x][g]]

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
        t, inv = self.table, self.inverse
        everything = range(self.order)
        return [tuple(sorted(set(imgs))) for _, imgs in orbits(
            everything, lambda x: [t[t[b][x]][inv[f[b]]] for b in everything])]

    def twisted_centralizer(self, x: int, f) -> list[int]:
        """Subgroup of b with b x f(b)^-1 = x."""
        return [b for b in range(self.order)
                if self.table[self.table[b][x]][self.inverse[f[b]]] == x]


# ---- constructors ---------------------------------------------------------


def trivial_group() -> FiniteGroup:
    return FiniteGroup(("e",), ((0,),), check=False)


def cyclic(n: int) -> FiniteGroup:
    labels = [f"g{k}" if k else "e" for k in range(n)]
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(labels, table, check=False)


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


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    def label(i, j):
        return f"{a.labels[i]}*{b.labels[j]}"

    na, nb = a.order, b.order
    labels = [label(i, j) for i in range(na) for j in range(nb)]
    table = [[(a.table[i1][i2]) * nb + b.table[j1][j2]
              for i2 in range(na) for j2 in range(nb)]
             for i1 in range(na) for j1 in range(nb)]
    return FiniteGroup(labels, table, check=False)


def semidirect(n: FiniteGroup, h: FiniteGroup, acts) -> FiniteGroup:
    """N semidirect H where acts[v] is the index permutation of N for v in H.

    Elements are pairs (g, v), multiplication
    (g1, v1)(g2, v2) = (g1 * acts[v1](g2), v1 v2); labels are "g|v".
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
    nn, nh = n.order, h.order
    labels = [f"{n.labels[g]}|{h.labels[v]}" for g in range(nn) for v in range(nh)]
    table = []
    for g1 in range(nn):
        for v1 in range(nh):
            row = []
            a1 = acts[v1]
            for g2 in range(nn):
                for v2 in range(nh):
                    row.append(n.table[g1][a1[g2]] * nh + h.table[v1][v2])
            table.append(row)
    return FiniteGroup(labels, table, check=False)


def product_automorphism(groups, factor_perm):
    """Index permutation of a direct product that permutes the factors.

    ``groups`` are the factors in order, ``factor_perm[i] = j`` means factor i
    is sent to slot j (the factors must be compatible: same order tables).
    """
    sizes = [g.order for g in groups]
    k = len(groups)
    for i in range(k):
        if sizes[i] != sizes[factor_perm[i]]:
            raise ValueError("factor permutation between incompatible factors")

    def unrank(x):
        coords = []
        for s in reversed(sizes):
            coords.append(x % s)
            x //= s
        return list(reversed(coords))

    def rank(coords):
        x = 0
        for s, c in zip(sizes, coords):
            x = x * s + c
        return x

    total = 1
    for s in sizes:
        total *= s
    out = []
    for x in range(total):
        coords = unrank(x)
        moved = [0] * k
        for i in range(k):
            moved[factor_perm[i]] = coords[i]
        out.append(rank(moved))
    return out
