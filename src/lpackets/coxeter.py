"""Weyl groups: canonical words, Bruhat order, KL polynomials, cells.

Elements are Y-matrices of the underlying datum; each element carries the
lex-least reduced word over the simple reflections, and every ordering
downstream (cell ids, coset representatives, report labels) is derived from
those words, which is what makes the output deterministic.

``enumerate_weyl`` is the package's only builder of a reflection group;
every other module takes its elements from there.  It is a ``groups.memo``
function keyed on the datum, so inside one pipeline call each reflection
group is built once.

Polynomials live in one variable as integer coefficient tuples.  The cells
are the strongly connected components (``groups.strong_components``) of the
mu-edge graphs.  The pipelines compute them only for the four simple types
(``strata._standalone``) and read the cells of a product from its factors'.

The independent check of the polynomial table through the R-polynomial
inversion identity lives with the tests, in ``tests/test_coxeter.py``.
"""

from __future__ import annotations

from collections import namedtuple
from typing import TYPE_CHECKING

from .errors import InvariantError
from .groups import closure, memo, strong_components
from .lattice import Matrix, identity, mat_mul, mat_vec, transpose

if TYPE_CHECKING:
    from .rootdata import RootDatum

__all__ = [
    "CoxeterGroup", "KLTable", "CellPartition", "enumerate_weyl", "kl_table",
    "cells", "reflection_on_y",
]


# ---- polynomial helpers (coefficient tuples, index = degree) --------------

def poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_add(a, b):
    n = max(len(a), len(b))
    return poly_trim(tuple((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                           for i in range(n)))


def poly_sub(a, b):
    n = max(len(a), len(b))
    return poly_trim(tuple((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                           for i in range(n)))


def poly_shift(a, k):
    """Multiply by q^k."""
    if not a:
        return ()
    return (0,) * k + tuple(a)


def poly_scale(c, a):
    return poly_trim(tuple(c * x for x in a))


ONE = (1,)


# ---- the group -------------------------------------------------------------

def reflection_on_y(datum: RootDatum, root_index: int) -> Matrix:
    """Matrix of the reflection in roots[root_index] acting on Y."""
    alpha = datum.roots[root_index]
    cov = datum.coroots[root_index]
    n = datum.rank
    return tuple(
        tuple((1 if r == c else 0) - cov[r] * alpha[c] for c in range(n))
        for r in range(n)
    )


class CoxeterGroup(namedtuple("CoxeterGroup", "datum generators elements words "
                                                "length index left right inverse")):
    """The reflection group of ``datum``: ``elements`` (Y-matrices) with
    their canonical ``words`` and ``length``s, ``index`` the dict from matrix
    to position, ``left[s][i]`` the index of ``generators[s] @ elements[i]``,
    ``right[s][i]`` that of ``elements[i] @ generators[s]``, and
    ``inverse[i]`` the index of the inverse."""
    __slots__ = ()

    @property
    def order(self) -> int:
        return len(self.elements)

    def word_label(self, i: int) -> str:
        w = self.words[i]
        return "e" if not w else "".join(str(s) for s in w)

    def left_descents(self, i: int):
        return [s for s in range(len(self.generators))
                if self.length[self.left[s][i]] < self.length[i]]

    def right_descents(self, i: int):
        return [s for s in range(len(self.generators))
                if self.length[self.right[s][i]] < self.length[i]]


@memo
def enumerate_weyl(datum: RootDatum) -> CoxeterGroup:
    """Enumerate the reflection group of the datum with canonical words.

    Canonical word = lex-least reduced word; elements are sorted by
    (length, canonical word) so index order is deterministic and index 0 is
    the identity.  That is the breadth-first order of ``groups.closure``
    from the identity under right multiplication by the simple reflections:
    element i > 0 is first reached as p s, scanning p and then s, and its
    word is the word of p followed by s.
    """
    gens = tuple(reflection_on_y(datum, i) for i in datum.simple_indices)
    ident = identity(datum.rank)
    try:
        group = closure(gens, lambda block, g: [mat_mul(m, g) for m in block],
                        [ident], 10000)
    except ValueError:
        raise InvariantError("reflection group too large") from None
    elements = tuple(group.elements)
    right = tuple(tuple(r) for r in group.right)
    word_list = [()]
    for i, row in enumerate(zip(*right)):
        for s, j in enumerate(row):
            if j == len(word_list):
                word_list.append(word_list[i] + (s,))
    word_list = tuple(word_list)
    index = {m: i for i, m in enumerate(elements)}
    length = tuple(len(w) for w in word_list)

    # the inverse of a word is the reversed word
    inverse = []
    for w in word_list:
        i = 0
        for s in reversed(w):
            i = right[s][i]
        inverse.append(i)
    inverse = tuple(inverse)
    if any(mat_mul(m, elements[j]) != ident for m, j in zip(elements, inverse)):
        raise InvariantError("reversed words do not invert the elements")
    # s w = (w^-1 s)^-1, since every generator is an involution
    left = tuple(tuple(inverse[r[j]] for j in inverse) for r in right)

    # length must equal the inversion count on the datum's positive roots
    pos = datum.positive_indices
    pos_set = {datum.roots[i] for i in pos}
    for i, w in enumerate(word_list):
        mx = transpose(elements[inverse[i]])
        inv_count = sum(1 for p in pos if mat_vec(mx, datum.roots[p]) not in pos_set)
        if inv_count != len(w):
            raise InvariantError("word length does not match inversion count")

    return CoxeterGroup(datum=datum, generators=gens, elements=elements,
                        words=word_list, length=length, index=index,
                        left=left, right=right, inverse=inverse)


# ---- Bruhat order ----------------------------------------------------------

def bruhat_leq_table(cox: CoxeterGroup):
    """Full x <= w table via the lifting property, filled in index order,
    which is (length, word) order."""
    n = cox.order
    leq = [[False] * n for _ in range(n)]
    for w in range(n):
        leq[w][w] = True
        if cox.length[w] == 0:
            continue
        s = cox.right_descents(w)[0]
        ws = cox.right[s][w]
        for x in range(n):
            if cox.length[x] >= cox.length[w]:
                continue
            xs = cox.right[s][x]
            xp = xs if cox.length[xs] < cox.length[x] else x
            leq[x][w] = leq[xp][ws]
    return leq


# ---- KL table --------------------------------------------------------------

class KLTable(namedtuple("KLTable", "cox leq polynomials mu")):
    """KL data of ``cox``: ``leq`` the Bruhat table, ``polynomials`` maps
    (x, w) to a coefficient tuple for x <= w, and ``mu`` maps (x, w) to its
    nonzero mu-coefficient for x < w."""
    __slots__ = ()


def kl_table(cox: CoxeterGroup) -> KLTable:
    leq = bruhat_leq_table(cox)
    polys: dict = {}

    def P(x, w):
        if not leq[x][w]:
            return ()
        if x == w:
            return ONE
        key = (x, w)
        if key in polys:
            return polys[key]
        s = cox.left_descents(w)[0]
        sx = cox.left[s][x]
        if cox.length[sx] > cox.length[x]:
            # s is a left descent of w but not of x
            val = P(sx, w)
        else:
            v = cox.left[s][w]  # sw < w
            val = poly_add(P(sx, v), poly_shift(P(x, v), 1))
            for z in range(cox.order):
                if not (leq[x][z] and leq[z][v]):
                    continue
                if cox.length[cox.left[s][z]] >= cox.length[z]:
                    continue
                m = mu_value(P(z, v), cox.length[v] - cox.length[z])
                if m == 0:
                    continue
                exp2 = cox.length[w] - cox.length[z]
                if exp2 % 2 != 0:
                    raise InvariantError("odd exponent in KL recursion")
                val = poly_sub(val, poly_scale(m, poly_shift(P(x, z), exp2 // 2)))
        # degree bound: deg < (l(w) - l(x)) / 2
        bound = (cox.length[w] - cox.length[x] - 1) / 2
        if val and len(val) - 1 > bound:
            raise InvariantError("KL degree bound violated")
        if val and any(c < 0 for c in val):
            raise InvariantError("negative KL coefficient")
        polys[key] = val
        return val

    def mu_value(poly, ldiff):
        if (ldiff - 1) % 2 != 0:
            return 0
        d = (ldiff - 1) // 2
        return poly[d] if d < len(poly) else 0

    mu = {}
    for w in range(cox.order):
        for x in range(cox.order):
            if leq[x][w] and x != w:
                p = P(x, w)
                m = mu_value(p, cox.length[w] - cox.length[x])
                if m:
                    mu[(x, w)] = m
    # the loop above computed every P(x, w) with x < w; x = w is filled here
    full = {(x, w): polys.get((x, w), ONE if x == w else ())
            for w in range(cox.order) for x in range(cox.order) if leq[x][w]}
    return KLTable(cox=cox, leq=leq, polynomials=full, mu=mu)


# ---- cells ------------------------------------------------------------------

class CellPartition(namedtuple("CellPartition", "cox left_cells right_cells "
                                                  "two_sided_cells cell_of")):
    """The left, right and two-sided cells of ``cox``, each a tuple of
    sorted element-index tuples; ``cell_of`` maps an element index to the
    position of its two-sided cell."""
    __slots__ = ()

    def cell_id(self, cell_pos: int) -> str:
        """The word label of the cell's least element, which is its first."""
        return self.cox.word_label(self.two_sided_cells[cell_pos][0])


def _left_edges(kl: KLTable):
    """edges[w] = elements z with z <=_L w forced in one step."""
    cox = kl.cox
    edges = [set() for _ in range(cox.order)]
    for w in range(cox.order):
        for s in range(len(cox.generators)):
            sw = cox.left[s][w]
            if cox.length[sw] <= cox.length[w]:
                continue
            edges[w].add(sw)
            for z in range(cox.order):
                if z != w and kl.leq[z][w] and (z, w) in kl.mu and \
                        cox.length[cox.left[s][z]] < cox.length[z]:
                    edges[w].add(z)
    return edges


def cells(kl: KLTable) -> CellPartition:
    cox = kl.cox
    ledges = _left_edges(kl)
    redges = [set() for _ in range(cox.order)]
    for w in range(cox.order):
        wi = cox.inverse[w]
        for z in ledges[wi]:
            redges[w].add(cox.inverse[z])
    both = [ledges[w] | redges[w] for w in range(cox.order)]
    # listed by least member, which is (length, word) order
    left_cells = tuple(strong_components(ledges))
    right_cells = tuple(strong_components(redges))
    two_sided = tuple(strong_components(both))
    cell_of = [None] * cox.order
    for ci, cell in enumerate(two_sided):
        for i in cell:
            cell_of[i] = ci
    # left and right cells must refine two-sided cells
    for part in (left_cells, right_cells):
        for cell in part:
            if len({cell_of[i] for i in cell}) != 1:
                raise InvariantError("one-sided cell crosses a two-sided cell")
    return CellPartition(cox=cox, left_cells=left_cells, right_cells=right_cells,
                         two_sided_cells=two_sided, cell_of=tuple(cell_of))

