from itertools import permutations, product

import pytest

from lpackets.coxeter import (
    cells,
    enumerate_weyl,
    kl_table,
    poly_add,
    poly_shift,
    poly_trim,
)
from lpackets.lattice import identity, mat_mul
from lpackets.rootdata import _build_datum, parse_type
from lpackets.strata import _standalone

TYPE_ORDERS = {"A1": 2, "A1xA1": 4, "A2": 6, "B2": 8, "G2": 12}
LONGEST_LENGTH = {"A1": 1, "A1xA1": 2, "A2": 3, "B2": 4, "G2": 6}
CELL_COUNTS = {"A1": 2, "A1xA1": 4, "A2": 3, "B2": 3, "G2": 3}


def standalone(t):
    return enumerate_weyl(_build_datum(*parse_type(t), None))


# ---- an independent reference: the R-polynomial inversion identity ---------

def poly_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly_trim(out)


def r_polynomials(cox, leq) -> dict:
    """R-polynomials by their own recursion (independent of the KL one)."""
    rp: dict = {}

    def R(x, w):
        if not leq[x][w]:
            return ()
        key = (x, w)
        if key in rp:
            return rp[key]
        if x == w:
            rp[key] = (1,)
            return (1,)
        s = cox.left_descents(w)[0]
        v = cox.left[s][w]
        sx = cox.left[s][x]
        if cox.length[sx] < cox.length[x]:
            val = R(sx, v)
        else:
            val = poly_add(poly_mul((-1, 1), R(x, v)), poly_shift(R(sx, v), 1))
        rp[key] = val
        return val

    for w in range(cox.order):
        for x in range(cox.order):
            R(x, w)
    return rp


def verify_kl_by_inversion(kl) -> bool:
    """Check q^(l(w)-l(x)) P_{x,w}(1/q) = sum_z R_{x,z} P_{z,w} for all pairs."""
    cox = kl.cox
    rp = r_polynomials(cox, kl.leq)
    for w in range(cox.order):
        for x in range(cox.order):
            if not kl.leq[x][w]:
                continue
            d = cox.length[w] - cox.length[x]
            p = kl.polynomials[(x, w)]
            lhs = [0] * (d + 1)
            for i, c in enumerate(p):
                lhs[d - i] += c
            rhs = ()
            for z in range(cox.order):
                if kl.leq[x][z] and kl.leq[z][w]:
                    rhs = poly_add(rhs, poly_mul(rp.get((x, z), ()),
                                                 kl.polynomials[(z, w)]))
            if poly_trim(lhs) != rhs:
                return False
    return True


def longest(cox):
    """The index of the longest element, which must be unique."""
    top = max(cox.length)
    found = [i for i, l in enumerate(cox.length) if l == top]
    assert len(found) == 1
    return found[0]


@pytest.mark.parametrize("t", sorted(TYPE_ORDERS))
def test_group_order_and_longest(t):
    cox = standalone(t)
    assert cox.order == TYPE_ORDERS[t]
    assert cox.length[longest(cox)] == LONGEST_LENGTH[t]
    assert cox.word_label(0) == "e"


@pytest.mark.parametrize("t", sorted(TYPE_ORDERS))
def test_words_are_lex_least_reduced_words(t):
    # brute force over every word up to the longest length, shortest first
    # and in lex order within a length: the first word reaching an element
    # is its lex-least reduced word
    cox = standalone(t)
    first = {}
    for k in range(max(cox.length) + 1):
        for word in product(range(len(cox.generators)), repeat=k):
            m = identity(cox.datum.rank)
            for s in word:
                m = mat_mul(m, cox.generators[s])
            first.setdefault(m, word)
    assert len(first) == cox.order
    assert [first[m] for m in cox.elements] == list(cox.words)
    assert list(cox.words) == sorted(cox.words, key=lambda w: (len(w), w))


@pytest.mark.parametrize("t", sorted(TYPE_ORDERS))
def test_multiplication_tables_consistent(t):
    cox = standalone(t)
    for i, m in enumerate(cox.elements):
        assert mat_mul(m, cox.elements[cox.inverse[i]]) == identity(len(m))
    for s, gen in enumerate(cox.generators):
        for i, m in enumerate(cox.elements):
            assert cox.elements[cox.right[s][i]] == mat_mul(m, gen)
            assert cox.elements[cox.left[s][i]] == mat_mul(gen, m)


@pytest.mark.parametrize("t", sorted(TYPE_ORDERS))
def test_kl_polynomials_positive_with_degree_bound(t):
    cox = standalone(t)
    kl = kl_table(cox)
    for (x, w), p in kl.polynomials.items():
        assert all(c >= 0 for c in p)
        assert p[0] == 1
        if x == w:
            assert p == (1,)
        else:
            gap = cox.length[w] - cox.length[x]
            assert 2 * (len(p) - 1) <= gap - 1


@pytest.mark.parametrize("t", ["A2", "B2", "G2"])
def test_kl_inversion_identity(t):
    assert verify_kl_by_inversion(kl_table(standalone(t)))


@pytest.mark.parametrize("t", ["B2", "G2"])
def test_dihedral_polynomials_and_mu(t):
    # rank-two reflection groups are dihedral: every polynomial is 1 and the
    # mu coefficient marks exactly the covering pairs
    cox = standalone(t)
    kl = kl_table(cox)
    assert all(p == (1,) for p in kl.polynomials.values())
    for (x, w), m in kl.mu.items():
        gap = cox.length[w] - cox.length[x]
        assert m == (1 if gap == 1 else 0)


@pytest.mark.parametrize("t", sorted(CELL_COUNTS))
def test_two_sided_cell_counts(t):
    cox = standalone(t)
    part = cells(kl_table(cox))
    assert len(part.two_sided_cells) == CELL_COUNTS[t]
    covered = sorted(i for cell in part.two_sided_cells for i in cell)
    assert covered == list(range(cox.order))
    assert part.cell_of[0] != part.cell_of[longest(cox)]
    # cells are sorted tuples listed by least member; index order is
    # (length, word) order, so each cell's first element is the one its id
    # names
    for cells_of_side in (part.left_cells, part.right_cells, part.two_sided_cells):
        assert list(cells_of_side) == sorted(tuple(sorted(c)) for c in cells_of_side)
    for pos in range(len(part.two_sided_cells)):
        members = part.two_sided_cells[pos]
        assert all(part.cell_of[i] == pos for i in members)


def test_cells_refine_left_and_right():
    part = cells(kl_table(standalone("B2")))
    for lc in part.left_cells:
        pos = {part.cell_of[i] for i in lc}
        assert len(pos) == 1


def _graph_automorphisms(cox):
    """The permutations of the simple reflections that keep the order of
    every product of two of them: the Coxeter-graph automorphisms."""
    def order(s, t):
        i, k = cox.right[t][cox.right[s][0]], 1
        while i:
            i, k = cox.right[t][cox.right[s][i]], k + 1
        return k
    n = len(cox.generators)
    return [p for p in permutations(range(n))
            if all(order(p[s], p[t]) == order(s, t)
                   for s in range(n) for t in range(n))]


@pytest.mark.parametrize("t", ["A1", "A2", "B2", "G2"])
def test_graph_automorphisms_fix_each_standalone_cell(t):
    # a factor permutation carries a cell of a product reflection group in
    # strata because each Coxeter-graph automorphism of a simple factor,
    # such as su3's A2 swap or a B2 listed long root first, fixes every
    # two-sided cell of it
    cox, part = _standalone(t)
    autos = _graph_automorphisms(cox)
    assert len(autos) == (1 if t == "A1" else 2)
    for p in autos:
        image = []
        for w in cox.words:
            i = 0
            for s in w:
                i = cox.right[p[s]][i]
            image.append(i)
        assert sorted(image) == list(range(cox.order))
        assert all(image[cox.right[s][i]] == cox.right[p[s]][image[i]]
                   for s in range(len(p)) for i in range(cox.order))
        assert all(part.cell_of[image[i]] == part.cell_of[i]
                   for i in range(cox.order))


def test_poly_helpers():
    assert poly_mul((1, 1), (1, 1)) == (1, 2, 1)
