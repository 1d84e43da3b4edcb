import pytest
from hypothesis import given
from hypothesis import strategies as st

from lpackets.errors import InvariantError
from lpackets.groups import (
    CLOSURE_BLOCK,
    FiniteGroup,
    closure,
    cyclic,
    direct_product,
    from_permutations,
    orbits,
    product_automorphism,
    semidirect,
    strong_components,
    symmetric,
    table_group,
    trivial_group,
)


def test_trivial_and_cyclic():
    e = trivial_group()
    assert e.order == 1 and e.class_count() == 1
    c4 = cyclic(4)
    assert c4.order == 4
    assert c4.is_abelian()
    assert c4.class_count() == 4
    assert c4.element_order(1) == 4
    assert c4.inv(1) == 3


def test_symmetric_group_classes():
    s3 = symmetric(3)
    assert s3.order == 6
    assert s3.class_count() == 3
    sizes = sorted(len(c) for c in s3.conjugacy_classes())
    assert sizes == [1, 2, 3]
    s4 = symmetric(4)
    assert s4.order == 24
    assert s4.class_count() == 5


def test_from_permutations_dihedral():
    rot = (1, 2, 3, 0)
    flip = (3, 2, 1, 0)
    elems = set()
    frontier = [(0, 1, 2, 3)]
    while frontier:
        p = frontier.pop()
        if p in elems:
            continue
        elems.add(p)
        for g in (rot, flip):
            frontier.append(tuple(g[p[i]] for i in range(4)))
    d4 = from_permutations(elems)
    assert d4.order == 8
    assert d4.class_count() == 5


def test_from_permutations_rejects_non_closed():
    with pytest.raises(ValueError):
        from_permutations([(0, 1, 2, 3), (1, 2, 3, 0)])


def test_duplicate_labels_are_rejected():
    with pytest.raises(ValueError, match="duplicate labels"):
        FiniteGroup(("e", "e"), ((0, 1), (1, 0)))


def test_direct_product():
    g = direct_product(cyclic(2), symmetric(3))
    assert g.order == 12
    assert g.class_count() == 6


def test_semidirect_builds_dihedral():
    c3 = cyclic(3)
    c2 = cyclic(2)
    inv_auto = [c3.inv(x) for x in range(3)]

    s3 = semidirect(c3, c2, [list(range(3)), inv_auto])
    assert s3.order == 6
    assert s3.class_count() == 3
    assert not s3.is_abelian()


def test_subgroup_and_centralizer():
    s3 = symmetric(3)
    transposition = next(x for x in range(6) if s3.element_order(x) == 2)
    cz = s3.subgroup(s3.centralizer(transposition))
    assert cz.order == 2
    assert cz.class_count() == 2


def test_twisted_orbits_identity_twist_is_conjugacy():
    s3 = symmetric(3)
    ident = list(range(6))
    orbits = s3.twisted_orbits(ident)
    assert len(orbits) == s3.class_count()


def test_twisted_orbits_nontrivial_twist():
    # Z/2 x Z/2 twisted by the coordinate swap: (0,0) fuses with (1,1)
    # through b = (1,0), and (1,0) fuses with (0,1), so two orbits of two.
    v4 = direct_product(cyclic(2), cyclic(2))
    swap = [0, 2, 1, 3]
    assert v4.is_automorphism(swap)
    orbits = v4.twisted_orbits(swap)
    assert sorted(len(o) for o in orbits) == [2, 2]


def test_twisted_centralizer():
    v4 = direct_product(cyclic(2), cyclic(2))
    swap = [0, 2, 1, 3]
    fixed = v4.twisted_centralizer(0, swap)
    assert len(fixed) == 2


def test_product_automorphism_roundtrip():
    groups = [cyclic(2), cyclic(3), cyclic(2)]
    perm = product_automorphism(groups, (2, 1, 0))
    total = 2 * 3 * 2
    assert sorted(perm) == list(range(total))
    assert all(perm[perm[x]] == x for x in range(total))


def test_is_automorphism_rejects_non_morphism():
    c4 = cyclic(4)
    assert not c4.is_automorphism([0, 2, 1, 3])


def test_orbits_of_conjugation_on_s3():
    s3 = symmetric(3)
    got = orbits(range(6), lambda y: [s3.mul(s3.mul(x, y), s3.inv(x))
                                      for x in range(6)])
    assert [first for first, _ in got] == [0, 1, 3]
    sets = [set(imgs) for _, imgs in got]
    assert sorted(len(o) for o in sets) == [1, 2, 3]
    assert [min(o) for o in sets] == sorted(min(o) for o in sets)


def test_orbits_keep_first_seen_order():
    rot = (1, 2, 0, 3, 4)            # a 3-cycle and two fixed points
    c3 = [(0, 1, 2, 3, 4), rot, tuple(rot[rot[i]] for i in range(5))]
    got = orbits([4, 2, 3, 0], lambda x: [p[x] for p in c3])
    assert got == [(4, [4, 4, 4]), (2, [2, 0, 1]), (3, [3, 3, 3])]


def test_orbits_reject_an_acting_set_that_is_not_a_group():
    # one transposition without the identity: its image set of 0 misses 0
    swap = (1, 0, 2)
    with pytest.raises(InvariantError):
        orbits(range(3), lambda x: [swap[x]])
    # identity plus a 3-cycle but not its square: the image sets overlap
    cyc = (1, 2, 0)
    with pytest.raises(InvariantError):
        orbits(range(3), lambda x: [x, cyc[x]])


def compose(a, b):
    return tuple(a[b[i]] for i in range(len(a)))


def times(block, g):
    return [compose(a, g) for a in block]


def test_closure_generates_the_group():
    s4 = closure([(1, 2, 3, 0), (1, 0, 2, 3)], times, [(0, 1, 2, 3)], 24)
    assert len(s4) == 24
    assert len(set(s4.elements)) == 24
    trivial = closure([], times, [(0, 1)], 1)
    assert trivial.elements == [(0, 1)]
    assert trivial.right == []


def _check_symmetric_closure(n, order):
    gens = [tuple(range(1, n)) + (0,), (1, 0) + tuple(range(2, n))]
    sn = closure(gens, times, [tuple(range(n))], order)
    assert len(sn) == order
    assert sn.elements[0] == tuple(range(n))
    index = {x: i for i, x in enumerate(sn.elements)}
    assert len(sn.right) == len(gens)
    for g, r in zip(gens, sn.right):
        assert list(r) == [index[compose(x, g)] for x in sn.elements]
    # breadth-first: each index first appears as the product of an
    # earlier element, in scanning order
    new = 1
    for p in range(len(sn)):
        for r in sn.right:
            assert r[p] <= new
            if r[p] == new:
                new += 1
    assert new == order


def test_closure_records_right_multiplication_on_s4():
    _check_symmetric_closure(4, 24)


def test_closure_keeps_breadth_first_order_across_blocks():
    assert CLOSURE_BLOCK < 5040
    _check_symmetric_closure(7, 5040)


def test_closure_over_its_cap_raises():
    assert CLOSURE_BLOCK < 3000
    # Z/10 in one closure block and Z/3000 in more than one
    for n in (10, 3000):
        def add(block, g):
            return [(a + g) % n for a in block]

        with pytest.raises(ValueError):
            closure([1], add, [0], n - 1)
        assert len(closure([1], add, [0], n)) == n


def test_closure_from_several_seeds():
    # the orbits of 0 and 5 under x -> x + 2 mod 10, seeds first
    got = closure([2], lambda block, g: [(a + g) % 10 for a in block],
                  [0, 5], 10)
    assert got.elements == [0, 5, 2, 7, 4, 9, 6, 1, 8, 3]
    assert list(got.right[0]) == [2, 3, 4, 5, 6, 7, 8, 9, 0, 1]


@st.composite
def digraphs(draw):
    n = draw(st.integers(0, 12))
    return [draw(st.sets(st.integers(0, n - 1), max_size=n)) for _ in range(n)]


@given(digraphs())
def test_strong_components_match_brute_force_reachability(edges):
    n = len(edges)

    def reach(v):
        seen, stack = {v}, [v]
        while stack:
            for u in edges[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return seen

    r = [reach(v) for v in range(n)]
    want = []
    for v in range(n):
        comp = tuple(u for u in range(n) if u in r[v] and v in r[u])
        if comp[0] == v:
            want.append(comp)
    assert strong_components(edges) == want


def test_strong_components_of_a_small_digraph():
    # 0 <-> 2 -> 1 -> 3 <-> 4, and 5 alone with a loop
    edges = [{2}, {3}, {0, 1}, {4}, {3}, {5}]
    assert strong_components(edges) == [(0, 2), (1,), (3, 4), (5,)]


def test_table_group_keeps_order_and_labels():
    elems = [0, 2, 4, 1, 3, 5]          # Z/6 listed out of order
    labels = ["a", "b", "c", "d", "e", "f"]
    g = table_group(elems, lambda a, b: (a + b) % 6, labels)
    assert g.labels == tuple(labels)
    assert g.identity == 0
    assert all(elems[g.mul(i, j)] == (elems[i] + elems[j]) % 6
               for i in range(6) for j in range(6))


def test_table_group_rejects_a_set_that_is_not_closed():
    with pytest.raises(ValueError, match="not closed"):
        table_group([0, 1, 2], lambda a, b: (a + b) % 4, ["e", "x", "y"])
