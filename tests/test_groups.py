import pytest
from hypothesis import given
from hypothesis import strategies as st

from lpackets import groups
from lpackets.errors import InvariantError
from lpackets.groups import (
    CLOSURE_BLOCK,
    Packet,
    Stratum,
    call_scope,
    closure,
    cyclic,
    direct_product,
    from_permutations,
    memo,
    orbits,
    permuted,
    semidirect,
    strata_by_type,
    strong_components,
    symmetric,
    table_group,
)
from lpackets.lattice import identity, mat_mul
from lpackets.rootdata import (
    TorusOrbit,
    acting_group,
    parse_group_spec,
    stable_point_orbits,
)


def test_trivial_and_cyclic():
    e = cyclic(1)
    assert e.order == 1 and e.class_count() == 1
    assert e.labels == ("e",) and e.elements == (0,)
    c4 = cyclic(4)
    assert c4.order == 4
    assert c4.is_abelian()
    assert c4.class_count() == 4
    assert c4.element_order(1) == 4
    assert c4.inverse[1] == 3


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
        table_group([0, 1], lambda a, b: (a + b) % 2, ["e", "e"])


# the labels of the two-factor fold this product replaced, in its order
FOLD_LABELS = ("e*e", "e*(12)", "e*(01)", "e*(012)", "e*(021)", "e*(02)",
               "g1*e", "g1*(12)", "g1*(01)", "g1*(012)", "g1*(021)", "g1*(02)")


def test_direct_product():
    z2, s3 = cyclic(2), symmetric(3)
    g = direct_product([z2, s3])
    assert g.order == 12
    assert g.class_count() == 6
    assert g.labels == FOLD_LABELS
    assert g.elements == tuple((i, j) for i in range(2) for j in range(6))
    assert all(g.elements[g.mul(g.index[a, b], g.index[c, d])]
               == (z2.mul(a, c), s3.mul(b, d))
               for a, b in g.elements for c, d in g.elements)


def test_direct_product_of_no_or_three_factors():
    e = direct_product([])
    assert e.elements == ((),) and e.labels == ("e",)
    g = direct_product([cyclic(2), cyclic(3), cyclic(2)])
    assert g.order == 12 and g.is_abelian()
    assert g.labels[g.index[1, 2, 1]] == "g1*g2*g1"


def test_semidirect_builds_dihedral():
    c3 = cyclic(3)
    c2 = cyclic(2)
    inv_auto = [c3.inverse[x] for x in range(3)]

    s3 = semidirect(c3, c2, [list(range(3)), inv_auto])
    assert s3.elements == ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1))
    assert s3.labels[s3.index[2, 1]] == "g2|g1"
    assert s3.elements[s3.mul(s3.index[0, 1], s3.index[1, 0])] == (2, 1)
    assert s3.order == 6
    assert s3.class_count() == 3
    assert not s3.is_abelian()


def test_subgroup_and_centralizer():
    s3 = symmetric(3)
    transposition = next(x for x in range(6) if s3.element_order(x) == 2)
    cz = s3.subgroup(s3.twisted_centralizer(transposition, range(6)))
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
    v4 = direct_product([cyclic(2), cyclic(2)])
    swap = [0, 2, 1, 3]
    assert v4.is_automorphism(swap)
    orbits = v4.twisted_orbits(swap)
    assert sorted(len(o) for o in orbits) == [2, 2]


def test_twisted_centralizer():
    v4 = direct_product([cyclic(2), cyclic(2)])
    swap = [0, 2, 1, 3]
    fixed = v4.twisted_centralizer(0, swap)
    assert len(fixed) == 2


def test_twisted_images_follow_the_definition():
    s3 = symmetric(3)
    t = next(x for x in range(6) if s3.element_order(x) == 2)
    f = [s3.mul(s3.mul(t, x), t) for x in range(6)]
    assert s3.is_automorphism(f) and f != list(range(6))
    for x in range(6):
        images = s3.twisted_images(x, f)
        assert images == [s3.mul(s3.mul(b, x), s3.inverse[f[b]]) for b in range(6)]
        assert s3.twisted_centralizer(x, f) == [b for b in range(6)
                                                if images[b] == x]
        assert tuple(sorted(set(images))) in s3.twisted_orbits(f)


@pytest.mark.parametrize("factor", ["S3", "Z2"])
@pytest.mark.parametrize("omega_order", [1, 2])
@pytest.mark.parametrize("tau_swaps", [False, True])
def test_twisted_classes_inside_a_semidirect_product(factor, omega_order,
                                                     tau_swaps):
    # On E = G x| Omega with f = (tau, id), twisted conjugation of (g, 1)
    # by (h, v) gives (h v(g) tau(h)^-1, 1): the f-twisted classes of E
    # inside G are the orbits of that action, with the same stabilizers.
    s = symmetric(3) if factor == "S3" else cyclic(2)
    g = direct_product([s, s])
    ident = list(range(g.order))
    swap = [g.index[b, a] for a, b in g.elements]
    acts = [ident, swap][:omega_order]
    tau = swap if tau_swaps else ident
    e = semidirect(g, cyclic(omega_order), acts)
    f = [e.index[tau[h], v] for h, v in e.elements]
    assert e.is_automorphism(f)

    def moved(h, v, x):
        return g.table[g.table[h][acts[v][x]]][g.inverse[tau[h]]]

    brute = {x: {(h, v): moved(h, v, x) for h in range(g.order)
                 for v in range(omega_order)} for x in range(g.order)}
    inside = [e.index[x, 0] for x in range(g.order)]
    found = orbits(inside, lambda x: e.twisted_images(x, f))
    assert {frozenset(e.elements[y][0] for y in imgs) for _, imgs in found} \
        == {frozenset(brute[x].values()) for x in range(g.order)}
    for x in range(g.order):
        centralizer = e.twisted_centralizer(e.index[x, 0], f)
        assert sorted(e.elements[b] for b in centralizer) == \
            sorted(b for b, y in brute[x].items() if y == x)


def test_is_automorphism_rejects_non_morphism():
    c4 = cyclic(4)
    assert not c4.is_automorphism([0, 2, 1, 3])


def test_orbits_of_conjugation_on_s3():
    s3 = symmetric(3)
    got = orbits(range(6), lambda y: [s3.mul(s3.mul(x, y), s3.inverse[x])
                                      for x in range(6)])
    assert [first for first, _ in got] == [0, 1, 3]
    sets = [set(imgs) for _, imgs in got]
    assert sorted(len(o) for o in sets) == [1, 2, 3]
    assert [min(o) for o in sets] == sorted(min(o) for o in sets)


def test_orbits_keep_first_seen_order():
    rot = (1, 2, 0, 3, 4)            # a 3-cycle and two fixed points
    c3 = [(0, 1, 2, 3, 4), rot, tuple(rot[rot[i]] for i in range(5))]
    got = orbits([4, 2, 3, 0, 1], lambda x: [p[x] for p in c3])
    assert got == [(4, [4, 4, 4]), (2, [2, 0, 1]), (3, [3, 3, 3])]


def test_orbits_reject_an_acting_set_that_is_not_a_group():
    # one transposition without the identity: its image set of 0 misses 0
    swap = (1, 0, 2)
    with pytest.raises(InvariantError, match="not a group"):
        orbits(range(3), lambda x: [swap[x]])
    # identity plus a 3-cycle but not its square: the image sets overlap
    cyc = (1, 2, 0)
    with pytest.raises(InvariantError, match="not a group"):
        orbits(range(3), lambda x: [x, cyc[x]])


def test_orbits_reject_images_that_leave_the_items():
    # a group acting on more than the items: the orbit of 0 under the
    # 3-cycle reaches 2, which the items leave out
    cyc = (1, 2, 0)
    c3 = [(0, 1, 2), cyc, tuple(cyc[cyc[i]] for i in range(3))]
    with pytest.raises(InvariantError, match="not a group"):
        orbits([0, 1], lambda x: [p[x] for p in c3])
    # the same leak found late: the first orbit stays inside the items
    with pytest.raises(InvariantError, match="not a group"):
        orbits([3, 0, 1], lambda x: [x] if x == 3 else [p[x] for p in c3])


SHEAR = ((1, 1), (0, 1))


def _shear_the_reflection(cox, acting, spec):
    # gl2's dual Weyl group with its reflection replaced by a shear
    return tuple(g if g == identity(2) else SHEAR for g in acting)


def _shear_the_component_block(cox, acting, spec):
    # the acting matrices outside the identity component's block moved by a
    # shear, which normalizes neither the torus points nor the Weyl group
    block = spec.components.index(identity(spec.datum.rank))
    return tuple(g if i // cox.order == block else mat_mul(SHEAR, g)
                 for i, g in enumerate(acting))


@pytest.mark.parametrize("config,breaker", [
    ("gl2", _shear_the_reflection),
    ({"type": "A1xA1", "component_group": [[[0, 1], [1, 0]]]},
     _shear_the_component_block),
    ({"type": "A2", "isogeny": "ad", "component_group": [[[0, 1], [1, 0]]]},
     _shear_the_component_block),
], ids=["gl2-shear", "a1xa1-swap", "a2ad-swap"])
def test_a_broken_acting_group_ends_in_invariant_error(monkeypatch, config,
                                                       breaker):
    # the torus orbits are one ``orbits`` pass, which checks the partition
    build = acting_group.__wrapped__

    def spy(spec):
        cox, acting = build(spec)
        return cox, breaker(cox, acting, spec)

    monkeypatch.setattr(acting_group, "__wrapped__", spy)
    for q in (3, 5, 7):
        with pytest.raises(InvariantError, match="not a group"):
            stable_point_orbits(parse_group_spec(config, q=q))


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
    assert g.elements == tuple(elems)
    assert all(g.index[x] == i for i, x in enumerate(elems))
    assert g.labels == tuple(labels)
    assert g.identity == 0
    assert all(elems[g.mul(i, j)] == (elems[i] + elems[j]) % 6
               for i in range(6) for j in range(6))


def test_table_group_rejects_a_set_that_is_not_closed():
    with pytest.raises(ValueError, match="not closed"):
        table_group([0, 1, 2], lambda a, b: (a + b) % 4, ["e", "x", "y"])


def test_permuted_moves_entry_i_to_slot_perm_i():
    assert permuted(("a", "b", "c"), (2, 0, 1)) == ("b", "c", "a")
    assert permuted((), ()) == ()


def test_strata_by_type_builds_each_type_once():
    # three orbits of two types: the first type is built once and its strata
    # are handed to each orbit under that orbit's label, in orbit order
    torus_orbits = [TorusOrbit((0,), ((0,),), 2, "k1"),
                    TorusOrbit((1,), ((1,),), 2, "k2"),
                    TorusOrbit((1,), ((1,), (3,)), 4, "k1")]
    built = []

    def build(key):
        built.append(key)
        return [Stratum("", (("key", key),), "1", (Packet("e", 1, "1"),))]

    strata = strata_by_type(torus_orbits, build)
    assert built == ["k1", "k2"]
    assert [(st.ss_label, st.labels) for st in strata] == [
        ("(0)", (("key", "k1"),)), ("(1/2)", (("key", "k2"),)),
        ("(1/4)", (("key", "k1"),))]


def test_groups_compare_and_hash_by_value():
    assert cyclic(3) == cyclic(3) and hash(cyclic(3)) == hash(cyclic(3))
    assert cyclic(3) != cyclic(2)
    # same elements and labels, another multiplication: Z/4 against Z2 x Z2
    labels = ["e", "a", "b", "c"]
    z4 = table_group(range(4), lambda a, b: (a + b) % 4, labels)
    klein = table_group(range(4), lambda a, b: a ^ b, labels)
    assert z4 != klein and z4 == table_group(range(4), lambda a, b: (a + b) % 4,
                                             labels)
    assert cyclic(1) != (0,)


def recording(fn):
    """``fn`` under ``memo``, with the list of arguments it was run on."""
    runs = []

    @memo
    def wrapped(*args, **kwargs):
        runs.append(args)
        return fn(*args, **kwargs)
    return wrapped, runs


def test_memo_keys_on_every_positional_argument():
    sub, runs = recording(lambda a, b: a - b)
    with call_scope():
        assert [sub(5, 1), sub(5, 2), sub(5, 1), sub(1, 5)] == [4, 3, 4, -4]
    assert runs == [(5, 1), (5, 2), (1, 5)]


def test_memo_stores_nothing_for_a_call_that_raises():
    def refuse(x):
        raise InvariantError(f"refused {x}")

    fails, runs = recording(refuse)
    with call_scope():
        for _ in range(2):
            with pytest.raises(InvariantError, match="refused 1"):
                fails(1)
    assert runs == [(1,), (1,)]


def test_memo_leaves_keyword_arguments_out_of_the_key():
    seen = []

    def first(x, rng=None):
        seen.append(rng)
        return x

    f, runs = recording(first)
    with call_scope():
        assert f(1, rng="a") == 1 and f(1, rng="b") == 1 and f(1) == 1
    assert runs == [(1,)] and seen == ["a"]


def test_nested_scope_shares_the_outer_table():
    f, runs = recording(lambda x: [x])
    with call_scope():
        outer = f(1)
        with call_scope():
            assert f(1) is outer
        assert f(1) is outer and groups._scope is not None
    assert runs == [(1,)]


def test_outermost_scope_drops_its_table_on_exit():
    f, runs = recording(lambda x: x)
    assert groups._scope is None
    with call_scope():
        f(1)
    assert groups._scope is None
    with pytest.raises(ValueError, match="stop"):
        with call_scope():
            f(1)
            raise ValueError("stop")
    assert groups._scope is None
    with call_scope():
        f(1)
    assert runs == [(1,)] * 3


def test_memo_outside_a_scope_runs_every_call():
    f, runs = recording(lambda x: [x])
    assert f(1) == [1] and f(1) is not f(1)
    assert runs == [(1,)] * 3
