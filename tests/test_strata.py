import random
from collections import Counter
from itertools import product
from types import SimpleNamespace

import pytest

from lpackets.coxeter import cells, enumerate_weyl, kl_table
from lpackets.groups import Packet, call_scope, table_group
from lpackets.oracle import oracle_count
from lpackets.report import spectral_report, stratified_report
from lpackets.rootdata import _build_datum, centralizer_subdatum, parse_group_spec
from lpackets.spectral import spectral_strata
from lpackets.strata import (
    _PointGeometry,
    _stratum_packets,
    _subsystem_cells,
    semisimple_parameters,
    stratified_strata,
)

CONNECTED = [
    ("sl2", 2), ("sl2", 3), ("sl2", 4), ("sl2", 5),
    ("gl2", 2), ("gl2", 3),
    ("pgl2", 3),
    ("gl3", 2),
    ("torus1", 2), ("torus1", 3), ("torus1", 4), ("torus1", 5),
    ("sp4", 3),
    ("g2", 5),
]


def spec_of(name, q):
    return parse_group_spec(name, q=q)


def stratified_packets(spec):
    """Every stratified parameter as (semisimple label, packet)."""
    return [(label, p) for label, s in stratified_strata(spec) for p in s.packets]


def spectral_packets(spec):
    """Every spectral parameter as (semisimple label, packet)."""
    return [(label, p) for label, s in spectral_strata(spec) for p in s.packets]


@pytest.mark.parametrize("name,q", CONNECTED)
def test_agrees_with_spectral_total(name, q):
    spec = spec_of(name, q)
    assert stratified_report(spec).total == spectral_report(spec).total


@pytest.mark.parametrize("name,q", CONNECTED)
def test_agrees_with_spectral_per_orbit(name, q):
    spec = spec_of(name, q)
    spectral_sub = Counter()
    for ss_label, p in spectral_packets(spec):
        spectral_sub[ss_label] += p.size
    strat_sub = Counter()
    for ss_label, p in stratified_packets(spec):
        strat_sub[ss_label] += p.size
    assert spectral_sub == strat_sub


@pytest.mark.parametrize("name,q", CONNECTED)
def test_agrees_with_spectral_packet_multiset(name, q):
    spec = spec_of(name, q)
    a = Counter(p.size for _, p in spectral_packets(spec))
    b = Counter(p.size for _, p in stratified_packets(spec))
    assert a == b


@pytest.mark.parametrize("q,expected", [(3, 4), (5, 5), (7, 6), (9, 7)])
def test_disconnected_orthogonal_total(q, expected):
    spec = spec_of("o2", q)
    assert stratified_report(spec).total == expected
    assert oracle_count("o2", q).class_count == expected


def test_sl2_f3_stratified_breakdown():
    strata = stratified_strata(spec_of("sl2", 3))
    table = Counter()
    for label, s in strata:
        table[label] += s.total
    assert table == {"(0)": 2, "(1/2)": 4, "(1/4)": 1}
    half = [s for label, s in strata if label == "(1/2)"]
    assert len(half) == 2
    assert {dict(s.labels)["beta"] for s in half} == {"e", "0"}
    assert all(s.total == 2 for s in half)


def test_sp4_f3_stratified_blocks():
    strata = stratified_strata(spec_of("sp4", 3))
    half = [s for label, s in strata if label == "(1/2,1/2)"]
    sizes = sorted(p.size for s in half for p in s.packets)
    assert sizes == [1, 2, 2, 2, 2]
    zero = sum(s.total for label, s in strata if label == "(0,0)")
    assert zero == 6


def test_g2_f5_stratified_unipotent_block():
    strata = stratified_strata(spec_of("g2", 5))
    zero = sum(s.total for label, s in strata if label == "(0,0)")
    assert zero == 10


def test_twisted_a2_cross_pipeline():
    su3 = {"type": "A2", "isogeny": "sc", "twist": [1, 0]}
    for q, expected in [(2, 16), (3, 14)]:
        spec = parse_group_spec(su3, q=q)
        assert stratified_report(spec).total == expected
        assert spectral_report(spec).total == expected


def test_semisimple_parameters_match_spectral_labels():
    # one spec holds one list of orbits for both routes, so each route reads
    # its own parse of the group here
    from lpackets.spectral import enumerate_ss_classes
    a = sorted(c.label for c in enumerate_ss_classes(spec_of("sp4", 3)))
    b = sorted(s.label for s in semisimple_parameters(spec_of("sp4", 3)))
    assert a == b


@pytest.mark.parametrize("name,q", [("sl2", 3), ("o2", 3), ("sp4", 3)])
def test_rng_does_not_change_parameters(name, q):
    spec = spec_of(name, q)
    base = stratified_strata(spec)
    for seed in (0, 1, 42):
        shuffled = stratified_strata(spec, rng=random.Random(seed))
        assert shuffled == base


def test_packet_group_labels_present():
    for _, p in stratified_packets(spec_of("sl2", 3)):
        assert p.group_label
    halves = [p for ss_label, p in stratified_packets(spec_of("sl2", 3))
              if ss_label == "(1/2)"]
    assert halves
    assert all(p.group_label == "Z2" for p in halves)


def test_beta_classes_cover_frobenius_cosets():
    # for sl2 at the half point both reflection cosets survive as distinct
    # beta classes; at zero only the trivial coset appears, and it is the
    # only Frobenius coset there, so its twisted class has one coset
    spec = spec_of("sl2", 3)
    strata = stratified_strata(spec)
    zero = [s for label, s in strata if label == "(0)"]
    assert {dict(s.labels)["beta"] for s in zero} == {"e"}
    [orbit] = [o for o in semisimple_parameters(spec) if o.label == "(0)"]
    geo = _PointGeometry(spec, orbit.key)
    assert len(geo.coset_reps) == 1


def test_frobenius_swap_of_two_b2_factors():
    # One stratum of B2xB2 with the factor swap, whose totals
    # tests/test_references.py checks through both pipelines, built here by
    # hand: two B2 factors in the Z2 family, a trivial Omega, and a coset
    # whose Frobenius map swaps the factors.  The packets are then the
    # tau-twisted classes of Z2 x Z2, which are the classes of Z2 over
    # F_q^2: M(Z2) = 4, criterion 4's B2 block.
    geo = SimpleNamespace(sub=SimpleNamespace(factor_types=("B2", "B2")),
                          omega=table_group([0], lambda a, b: 0, ["e"]),
                          omega_perms=[(0, 1)], beta_perms=[(1, 0)])
    packets, desc = _stratum_packets(geo, ("0", "0"), 0, [0])
    assert packets == (Packet("e*e", 2, "Z2"), Packet("e*g1", 2, "Z2"))
    assert desc == "Z2xZ2"
    # a Frobenius map that fixes both factors gives the product block 4^2
    geo.beta_perms = [(0, 1)]
    packets, _ = _stratum_packets(geo, ("0", "0"), 0, [0])
    assert [(p.size, p.group_label) for p in packets] == [(4, "Z2xZ2")] * 4


def test_packet_memo_tells_the_frobenius_maps_apart():
    # the two strata above differ only in tau's factor permutation; inside
    # one memo scope the second must not read the first one's packets
    with call_scope():
        test_frobenius_swap_of_two_b2_factors()


SIMPLE_RANK = {"A1": 1, "A2": 2, "B2": 2, "G2": 2}
PRODUCTS = [f for k in range(1, 5) for f in product(SIMPLE_RANK, repeat=k)
            if sum(SIMPLE_RANK[t] for t in f) <= 4]


def test_product_cells_are_the_kl_cells():
    # the pipeline reads a product's cells from its factors' cells; KL run
    # on the whole product must give the same two-sided cells, in order
    assert len(PRODUCTS) == 31
    for factors in PRODUCTS:
        datum = _build_datum(factors, 0, None)
        sub = centralizer_subdatum(datum, tuple(range(len(datum.roots))))
        _, pairs = _subsystem_cells(sub)
        kl_cells = cells(kl_table(enumerate_weyl(sub.as_datum())))
        assert kl_cells.two_sided_cells == tuple(m for _, m in pairs), factors
