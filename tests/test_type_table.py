"""Both pipelines build their geometry and strata once per semisimple type,
from the type key alone, and hand them to the other orbits of that type.
These tests rebuild every orbit's strata on its own, from a key found by a
scan of the roots, the acting group and the Weyl group at the orbit's
point, without the table, and compare.  They check each orbit's points
against the per-element action, also from a point picked at random, the
key-built geometry against scans at every orbit's own point, and the order
in which ``acting_group`` lists the acting matrices.  The key
``stable_point_orbits`` hands over is checked against the same scan, on
these specs and more, in ``tests/test_rootdata.py``.

The specs are the benchmark's ``twisted-grid`` workload, read from
``perfbench/cases.py`` (which this test only reads), plus three larger ones.
"""

import random

import pytest

from lpackets.groups import call_scope
from lpackets.lattice import identity, mat_mul
from lpackets.rootdata import acting_group, parse_group_spec, x_preserves
from lpackets import spectral, strata
from perfbench_files import load_perfbench
from torus_scan import frobenius, key_by_scan, mat_vec_mod

_CASES = load_perfbench("cases")
SPECS = sorted({(label, q) for _, label, q in _CASES.WORKLOADS["twisted-grid"]}
               | {("gl3", 5), ("sp4", 5), ("g2", 7)})


def _by_orbit(spec, orbits, type_strata):
    """Every orbit's strata, rebuilt from its scanned key without the table,
    with the number of distinct keys and of orbits."""
    with call_scope():
        keys = [key_by_scan(spec, o) for o in orbits]
        return [st._replace(ss_label=o.label()) for o, key in zip(orbits, keys)
                for st in type_strata(spec, key)], len(set(keys)), len(orbits)


def _stratified_by_orbit(spec):
    return _by_orbit(spec, strata.semisimple_parameters(spec),
                     strata._point_strata)


def _spectral_by_orbit(spec):
    return _by_orbit(spec, spectral.enumerate_ss_classes(spec),
                     spectral._class_strata)


@pytest.mark.parametrize("label,q", SPECS, ids=[f"{l}/F{q}" for l, q in SPECS])
def test_type_table_matches_per_orbit_geometry(label, q):
    spec = parse_group_spec(_CASES.group_config(label), q=q)
    runs = [(strata.stratified_strata(spec), _stratified_by_orbit(spec))]
    if spec.connected:
        runs.append((spectral.spectral_strata(spec), _spectral_by_orbit(spec)))
    for out, (direct, _, _) in runs:
        assert out == direct


def test_every_stratum_is_a_value():
    # strata are shared between the orbits of a type and through the memo,
    # so none may hold a mutable field: every one hashes, and its labels and
    # packets are tuples
    for label, q in SPECS:
        spec = parse_group_spec(_CASES.group_config(label), q=q)
        pipelines = [strata.stratified_strata]
        if spec.connected:
            pipelines.append(spectral.spectral_strata)
        for pipeline in pipelines:
            for st in pipeline(spec):
                hash(st)
                assert type(st.labels) is tuple, (label, q)
                assert type(st.packets) is tuple, (label, q)


def test_type_table_merges_orbits():
    # the comparison above is only a check of the table where types repeat
    spec = parse_group_spec("gl3", q=5)
    for _, nkeys, norbits in (_stratified_by_orbit(spec),
                              _spectral_by_orbit(spec)):
        assert nkeys < norbits


@pytest.mark.parametrize("label,q", SPECS, ids=[f"{l}/F{q}" for l, q in SPECS])
def test_key_built_geometry_matches_a_scan_at_every_point(label, q):
    # one geometry per key, checked at the point of every orbit of that key
    spec = parse_group_spec(_CASES.group_config(label), q=q)
    with call_scope():
        cox, acting = acting_group(spec)
        geos = {}
        for ss in strata.semisimple_parameters(spec):
            if ss.key not in geos:
                geos[ss.key] = strata._PointGeometry(spec, ss.key)
            geo = geos[ss.key]
            rep, modulus = ss.rep, ss.modulus
            stab = [m for m in acting if mat_vec_mod(m, rep, modulus) == rep]
            assert geo.omega.elements == tuple(m for m in stab if geo._based(m))
            target = frobenius(spec, rep, modulus)
            assert {mat_mul(u, w) for w in geo.coset_reps
                    for u in geo.sub_cox.elements} == {
                w for w in cox.elements if mat_vec_mod(w, target, modulus) == rep}
        if not spec.connected:
            return
        geos = {}
        for ssc in spectral.enumerate_ss_classes(spec):
            if ssc.key not in geos:
                geos[ssc.key] = spectral._StratumGeometry(spec, ssc.key)
            geo = geos[ssc.key]
            rep, modulus = ssc.rep, ssc.modulus
            pos_set = {cox.datum.roots[i] for i in geo.sub.positive_positions}
            assert geo.pi0.elements == tuple(w for w in cox.elements
                                             if mat_vec_mod(w, rep, modulus) == rep
                                             and x_preserves(w, pos_set))


# each orbit's key is checked against the scan of tests/torus_scan.py by
# tests/test_rootdata.py::test_type_keys_match_the_three_way_reading; here the
# two pipelines' orbits, keys included, must be equal
@pytest.mark.parametrize("label,q", SPECS, ids=[f"{l}/F{q}" for l, q in SPECS])
@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_images_and_keys_match_a_scan_of_the_acting_group(label, q, seed):
    spec = parse_group_spec(_CASES.group_config(label), q=q)
    with call_scope():
        acting = acting_group(spec)[1]
        orbits = strata.semisimple_parameters(spec)
        # each orbit is the image set of its least point, and of the point
        # the seed picks from it: the acting matrices form a group
        pick = random.Random(seed)
        for o in orbits:
            assert o.rep == min(o.orbit)
            point = o.rep if seed is None else pick.choice(o.orbit)
            assert o.orbit == tuple(sorted({mat_vec_mod(g, point, o.modulus)
                                            for g in acting}))
        if spec.connected:
            assert spectral.enumerate_ss_classes(spec) == orbits


GRID = sorted({(label, q) for _, label, q in _CASES.WORKLOADS["twisted-grid"]})


def test_the_acting_group_is_w_extended_by_the_components():
    # component-major, each coset in the dual Weyl group's order: the
    # identity component's block is W itself, wherever the component group
    # lists the identity (o2 lists [[-1]] first)
    disconnected = []
    for label, q in GRID:
        spec = parse_group_spec(_CASES.group_config(label), q=q)
        cox, acting = acting_group(spec)
        if spec.connected:
            assert acting == cox.elements, label
            continue
        block = spec.components.index(identity(spec.datum.rank))
        n = cox.order
        assert len(acting) == len(spec.components) * n, label
        assert acting[block * n:(block + 1) * n] == cox.elements, label
        disconnected.append((label, block))
    assert ("o2", 1) in disconnected
