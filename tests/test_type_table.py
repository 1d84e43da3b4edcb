"""Both pipelines build their geometry and strata once per semisimple type,
from the type key alone, and hand copies to the other orbits of that type.
These tests rebuild every orbit's strata on its own, from a key found by a
scan of the acting group at the orbit's point, without the table, and
compare.  They check the images each orbit carries, from which both keys
are read, against the per-element action, the keys against that scan, and
the key-built geometry against scans at every orbit's own point.

The specs are the benchmark's ``twisted-grid`` workload, read from
``perfbench/cases.py`` (which this test only reads), plus three larger ones.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from lpackets.coxeter import enumerate_weyl
from lpackets.errors import InvariantError
from lpackets.lattice import mat_vec, mat_vec_mod
from lpackets.rootdata import (
    dual_datum,
    integral_root_positions,
    parse_group_spec,
    stable_point_orbits,
    x_preserves,
)
from lpackets import spectral, strata

CASES_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "cases.py"


def _load_cases():
    spec = importlib.util.spec_from_file_location("perfbench_cases", CASES_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_CASES = _load_cases()
SPECS = sorted({(label, q) for _, label, q in _CASES.WORKLOADS["twisted-grid"]}
               | {("gl3", 5), ("sp4", 5), ("g2", 7)})


def _frobenius(spec, rep, modulus):
    return tuple(spec.q * x % modulus for x in mat_vec(spec.twist.sigma_x, rep))


def _stratified_key_by_scan(amb, ss):
    rep, modulus = ss.rep, ss.modulus
    stab = tuple(i for i, (_, m) in enumerate(amb.elements)
                 if mat_vec_mod(m, rep, modulus) == rep)
    target = _frobenius(amb.spec, rep, modulus)
    w0 = next((i for i, w in enumerate(amb.cox.elements)
               if mat_vec_mod(w, target, modulus) == rep), None)
    return integral_root_positions(amb.dd, rep, modulus), stab, w0


def _spectral_key_by_scan(spec, ssc, cox):
    rep, modulus = ssc.rep, ssc.modulus
    stab = tuple(i for i, w in enumerate(cox.elements)
                 if mat_vec_mod(w, rep, modulus) == rep)
    target = _frobenius(spec, rep, modulus)
    w0 = next((i for i, w in enumerate(cox.elements)
               if mat_vec_mod(w, rep, modulus) == target), None)
    return integral_root_positions(cox.datum, rep, modulus), stab, w0


def _stratified_by_orbit(spec):
    amb = strata._Ambient(spec)
    orbits = strata.semisimple_parameters(spec, amb=amb)
    keys = [_stratified_key_by_scan(amb, ss) for ss in orbits]
    return [st.relabelled(ss.label()) for ss, key in zip(orbits, keys)
            for st in strata._point_strata(amb, key)], \
        len(set(keys)), len(orbits)


def _spectral_by_orbit(spec):
    cox = enumerate_weyl(dual_datum(spec.datum))
    classes = spectral.enumerate_ss_classes(spec, cox=cox)
    keys = [_spectral_key_by_scan(spec, ssc, cox) for ssc in classes]
    return [st.relabelled(ssc.label()) for ssc, key in zip(classes, keys)
            for st in spectral._class_strata(spec, key, cox)], \
        len(set(keys)), len(classes)


def _assert_unshared(out):
    assert len({id(st.labels) for st in out}) == len(out)
    assert len({id(st.packets) for st in out}) == len(out)


@pytest.mark.parametrize("label,q", SPECS, ids=[f"{l}/F{q}" for l, q in SPECS])
def test_type_table_matches_per_orbit_geometry(label, q):
    spec = parse_group_spec(_CASES.group_config(label), q=q)
    runs = [(strata.stratified_strata(spec), _stratified_by_orbit(spec))]
    if spec.connected:
        runs.append((spectral.spectral_strata(spec), _spectral_by_orbit(spec)))
    for out, (direct, _, _) in runs:
        assert out == direct
        _assert_unshared(out)


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
    amb = strata._Ambient(spec)
    geos = {}
    for ss in strata.semisimple_parameters(spec, amb=amb):
        key = strata._type_key(amb, ss)
        if key not in geos:
            geos[key] = strata._PointGeometry(amb, key)
        geo = geos[key]
        rep, modulus = ss.rep, ss.modulus
        stab = [m for _, m in amb.elements if mat_vec_mod(m, rep, modulus) == rep]
        assert geo.omega_mats == [m for m in stab if geo._based(m)]
        target = _frobenius(spec, rep, modulus)
        assert set(geo.coset_of) == {w for w in amb.cox.elements
                                     if mat_vec_mod(w, target, modulus) == rep}
    if not spec.connected:
        return
    cox = enumerate_weyl(dual_datum(spec.datum))
    geos = {}
    for ssc in spectral.enumerate_ss_classes(spec, cox=cox):
        key = spectral._type_key(spec, ssc, cox)
        if key not in geos:
            geos[key] = spectral._StratumGeometry(spec, key, cox)
        geo = geos[key]
        rep, modulus = ssc.rep, ssc.modulus
        pos_set = {cox.datum.roots[i] for i in geo.sub.positive_positions}
        assert geo.pi0 == [w for w in cox.elements
                           if mat_vec_mod(w, rep, modulus) == rep
                           and x_preserves(w, pos_set)]


def _assert_images(orbits, acting):
    for o in orbits:
        assert o.images == tuple(mat_vec_mod(g, o.rep, o.modulus) for g in acting)


def _shuffled(items, seed):
    items = list(items)
    if seed is not None:
        random.Random(seed).shuffle(items)
    return items


def _assert_order_free(spec, orbits, weyl, acting, seed):
    # the orbits depend on the two lists only as sets, and the images follow
    # the acting list's order
    acting = _shuffled(acting, seed)
    again = stable_point_orbits(spec, _shuffled(weyl, seed), acting)
    assert [(o.rep, o.orbit, o.modulus) for o in again] == \
        [(o.rep, o.orbit, o.modulus) for o in orbits]
    _assert_images(again, acting)


@pytest.mark.parametrize("label,q", SPECS, ids=[f"{l}/F{q}" for l, q in SPECS])
@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_images_and_keys_match_a_scan_of_the_acting_group(label, q, seed):
    spec = parse_group_spec(_CASES.group_config(label), q=q)
    amb = strata._Ambient(spec)
    acting = [m for _, m in amb.elements]
    orbits = strata.semisimple_parameters(spec, amb=amb)
    _assert_images(orbits, acting)
    for ss in orbits:
        assert strata._type_key(amb, ss) == _stratified_key_by_scan(amb, ss)
    _assert_order_free(spec, orbits, amb.cox.elements, acting, seed)
    if spec.connected:
        cox = enumerate_weyl(dual_datum(spec.datum))
        classes = spectral.enumerate_ss_classes(spec, cox=cox)
        _assert_images(classes, cox.elements)
        for ssc in classes:
            assert spectral._type_key(spec, ssc, cox) == \
                _spectral_key_by_scan(spec, ssc, cox)
        _assert_order_free(spec, classes, cox.elements, cox.elements, seed)


def test_a_non_group_acting_list_is_refused():
    # the dual Weyl group without its identity: the image set of a point
    # off every reflection wall misses the point itself
    spec = parse_group_spec("gl3", q=5)
    cox = enumerate_weyl(dual_datum(spec.datum))
    with pytest.raises(InvariantError):
        stable_point_orbits(spec, cox.elements, cox.elements[1:])
