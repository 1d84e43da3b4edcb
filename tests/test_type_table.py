"""Both pipelines build their geometry and strata once per semisimple type,
from the type key alone, and hand them to the other orbits of that type.
These tests rebuild every orbit's strata on its own, from a key found by a
scan of the roots, the acting group and the Weyl group at the orbit's
point, without the table, and compare.  They check each orbit's points
against the per-element action, the key ``stable_point_orbits`` hands over
against that scan, also for a shuffled acting list, and the key-built
geometry against scans at every orbit's own point.

The specs are the benchmark's ``twisted-grid`` workload, read from
``perfbench/cases.py`` (which this test only reads), plus three larger ones.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from lpackets.coxeter import enumerate_weyl
from lpackets.errors import InvariantError
from lpackets.lattice import mat_mul, mat_vec
from lpackets.rootdata import (
    dual_datum,
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


def _mat_vec_mod(a, v, n):
    """a v with entries reduced to [0, n): the action of an integer matrix
    on the torsion point v / n."""
    return tuple(x % n for x in mat_vec(a, v))


def _frobenius(spec, rep, modulus):
    return tuple(spec.q * x % modulus for x in mat_vec(spec.twist.sigma_x, rep))


def _key_by_scan(spec, cox, acting, orbit):
    """The type key at the orbit's least point s: the roots integral at s,
    the positions in ``acting`` that fix s, and the position in
    ``cox.elements`` of the first w with w(s) = q sigma(s)."""
    rep, modulus = orbit.rep, orbit.modulus
    integral = tuple(i for i, r in enumerate(cox.datum.roots)
                     if sum(a * b for a, b in zip(r, rep)) % modulus == 0)
    stab = tuple(i for i, g in enumerate(acting)
                 if _mat_vec_mod(g, rep, modulus) == rep)
    target = _frobenius(spec, rep, modulus)
    witness = next((i for i, w in enumerate(cox.elements)
                    if _mat_vec_mod(w, rep, modulus) == target), None)
    return integral, stab, witness


def _stratified_key_by_scan(spec, amb, ss):
    return _key_by_scan(spec, amb.cox, amb.elements, ss)


def _spectral_key_by_scan(spec, cox, ssc):
    return _key_by_scan(spec, cox, cox.elements, ssc)


def _stratified_by_orbit(spec):
    amb = strata._Ambient(spec)
    orbits = strata.semisimple_parameters(spec, amb=amb)
    keys = [_stratified_key_by_scan(spec, amb, ss) for ss in orbits]
    return [st._replace(ss_label=ss.label()) for ss, key in zip(orbits, keys)
            for st in strata._point_strata(amb, key)], \
        len(set(keys)), len(orbits)


def _spectral_by_orbit(spec):
    cox = enumerate_weyl(dual_datum(spec.datum))
    classes = spectral.enumerate_ss_classes(spec, cox=cox)
    keys = [_spectral_key_by_scan(spec, cox, ssc) for ssc in classes]
    return [st._replace(ss_label=ssc.label())
            for ssc, key in zip(classes, keys)
            for st in spectral._class_strata(spec, key, cox)], \
        len(set(keys)), len(classes)


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
    amb = strata._Ambient(spec)
    geos = {}
    for ss in strata.semisimple_parameters(spec, amb=amb):
        if ss.key not in geos:
            geos[ss.key] = strata._PointGeometry(amb, ss.key)
        geo = geos[ss.key]
        rep, modulus = ss.rep, ss.modulus
        stab = [m for m in amb.elements if _mat_vec_mod(m, rep, modulus) == rep]
        assert geo.omega.elements == tuple(m for m in stab if geo._based(m))
        target = _frobenius(spec, rep, modulus)
        assert {mat_mul(u, w) for w in geo.coset_reps
                for u in geo.sub_cox.elements} == {
            w for w in amb.cox.elements if _mat_vec_mod(w, target, modulus) == rep}
    if not spec.connected:
        return
    cox = enumerate_weyl(dual_datum(spec.datum))
    geos = {}
    for ssc in spectral.enumerate_ss_classes(spec, cox=cox):
        if ssc.key not in geos:
            geos[ssc.key] = spectral._StratumGeometry(spec, ssc.key, cox)
        geo = geos[ssc.key]
        rep, modulus = ssc.rep, ssc.modulus
        pos_set = {cox.datum.roots[i] for i in geo.sub.positive_positions}
        assert geo.pi0.elements == tuple(w for w in cox.elements
                                         if _mat_vec_mod(w, rep, modulus) == rep
                                         and x_preserves(w, pos_set))


def _assert_orbits(orbits, acting):
    # each orbit is the image set of its least point
    for o in orbits:
        assert o.rep == min(o.orbit)
        assert o.orbit == tuple(sorted({_mat_vec_mod(g, o.rep, o.modulus)
                                        for g in acting}))


def _shuffled(items, seed):
    items = list(items)
    if seed is not None:
        random.Random(seed).shuffle(items)
    return items


def _assert_order_free(spec, orbits, cox, acting, seed):
    # the orbits depend on the acting list only as a set, and the key's
    # stabilizer follows the list's order
    acting = _shuffled(acting, seed)
    again = stable_point_orbits(spec, cox, acting)
    assert [(o.rep, o.orbit, o.modulus) for o in again] == \
        [(o.rep, o.orbit, o.modulus) for o in orbits]
    assert [o.key for o in again] == \
        [_key_by_scan(spec, cox, acting, o) for o in again]


@pytest.mark.parametrize("label,q", SPECS, ids=[f"{l}/F{q}" for l, q in SPECS])
@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_images_and_keys_match_a_scan_of_the_acting_group(label, q, seed):
    spec = parse_group_spec(_CASES.group_config(label), q=q)
    amb = strata._Ambient(spec)
    acting = amb.elements
    orbits = strata.semisimple_parameters(spec, amb=amb)
    _assert_orbits(orbits, acting)
    assert [ss.key for ss in orbits] == \
        [_stratified_key_by_scan(spec, amb, ss) for ss in orbits]
    _assert_order_free(spec, orbits, amb.cox, acting, seed)
    if spec.connected:
        cox = enumerate_weyl(dual_datum(spec.datum))
        classes = spectral.enumerate_ss_classes(spec, cox=cox)
        _assert_orbits(classes, cox.elements)
        assert [ssc.key for ssc in classes] == \
            [_spectral_key_by_scan(spec, cox, ssc) for ssc in classes]
        _assert_order_free(spec, classes, cox, cox.elements, seed)


def test_a_non_group_acting_list_is_refused():
    # the dual Weyl group and minus the identity, which is not in it: the
    # image set of a point off every reflection wall meets the image set of
    # its negative
    spec = parse_group_spec("gl3", q=5)
    cox = enumerate_weyl(dual_datum(spec.datum))
    minus = tuple(tuple(-x for x in row) for row in cox.elements[0])
    with pytest.raises(InvariantError, match="not a group"):
        stable_point_orbits(spec, cox, list(cox.elements) + [minus])


def test_an_acting_list_without_a_reflection_is_refused():
    # the key's witness is found through the acting list, so the list must
    # hold the whole Weyl group
    spec = parse_group_spec("gl3", q=5)
    cox = enumerate_weyl(dual_datum(spec.datum))
    acting = [w for w in cox.elements if w != cox.generators[0]]
    with pytest.raises(InvariantError, match="lacks an element"):
        stable_point_orbits(spec, cox, acting)
