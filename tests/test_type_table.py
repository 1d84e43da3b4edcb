"""Both pipelines build their geometry and strata once per semisimple type
and hand copies to the other orbits of that type.  These tests rebuild every
orbit's strata on its own, without the table, and compare.  They also check
the images each orbit carries, from which both keys are read, against the
per-element action, and the keys against a scan of the acting group.

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


def _stratified_by_orbit(spec):
    amb = strata._Ambient(spec)
    orbits = strata.semisimple_parameters(spec, amb=amb)
    keys = {strata._type_key(amb, ss) for ss in orbits}
    return [st for ss in orbits for st in strata._point_strata(amb, ss)], \
        len(keys), len(orbits)


def _spectral_by_orbit(spec):
    cox = enumerate_weyl(dual_datum(spec.datum))
    classes = spectral.enumerate_ss_classes(spec, cox=cox)
    keys = {spectral._type_key(spec, ssc, cox) for ssc in classes}
    return [st for ssc in classes
            for st in spectral._class_strata(spec, ssc, cox)], \
        len(keys), len(classes)


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


def _stratified_key_by_scan(amb, ss):
    rep, modulus = ss.rep, ss.modulus
    stab = tuple(i for i, (_, m) in enumerate(amb.elements)
                 if mat_vec_mod(m, rep, modulus) == rep)
    target = amb.frobenius(rep, modulus)
    w0 = next((i for i, w in enumerate(amb.cox.elements)
               if mat_vec_mod(w, target, modulus) == rep), None)
    return integral_root_positions(amb.dd, rep, modulus), stab, w0


def _spectral_key_by_scan(spec, ssc, cox):
    rep, modulus = ssc.rep, ssc.modulus
    stab = tuple(i for i, w in enumerate(cox.elements)
                 if mat_vec_mod(w, rep, modulus) == rep)
    target = tuple(spec.q * x % modulus for x in mat_vec(spec.twist.sigma_x, rep))
    w0 = next((i for i, w in enumerate(cox.elements)
               if mat_vec_mod(w, rep, modulus) == target), None)
    return integral_root_positions(cox.datum, rep, modulus), stab, w0


def _assert_images(orbits, acting):
    for o in orbits:
        assert o.images == tuple(mat_vec_mod(g, o.rep, o.modulus) for g in acting)


@pytest.mark.parametrize("label,q", SPECS, ids=[f"{l}/F{q}" for l, q in SPECS])
@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_images_and_keys_match_a_scan_of_the_acting_group(label, q, seed):
    spec = parse_group_spec(_CASES.group_config(label), q=q)
    rng = None if seed is None else random.Random(seed)
    amb = strata._Ambient(spec)
    orbits = strata.semisimple_parameters(spec, rng=rng, amb=amb)
    _assert_images(orbits, [m for _, m in amb.elements])
    for ss in orbits:
        assert strata._type_key(amb, ss) == _stratified_key_by_scan(amb, ss)
    if spec.connected:
        cox = enumerate_weyl(dual_datum(spec.datum))
        classes = spectral.enumerate_ss_classes(spec, rng=rng, cox=cox)
        _assert_images(classes, cox.elements)
        for ssc in classes:
            assert spectral._type_key(spec, ssc, cox) == \
                _spectral_key_by_scan(spec, ssc, cox)


def test_a_non_group_acting_list_is_refused():
    # the dual Weyl group without its identity: the image set of a point
    # off every reflection wall misses the point itself
    spec = parse_group_spec("gl3", q=5)
    cox = enumerate_weyl(dual_datum(spec.datum))
    with pytest.raises(InvariantError):
        stable_point_orbits(spec, cox.elements, cox.elements[1:], None)
