"""Both pipelines build their geometry and strata once per semisimple type
and hand copies to the other orbits of that type.  These tests rebuild every
orbit's strata on its own, without the table, and compare.

The specs are the benchmark's ``twisted-grid`` workload, read from
``perfbench/cases.py`` (which this test only reads), plus three larger ones.
"""

import importlib.util
from pathlib import Path

import pytest

from lpackets.coxeter import enumerate_weyl
from lpackets.rootdata import dual_datum, parse_group_spec
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
