"""Deterministic work counters: parsing a spec enumerates nothing, and the
two pipelines run on one spec enumerate its torus orbits once between them,
solving and eliminating each of the |W| torsion systems once."""

import pytest

from lpackets import lattice, rootdata
from lpackets.report import spectral_report, stratified_report
from lpackets.rootdata import parse_group_spec
from lpackets.spectral import enumerate_ss_classes
from lpackets.strata import semisimple_parameters

A1XA1_TWISTED = {"type": "A1xA1", "twist": [1, 0]}
A1XA1_SWAP = {"type": "A1xA1", "component_group": [[[0, 1], [1, 0]]]}


def spy(monkeypatch, owner, name):
    """The argument tuples of every call of ``owner.name`` from now on."""
    calls = []
    fn = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)
    monkeypatch.setattr(owner, name, counted)
    return calls


def test_parsing_enumerates_no_orbits(monkeypatch):
    orbit_calls = spy(monkeypatch, rootdata, "stable_point_orbits")
    builds = spy(monkeypatch, rootdata, "acting_group")
    for config, q in [("gl3", 7), ("g2", 13), (A1XA1_TWISTED, 5),
                      (A1XA1_SWAP, 5), ("o2", 3)]:
        spec = parse_group_spec(config, q=q)
        assert not {"acting", "torus_orbits", "whittaker_torsor"} & \
            vars(spec).keys()
    assert orbit_calls == [] and builds == []


@pytest.mark.parametrize("config,q,weyl_order", [
    ("gl3", 7, 6), ("g2", 13, 12), (A1XA1_TWISTED, 5, 4),
], ids=["gl3/F7", "g2/F13", "a1xa1-twisted/F5"])
def test_both_reports_enumerate_the_orbits_once(monkeypatch, config, q,
                                                weyl_order):
    spec = parse_group_spec(config, q=q)
    orbit_calls = spy(monkeypatch, rootdata, "stable_point_orbits")
    solves = spy(monkeypatch, rootdata, "solve_torsion")
    builds = spy(monkeypatch, rootdata, "acting_group")
    eliminations = spy(monkeypatch, lattice, "_eliminate")
    assert spectral_report(spec).total == stratified_report(spec).total
    assert orbit_calls == [(spec,)]
    assert builds == [(spec,)]
    assert enumerate_ss_classes(spec) is semisimple_parameters(spec)
    # one torsion system per element of W, solved modulo the spec's common
    # modulus, and the Cartan system of the spec's Whittaker torsor
    torsion = [args for args in solves if len(args) == 2]
    assert len(torsion) == weyl_order
    assert len(solves) == weyl_order + 1
    # each torsion system's determinant and solve share one elimination
    eliminated = [a for a, in eliminations]
    assert all(eliminated.count(a) == 1 for a, _ in torsion)
