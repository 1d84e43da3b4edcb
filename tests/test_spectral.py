import random

import pytest

from lpackets.errors import PipelineUnavailableError
from lpackets.report import spectral_report
from lpackets.rootdata import parse_group_spec
from lpackets.spectral import enumerate_ss_classes, spectral_strata

KNOWN_TOTALS = [
    ("sl2", 2, 3),
    ("sl2", 3, 7),
    ("sl2", 4, 5),
    ("sl2", 5, 9),
    ("gl2", 2, 3),
    ("gl2", 3, 8),
    ("pgl2", 3, 5),
    ("gl3", 2, 6),
    ("torus1", 2, 1),
    ("torus1", 3, 2),
    ("torus1", 4, 3),
    ("torus1", 5, 4),
    ("sp4", 3, 34),
    ("g2", 5, 44),
]


def spec_of(name, q):
    return parse_group_spec(name, q=q)


def spectral_packets(spec):
    """Every spectral parameter as (semisimple label, packet)."""
    return [(label, p) for label, s in spectral_strata(spec) for p in s.packets]


@pytest.mark.parametrize("name,q,expected", KNOWN_TOTALS)
def test_total_counts(name, q, expected):
    assert spectral_report(spec_of(name, q)).total == expected


def test_disconnected_group_is_rejected():
    with pytest.raises(PipelineUnavailableError):
        spectral_report(spec_of("o2", 3))


def test_sl2_f3_ss_classes():
    classes = enumerate_ss_classes(spec_of("sl2", 3))
    labels = [c.label for c in classes]
    assert labels == ["(0)", "(1/4)", "(1/2)"]
    by_label = {c.label: c for c in classes}
    assert len(by_label["(0)"].orbit) == 1
    assert len(by_label["(1/2)"].orbit) == 1
    assert len(by_label["(1/4)"].orbit) == 2


def test_sl2_f3_packet_structure():
    params = spectral_packets(spec_of("sl2", 3))
    assert len(params) == 5
    assert sorted(p.size for _, p in params) == [1, 1, 1, 2, 2]
    halves = [p for ss_label, p in params if ss_label == "(1/2)"]
    assert halves
    assert all(p.group_label == "Z2" for p in halves)


def test_gl2_packets_are_all_singletons():
    params = spectral_packets(spec_of("gl2", 3))
    assert len(params) == 8
    assert all(p.size == 1 for _, p in params)


def test_sp4_f3_middle_block():
    strata = spectral_strata(spec_of("sp4", 3))
    half = [s for label, s in strata if label == "(1/2,1/2)"]
    sizes = sorted(p.size for s in half for p in s.packets)
    assert sizes == [1, 2, 2, 2, 2]
    zero_total = sum(s.total for label, s in strata if label == "(0,0)")
    assert zero_total == 6


def test_twisted_a2_totals():
    su3 = {"type": "A2", "isogeny": "sc", "twist": [1, 0]}
    assert spectral_report(parse_group_spec(su3, q=2)).total == 16
    assert spectral_report(parse_group_spec(su3, q=3)).total == 14


@pytest.mark.parametrize("name,q", [("sl2", 3), ("gl2", 3), ("sp4", 3)])
def test_rng_does_not_change_parameters(name, q):
    base = spectral_strata(spec_of(name, q))
    for seed in (0, 1, 42):
        shuffled = spectral_strata(spec_of(name, q), rng=random.Random(seed))
        assert shuffled == base


def test_ss_orbit_sizes_sum_to_solution_points():
    # for gl2 the split torus contributes (q-1)^2 points and the twisted one
    # q^2-1, overlapping in the q-1 diagonal points of order dividing q-1
    spec = spec_of("gl2", 4)
    q = spec.q
    classes = enumerate_ss_classes(spec)
    assert sum(len(c.orbit) for c in classes) == \
        (q - 1) ** 2 + (q ** 2 - 1) - (q - 1)
    central = (q - 1)
    split_regular = (q - 1) * (q - 2) // 2
    nonsplit_regular = (q ** 2 - q) // 2
    assert len(classes) == central + split_regular + nonsplit_regular
