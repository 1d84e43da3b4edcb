import hashlib
import json
import random

import pytest

from lpackets import groups
from lpackets.coxeter import enumerate_weyl
from lpackets.errors import UnsupportedTypeError
from lpackets.report import (
    render_json,
    render_text,
    report_dict,
    spectral_report,
    stratified_report,
)
from lpackets.rootdata import dual_datum, parse_group_spec


def spec_of(name, q):
    return parse_group_spec(name, q=q)


def test_report_totals_and_match():
    rep = spectral_report(spec_of("sl2", 3))
    assert rep.total == 7
    assert rep.parameter_count == 5
    assert rep.match is None
    rep = spectral_report(spec_of("sl2", 3), oracle_total=7)
    assert rep.match is True
    rep = spectral_report(spec_of("sl2", 3), oracle_total=6)
    assert rep.match is False


def test_report_dict_key_order():
    rep = stratified_report(spec_of("o2", 3))
    assert list(report_dict(rep)) == [
        "group", "cartan", "q", "pipeline", "strata", "parameter_count",
        "total", "oracle_total", "match", "conventions"]


def test_render_json_round_trips():
    rep = spectral_report(spec_of("gl2", 3))
    data = json.loads(render_json(rep))
    assert data["group"] == "gl2"
    assert data["total"] == 8
    assert data["conventions"]["whittaker_torsor"] == 1


def test_render_text_mentions_oracle():
    rep = spectral_report(spec_of("sl2", 3), oracle_total=7)
    text = render_text(rep)
    assert "oracle" in text
    assert "MISMATCH" not in text
    bad = spectral_report(spec_of("sl2", 3), oracle_total=6)
    assert "MISMATCH" in render_text(bad)


def test_both_reports_agree():
    spec = spec_of("sl2", 5)
    a, b = spectral_report(spec), stratified_report(spec)
    assert a.pipeline == "spectral"
    assert b.pipeline == "stratified"
    assert a.total == b.total == 9


def spy_on_weyl_builds(monkeypatch):
    """The data ``enumerate_weyl`` builds a group for, each with whether a
    memo table was open at the time."""
    builds = []
    build = enumerate_weyl.__wrapped__

    def spy(datum):
        builds.append((datum, groups._scope is not None))
        return build(datum)
    monkeypatch.setattr(enumerate_weyl, "__wrapped__", spy)
    return builds


@pytest.mark.parametrize("order", [(spectral_report, stratified_report),
                                   (stratified_report, spectral_report)])
def test_each_pipeline_call_builds_its_own_weyl_group(monkeypatch, order):
    # the memo table lives for one pipeline call: the acting group comes from
    # the spec, but the second pipeline builds the dual Weyl group again, as
    # the reflection group of the s = 1 centralizer, instead of reading the
    # first call's
    spec = spec_of("sp4", 3)
    dual = dual_datum(spec.datum)
    builds = spy_on_weyl_builds(monkeypatch)
    totals = [report(spec).total for report in order]
    assert totals == [34, 34]
    assert [scoped for datum, scoped in builds if datum == dual] == [True, True]
    assert groups._scope is None


def test_a_refused_pipeline_call_leaves_no_memo_table(monkeypatch):
    spec = spec_of("gl3", 64)
    builds = spy_on_weyl_builds(monkeypatch)
    for report in (spectral_report, stratified_report):
        with pytest.raises(UnsupportedTypeError, match="torsion points"):
            report(spec)
        assert groups._scope is None
    # the spec keeps the acting group the first call built inside its scope,
    # and keeps no orbits, so the second call is refused again
    assert [scoped for _, scoped in builds] == [True]
    assert "torus_orbits" not in vars(spec)


def test_renders_are_seed_independent():
    for builder, name in [(spectral_report, "gl2"),
                          (stratified_report, "gl2")]:
        spec = spec_of(name, 3)
        base_json = render_json(builder(spec))
        base_text = render_text(builder(spec))
        for seed in (0, 1, 2):
            rep = builder(spec, rng=random.Random(seed))
            assert render_json(rep) == base_json
            assert render_text(rep) == base_text


# sha256 of render_text and of render_json; the text digests were recorded
# from an implementation that carried torus points as Fraction tuples, the
# JSON digests from one whose pipelines each had their own stratum records.
# Any change to the reports' bytes fails here (a1xa1-swap and o2 are
# disconnected, so only the stratified route runs)
SWAP = [[0, 1], [1, 0]]
GOLDEN_CONFIGS = {
    "su3": {"type": "A2", "isogeny": "sc", "twist": [1, 0]},
    "a1xa1-swap": {"type": "A1xA1", "component_group": [SWAP]},
}
GOLDEN_DIGESTS = [
    ("gl3", 5, "spectral",
     "f8e4cd57098374d33a0b9cfcc6a28aeddd30320594094790bfaa1a7d941c44db",
     "ccc70cdc104be52fb91d74e35271aa67f6ff7a06a80b212d881841948c6368bb"),
    ("gl3", 5, "stratified",
     "3dbd63a5cbaa395233f3cffb82987f4a626fb09601fbaf42517f9e8180389838",
     "30ac7863a8aff615b91e1069b5c0a4134ac1250a12183b578e7eb1d9bfb5b184"),
    ("g2", 7, "spectral",
     "06191f6ebf2e57ab4142f223b80b7c08f4d5392035ddf007a8cee043f06a736a",
     "1bfcdf335fdda5f2cc3615dd25bc68817c76c9d39ea3ade60bbdb533aaa39b83"),
    ("g2", 7, "stratified",
     "22d1a7e416aa815752be46b1e1200658d5d242ed30cd24f36aef9368929294d4",
     "ee46bfe93bbc41bd09a00daee93d6e4bea12b05fe445b9b4ea02646dd8fde311"),
    ("sp4", 5, "spectral",
     "c1aa547974cc64b5c894ffd68fe3fab439209fe362da4a1e640e75076b9eddb5",
     "89e0f6d74c7f9267ec92e728ff34184b8979c0c6b12084790bd68a5d34e7a0a6"),
    ("sp4", 5, "stratified",
     "6cd096bd2eb82d7e68e6f6f898ee9f6907d2db3397b6500f431744586277ae91",
     "1382f5b170c08bb6e4da7354bb9cc139eb09cb7776d2cfe8f12416d8ec16361b"),
    ("su3", 5, "spectral",
     "e6c8eb59430e600c7c5c6e763919bb31e7bbbba4e86cfdf86f5587b20cf4ef98",
     "af4e50cd537f1733dfb4971356f423d3edc5dacfe85bc1913e3f4edaa37f933b"),
    ("su3", 5, "stratified",
     "befccc79a0595bf48a4a0262ebeaa11ecb9bb18a3e06328d97504a27c5846786",
     "affa795c81b876340250569b5a31ecbd4be509c5cc7916e7e518604d7e0a4334"),
    ("a1xa1-swap", 5, "stratified",
     "49d590546fa346d7931af15edd1fb488b501f0c66412e186be047ad1f6c743c5",
     "a0943cc195a21fd1148efce00d0eaa742bf310b55d33c2a724c9c6a005dc6a5d"),
    ("o2", 7, "stratified",
     "3b7bdccc4b4c5bb577a8df7bf72a220eb1a706c451fc1a2d65d19b049155f46f",
     "d0abf4abe8064d339d90e18f96fab3715e3828a6c8847995c1aaf54e0c825097"),
]


# each id carries the text digest only, so adding a JSON digest keeps it
@pytest.mark.parametrize("label,q,pipeline,text_digest,json_digest",
                         GOLDEN_DIGESTS,
                         ids=["-".join(map(str, case[:4])) for case in GOLDEN_DIGESTS])
def test_report_bytes_are_pinned(label, q, pipeline, text_digest, json_digest):
    spec = parse_group_spec(GOLDEN_CONFIGS.get(label, label), q=q)
    builder = spectral_report if pipeline == "spectral" else stratified_report
    rep = builder(spec)
    assert hashlib.sha256(render_text(rep).encode()).hexdigest() == text_digest
    assert hashlib.sha256(render_json(rep).encode()).hexdigest() == json_digest
