"""Every benchmark case renders the report whose digest the benchmark
recorded, with no failed check.

The cases, the per-case checks and the digests are ``perfbench/cases.py``
and ``perfbench/digests.json``, which this test only reads.  Each ``count``
case runs without an rng and under seeds 1 and 2, each other case once under
seed 1; a seed gives every pipeline call its own rng, built as
``perfbench/child.py`` builds it.  A digest mismatch here is a failed case
execution of the benchmark.
"""

import itertools
import random

import pytest

import lpackets
import lpackets.oracle
import lpackets.report
from lpackets.rootdata import parse_group_spec
from perfbench_files import load_perfbench

_CASES = load_perfbench("cases")
DIGESTS = _CASES.load_digests()
ALL = sorted({case for cases in _CASES.WORKLOADS.values() for case in cases})
RUNS = [(case, seed) for case in ALL
        for seed in ((None, 1, 2) if case[0] == "count" else (1,))]


def rngs(seed, cid):
    """What ``rng_for`` returns in a benchmark pass: one rng per pipeline
    call, seeded by the pass seed, the case and the call's position."""
    if seed is None:
        return lambda: None
    calls = itertools.count()
    return lambda: random.Random(f"{seed}/{cid}/{next(calls)}")


@pytest.mark.parametrize("case,seed", RUNS,
                         ids=[f"{_CASES.case_id(c)}-{s}" for c, s in RUNS])
def test_case_matches_its_recorded_digest(case, seed):
    cid = _CASES.case_id(case)
    spec = None
    if case[0] != "oracle":
        spec = parse_group_spec(_CASES.group_config(case[1]), q=case[2])
    text, problems = _CASES.run_case(case, spec, lpackets, rngs(seed, cid))
    assert problems == []
    assert _CASES.digest(text) == DIGESTS[cid]


def test_every_case_has_a_digest():
    assert {_CASES.case_id(c) for c in ALL} <= DIGESTS.keys()
