"""Totals against class numbers from the literature, and identities between
different code paths, where the brute-force oracle cannot reach.

The reference table is ``reference_total`` in ``perfbench/cases.py``, which
this test only reads.
"""

import importlib.util
from pathlib import Path

import pytest

from lpackets.errors import ConfigError, LPacketsError
from lpackets.fq import prime_power
from lpackets.rootdata import NAMED_SPECS, parse_group_spec
from lpackets.spectral import total_count as spectral_total
from lpackets.strata import stratified_total

CASES_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "cases.py"


def _reference_total():
    spec = importlib.util.spec_from_file_location("perfbench_cases", CASES_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.reference_total


reference_total = _reference_total()


def is_prime_power(q):
    try:
        prime_power(q)
    except ConfigError:
        return False
    return True


PRIME_POWERS = [q for q in range(2, 33) if is_prime_power(q)]


def totals(spec):
    """The total of every pipeline that takes the spec."""
    out = [stratified_total(spec)]
    if spec.connected:
        out.append(spectral_total(spec))
    return out


@pytest.mark.parametrize("name", sorted(NAMED_SPECS))
def test_totals_match_reference_class_numbers(name):
    # gl3 past q = 16 takes seconds per spec, too slow for every test run
    qmax = 16 if name == "gl3" else 32
    checked = 0
    for q in PRIME_POWERS:
        ref = reference_total(name, q)
        if q > qmax or ref is None:
            continue
        try:
            spec = parse_group_spec(name, q=q)
        except LPacketsError:
            continue
        got = totals(spec)
        assert got == [ref] * len(got), (name, q)
        checked += 1
    assert checked


WEIL_Q = [2, 3, 4, 5, 7, 8]
SWAP = [[0, 1], [1, 0]]


@pytest.mark.parametrize("q", WEIL_Q)
def test_weil_restriction_identities(q):
    # G'(F_q) = G(F_{q^2}) for G' = Res_{F_{q^2}/F_q} G: the swap twist on
    # two copies of a group at q counts as one copy at q^2
    for isogeny, named in (("sc", "sl2"), ("ad", "pgl2")):
        twisted = parse_group_spec(
            {"type": "A1xA1", "isogeny": isogeny, "twist": [1, 0]}, q=q)
        [expected] = set(totals(parse_group_spec(named, q=q * q)))
        assert totals(twisted) == [expected, expected], (isogeny, q)
    torus = parse_group_spec({"type": "T2", "twist": SWAP}, q=q)
    assert totals(torus) == [q * q - 1, q * q - 1]
