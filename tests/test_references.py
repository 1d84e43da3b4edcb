"""Totals against class numbers from the literature, and identities between
different code paths, where the brute-force oracle cannot reach.

The reference table is ``reference_total`` in ``perfbench/cases.py``, which
this test only reads.
"""

from functools import lru_cache
from itertools import product

import pytest

from lpackets.coxeter import enumerate_weyl
from lpackets.errors import ConfigError, LPacketsError
from lpackets.fq import prime_power
from lpackets.groups import call_scope
from lpackets.lattice import det, mat_mul
from lpackets.report import spectral_report, stratified_report
from lpackets.rootdata import NAMED_SPECS, dual_datum, parse_group_spec
from lpackets.spectral import enumerate_ss_classes
from lpackets.strata import (
    _point_strata,
    _PointGeometry,
    semisimple_parameters,
    stratified_strata,
)
from perfbench_files import load_perfbench

reference_total = load_perfbench("cases").reference_total


def is_prime_power(q):
    try:
        prime_power(q)
    except ConfigError:
        return False
    return True


PRIME_POWERS = [q for q in range(2, 33) if is_prime_power(q)]


def totals(spec):
    """The total of every pipeline that takes the spec."""
    out = [stratified_report(spec).total]
    if spec.connected:
        out.append(spectral_report(spec).total)
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


# Identity A: each point s of an F-stable orbit solves (q sigma w - 1) s = 0
# for exactly |Stab_W(s)| elements w of the dual Weyl group W (its witnesses
# form one coset of its stabilizer), so the solution counts
# |det(q sigma w - 1)| sum to |W| times the number of semisimple classes.
CONNECTED_CONFIGS = {
    **{name: name for name in ("sl2", "gl2", "pgl2", "gl3", "sp4", "g2",
                               "torus1")},
    "su3": {"type": "A2", "isogeny": "sc", "twist": [1, 0]},
    "pu3": {"type": "A2", "isogeny": "ad", "twist": [1, 0]},
    "a1xa1-twisted": {"type": "A1xA1", "twist": [1, 0]},
    "a1+t1": {"type": "A1+T1"},
}
# Both identities run at every admissible q up to 32, except where a spec
# lists too many points for every test run.  gl3, A1xA2 and A1xA1xA1 have
# about q^3 points per Weyl element: past q = 16 each q takes 0.1-1.6 s,
# 5-10 s in all up to q = 32 (single runs on a 2-vCPU machine).  B2xB2 has
# 64 Weyl elements and about q^4 points each: q = 7 takes about 1 s, q = 9
# about 3 s.  The two rank-3 products run in identity B alone, which needs
# no determinant; in both identities they would add another second to every
# test run.
IDENTITY_QMAX = {"gl3": 16, "a1xa2-ad": 16, "a1xa1xa1-ad": 16, "res-b2-ad": 5}


@lru_cache(maxsize=None)
def ss_class_count(spec):
    """The number of semisimple classes, counted once per spec: identities A
    and B share most of their specs."""
    return len(enumerate_ss_classes(spec))


def identity_specs(label, config):
    """The spec at every admissible prime power q up to the label's cap."""
    qmax = IDENTITY_QMAX.get(label, 32)
    for q in PRIME_POWERS:
        if q > qmax:
            break
        try:
            spec = parse_group_spec(config, q=q)
        except LPacketsError:
            continue
        yield q, spec


@pytest.mark.parametrize("label", sorted(CONNECTED_CONFIGS))
def test_semisimple_class_count_closed_form(label):
    checked = 0
    for q, spec in identity_specs(label, CONNECTED_CONFIGS[label]):
        cox = enumerate_weyl(dual_datum(spec.datum))
        n = len(spec.twist.sigma_x)
        solutions = 0
        for w in cox.elements:
            m = mat_mul(spec.twist.sigma_x, w)
            solutions += abs(det([[q * m[i][j] - (i == j) for j in range(n)]
                                  for i in range(n)]))
        assert ss_class_count(spec) * cox.order == solutions, (label, q)
        checked += 1
    assert checked


# Identity B (Steinberg, "Endomorphisms of linear algebraic groups", Mem.
# AMS 80, 1968, section 14): when the derived group of the dual G* is simply
# connected, G* has |Z(G*)°^F| q^l semisimple classes, l the semisimple rank.
# The count is read off the points, with no determinant.
STEINBERG_CONFIGS = {
    "pgl2": ("pgl2", lambda q: q),
    "gl2": ("gl2", lambda q: (q - 1) * q),
    "gl3": ("gl3", lambda q: (q - 1) * q * q),
    "g2": ("g2", lambda q: q * q),
    "b2-ad": ({"type": "B2", "isogeny": "ad"}, lambda q: q * q),
    "pu3": ({"type": "A2", "isogeny": "ad", "twist": [1, 0]}, lambda q: q * q),
    "res-pgl2": ({"type": "A1xA1", "isogeny": "ad", "twist": [1, 0]},
                 lambda q: q * q),
    "res-b2-ad": ({"type": "B2xB2", "isogeny": "ad", "twist": [2, 3, 0, 1]},
                  lambda q: q ** 4),
    "a1xa2-ad": ({"type": "A1xA2", "isogeny": "ad"}, lambda q: q ** 3),
    "a1xa1xa1-ad": ({"type": "A1xA1xA1", "isogeny": "ad"}, lambda q: q ** 3),
}


@pytest.mark.parametrize("label", sorted(STEINBERG_CONFIGS))
def test_semisimple_class_count_steinberg(label):
    config, expected = STEINBERG_CONFIGS[label]
    checked = 0
    for q, spec in identity_specs(label, config):
        assert ss_class_count(spec) == expected(q), (label, q)
        checked += 1
    assert checked


# Per-type unipotent counts.  By Lusztig's Jordan decomposition (Lusztig,
# "Characters of reductive groups over a finite field", Ann. of Math.
# Studies 107, 1984, Thm. 4.23), when C = C_{G*}(s) is connected the
# characters over s are in bijection with the unipotent characters of C^F.
# For a type with trivial Omega and one Frobenius coset, that count is the
# product, over the orbits of beta's factor permutation, of u(X) for the
# orbit's factor type X, and 1 for a torus (Carter, "Finite groups of Lie
# type", 1985, section 13.9; u(2A2) = u(A2) = 3).  So each type's stratum
# total is checked against a table that reads no family table.
UNIPOTENT = {"A1": 2, "A2": 3, "B2": 6, "G2": 10}
UNIPOTENT_CONFIGS = {
    **{label: STEINBERG_CONFIGS[label][0]
       for label in ("pgl2", "gl2", "gl3", "g2", "b2-ad", "pu3", "res-pgl2")},
    "pgl3": {"type": "A2", "isogeny": "ad"},
    "a1xb2-ad": {"type": "A1xB2", "isogeny": "ad"},
}


@pytest.mark.parametrize("label", sorted(UNIPOTENT_CONFIGS))
def test_unipotent_counts_per_type(label):
    checked = 0
    for q in (5, 7, 11):
        spec = parse_group_spec(UNIPOTENT_CONFIGS[label], q=q)
        with call_scope():
            for key in {o.key for o in semisimple_parameters(spec)}:
                geo = _PointGeometry(spec, key)
                if geo.omega.order > 1 or len(geo.coset_reps) > 1:
                    continue
                beta, seen, expected = geo.beta_perms[0], set(), 1
                for i, factor_type in enumerate(geo.sub.factor_types):
                    if i not in seen:
                        expected *= UNIPOTENT[factor_type]
                    while i not in seen:
                        seen.add(i)
                        i = beta[i]
                total = sum(st.total for st in _point_strata(spec, key))
                assert total == expected, (label, q, geo.sub.label)
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


# Products of two factors at q, each with the one-factor group G it counts
# as: with a Frobenius map that swaps the factors, Res_{F_q^2/F_q} G at q
# counts as G at q^2 (power 1), so the pipelines run the factor action tau
# of ``strata._stratum_packets``; untwisted, it is G at q squared (power 2).
RES = [2, 3, 0, 1]
RES_UNITARY = [2, 3, 1, 0]  # F^2 is A2's graph automorphism on each factor
SU3 = {"type": "A2", "twist": [1, 0]}
PRODUCTS = {
    "res-sp4-q3": ({"type": "B2xB2", "twist": RES}, 3, "sp4", 9, 1),
    "res-sl3-q2": ({"type": "A2xA2", "twist": RES}, 2, {"type": "A2"}, 4, 1),
    "res-sl3-q3": ({"type": "A2xA2", "twist": RES}, 3, {"type": "A2"}, 9, 1),
    "res-su3-q2": ({"type": "A2xA2", "twist": RES_UNITARY}, 2, SU3, 4, 1),
    "res-su3-q3": ({"type": "A2xA2", "twist": RES_UNITARY}, 3, SU3, 9, 1),
    "res-g2-q5": ({"type": "G2xG2", "twist": RES}, 5, "g2", 25, 1),
    "sp4-squared-q3": ({"type": "B2xB2"}, 3, "sp4", 3, 2),
}


@pytest.mark.parametrize("label", sorted(PRODUCTS))
def test_product_types_match_their_factor_group(label):
    config, q, factor, factor_q, power = PRODUCTS[label]
    [one] = set(totals(parse_group_spec(factor, q=factor_q)))
    assert totals(parse_group_spec(config, q=q)) == [one ** power] * 2


# Identity C: for H = X x X extended by the swap tau of the two factors,
# Clifford theory and Brauer's permutation lemma give k(H) = (k(G) + 3f)/2,
# with G = X x X and f = k(X) its tau-stable classes, so
# k(H) = (k(X)^2 + 3k(X))/2.  k(X) comes from the spectral pipeline on the
# connected X, which reads no component group; the stratified pipeline
# counts H with the swap as its component group.
WREATHS = ([("A1", isogeny, q) for isogeny in ("sc", "ad")
            for q in (2, 3, 4, 5, 7)]
           + [("A2", isogeny, q) for isogeny in ("sc", "ad") for q in (2, 3)]
           + [("B2", "sc", 3)])


@pytest.mark.parametrize("factor,isogeny,q", WREATHS,
                         ids=[f"{f}x{f}-{i}/F{q}" for f, i, q in WREATHS])
def test_factor_swap_component_group_counts_the_wreath_product(
        factor, isogeny, q):
    x = parse_group_spec({"type": factor, "isogeny": isogeny}, q=q)
    k = spectral_report(x).total
    n = 2 * x.datum.rank
    swap = [[int(j == (i + n // 2) % n) for j in range(n)] for i in range(n)]
    spec = parse_group_spec({"type": f"{factor}x{factor}", "isogeny": isogeny,
                             "component_group": [swap]}, q=q)
    assert stratified_report(spec).total == (k * k + 3 * k) // 2


def brute_force_class_count(rank, m, component_gens):
    """Conjugacy classes of (Z/m)^rank extended by the matrix group C that
    ``component_gens`` generate, acting on vectors: the group of pairs (t, c)
    with (t, c)(u, d) = (t + c u, c d), whose classes are the orbits of
    conjugation by the unit vectors and the generators of C."""
    def mat_mul(a, b):
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(rank))
                           for j in range(rank)) for i in range(rank))

    def act(c, t):
        return tuple(sum(c[i][j] * t[j] for j in range(rank)) % m
                     for i in range(rank))

    def mul(x, y):
        return (tuple((a + b) % m for a, b in zip(x[0], act(x[1], y[0]))),
                mat_mul(x[1], y[1]))

    one = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
    gens = [tuple(map(tuple, g)) for g in component_gens]
    comps = [one]
    for c in comps:
        comps += [p for p in (mat_mul(c, g) for g in gens) if p not in comps]
    zero = (0,) * rank
    conj = [((tuple(int(i == j) for j in range(rank)), one),
             (tuple(-int(i == j) % m for j in range(rank)), one))
            for i in range(rank)]
    conj += [((zero, g), (zero, next(c for c in comps if mat_mul(g, c) == one)))
             for g in gens]
    seen = set()
    count = 0
    for x in product(product(range(m), repeat=rank), comps):
        if x in seen:
            continue
        count += 1
        seen.add(x)
        stack = [x]
        while stack:
            y = stack.pop()
            for g, g_inv in conj:
                z = mul(mul(g, y), g_inv)
                if z not in seen:
                    seen.add(z)
                    stack.append(z)
    return count


SIGN_FLIPS = [[[-1, 0, 0], [0, 1, 0], [0, 0, 1]],
              [[1, 0, 0], [0, -1, 0], [0, 0, 1]],
              [[1, 0, 0], [0, 1, 0], [0, 0, -1]]]
ROTATION = [[0, -1], [1, 0]]
EXTENDED_TORI = [
    ({"type": "T3", "component_group": SIGN_FLIPS}, {3: 64, 4: 27, 5: 125}),
    ({"type": "T2", "component_group": [ROTATION]},
     {3: 10, 4: 6, 5: 13, 7: 18, 8: 16, 9: 25}),
]


@pytest.mark.parametrize("config,expected", EXTENDED_TORI,
                         ids=["T3-sign-flips", "T2-rotation"])
def test_tori_extended_by_components_match_brute_force(config, expected):
    # a split torus T extended by a component group C that acts on it:
    # G(F_q) = T(F_q) x| C with T(F_q) = (Z/(q - 1))^rank
    rank = int(config["type"][1:])
    for q, total in expected.items():
        assert brute_force_class_count(rank, q - 1,
                                       config["component_group"]) == total
        assert totals(parse_group_spec(config, q=q)) == [total], q


def test_sign_flips_act_trivially_at_q3():
    # (Z/2)^3: every point is fixed by all of C = Z2^3
    spec = parse_group_spec({"type": "T3", "component_group": SIGN_FLIPS}, q=3)
    assert {st.group_desc for st in stratified_strata(spec)} == {"1:Z2^3"}
