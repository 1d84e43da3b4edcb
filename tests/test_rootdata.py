from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpackets.coxeter import enumerate_weyl
from lpackets.errors import (
    ConfigError,
    InvariantError,
    LPacketsError,
    UnsupportedTypeError,
)
from lpackets.lattice import identity
from lpackets.rootdata import (
    NAMED_SPECS,
    RootDatum,
    acting_group,
    centralizer_subdatum,
    dual_datum,
    factor_permutation,
    parse_group_spec,
    parse_type,
    point_label,
    stable_point_orbits,
    whittaker_torsor_size,
)
from lpackets.springer import _TABLES
from perfbench_files import load_perfbench
from torus_scan import key_by_scan


def spec_of(name, q):
    return parse_group_spec(name, q=q)


def _solve_rational(cols, target):
    """Solve sum c_i cols[i] = target over Q, or None if inconsistent."""
    if not cols:
        return () if all(t == 0 for t in target) else None
    n = len(target)
    k = len(cols)
    aug = [[Fraction(cols[j][i]) for j in range(k)] + [Fraction(target[i])]
           for i in range(n)]
    pivots = []
    r = 0
    for c in range(k):
        piv = next((i for i in range(r, n) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, n):
        if aug[i][k] != 0:
            return None
    sol = [Fraction(0)] * k
    for row, c in enumerate(pivots):
        sol[c] = aug[row][k]
    return tuple(sol)


@pytest.mark.parametrize("name", sorted(NAMED_SPECS))
def test_named_specs_parse(name):
    q = 5 if name in ("sp4", "g2") else 3
    spec = spec_of(name, q)
    assert spec.q == q
    assert spec.name == name


def test_parse_rejects_bad_input():
    with pytest.raises(ConfigError):
        parse_group_spec("so17", q=3)
    with pytest.raises(ConfigError):
        parse_group_spec("sl2")
    with pytest.raises(ConfigError):
        parse_group_spec("sl2", q=6)
    with pytest.raises(ConfigError):
        parse_group_spec({"q": 3})
    with pytest.raises(ConfigError):
        parse_group_spec({"type": "A1", "frobenius": "yes"}, q=3)
    with pytest.raises(ConfigError):
        parse_group_spec({"type": "A1", "isogeny": "weird"}, q=3)
    with pytest.raises(UnsupportedTypeError):
        parse_group_spec("sp4", q=4)
    with pytest.raises(UnsupportedTypeError):
        parse_group_spec("g2", q=9)
    # products off the menu: rank 5 over the cap, a factor outside it, an
    # empty factor, a torus factor, and GL-style for a product
    for config in ({"type": "A1xA1xA1xA1xA1"}, {"type": "A1xE8"},
                   {"type": "A1x"}, {"type": "A1xT1"},
                   {"type": "A2xA1", "isogeny": "gl"}):
        with pytest.raises(UnsupportedTypeError):
            parse_group_spec(config, q=3)


def test_product_datum_is_the_block_sum():
    # the alias applies per factor, and each factor's roots and coroots sit
    # in their own block of coordinates
    a1, b2 = (parse_group_spec({"type": t}, q=3).datum for t in ("A1", "B2"))
    prod = parse_group_spec({"type": "A1xC2"}, q=3).datum
    assert (prod.cartan_label, prod.rank) == ("A1xB2", 3)
    for field in ("roots", "coroots"):
        blocks = ({r + (0, 0) for r in getattr(a1, field)}
                  | {(0,) + r for r in getattr(b2, field)})
        assert set(getattr(prod, field)) == blocks
    assert prod.simple_roots == ((2, 0, 0), (0, 1, -1), (0, 0, 2))


def test_parser_admits_exactly_the_tabled_simple_types():
    # a factor admitted without a class table would fail inside a pipeline
    admitted = set()
    for name in (f"{x}{n}" for x in "ABCDEFG" for n in range(1, 9)):
        try:
            admitted.update(parse_type(name)[0])
        except UnsupportedTypeError:
            pass
    assert admitted == set(_TABLES)


def test_pairing_and_duality():
    for name in ("sl2", "gl2", "pgl2", "sp4", "g2"):
        d = spec_of(name, 5).datum
        for i in d.simple_indices:
            assert d.pairing(d.roots[i], d.coroots[i]) == 2
        dd = dual_datum(d)
        assert dd.roots == d.coroots
        assert dd.coroots == d.roots
        assert dual_datum(dd).roots == d.roots


def test_weyl_closure_orders():
    orders = {"sl2": 2, "gl2": 2, "pgl2": 2, "gl3": 6, "sp4": 8, "g2": 12}
    for name, order in orders.items():
        q = 5 if name in ("sp4", "g2") else 3
        d = spec_of(name, q).datum
        assert enumerate_weyl(d).order == order


def test_connectedness_flag():
    assert spec_of("sl2", 3).connected
    assert spec_of("torus1", 3).connected
    assert not spec_of("o2", 3).connected


def test_component_validation():
    with pytest.raises(ConfigError):
        parse_group_spec({"type": "T1", "component_group": [[[2]]]}, q=3)
    with pytest.raises(ConfigError):
        parse_group_spec({"type": "A1", "isogeny": "sc",
                          "component_group": [[[-1, 1], [0, 1]]]}, q=3)


def test_a_component_coset_inside_the_reflection_group_is_refused():
    # the parser refuses such a component, so the spec is built by hand:
    # for sl2, -1 is the reflection of the dual torus, so the coset of the
    # component -1 is W* again
    spec = spec_of("sl2", 3)._replace(components=(((1,),), ((-1,),)))
    with pytest.raises(InvariantError, match="component coset collides"):
        acting_group(spec)


def test_twist_permutation_grammar():
    tw = parse_group_spec({"type": "A2", "isogeny": "sc", "twist": [1, 0]},
                          q=3)
    assert tw.twist.sigma_y != identity(2)
    sq = tw.twist.sigma_y
    from lpackets.lattice import mat_mul
    assert mat_mul(sq, sq) == identity(2)
    with pytest.raises(ConfigError):
        parse_group_spec({"type": "A2", "isogeny": "sc", "twist": [1, 1]},
                         q=3)
    with pytest.raises(ConfigError):
        parse_group_spec({"type": "A2", "isogeny": "sc",
                          "twist": [[2, 0], [0, 1]]}, q=3)


def integral_root_positions(datum, point, modulus):
    """Indices of the roots alpha with <alpha, s> integral, for the point
    s = point / modulus of Y x Q/Z, one pairing per root."""
    return tuple(i for i, r in enumerate(datum.roots)
                 if datum.pairing(r, point) % modulus == 0)


def test_centralizer_subdatum_full_and_empty():
    d = dual_datum(spec_of("sp4", 5).datum)
    full = centralizer_subdatum(d, integral_root_positions(d, (0, 0), 1))
    assert len(full.root_positions) == len(d.roots)
    generic = centralizer_subdatum(d, integral_root_positions(d, (1, 2), 7))
    assert not generic.root_positions


def test_centralizer_subdatum_proper_subsystem():
    d = dual_datum(spec_of("sp4", 5).datum)
    sub = centralizer_subdatum(d, integral_root_positions(d, (1, 1), 2))
    assert 0 < len(sub.root_positions) < len(d.roots)
    assert len(sub.factors) >= 1
    for pos in sub.simple_positions:
        coords = d.roots[pos]
        val = sum(Fraction(c) * x
                  for c, x in zip(coords, (Fraction(1, 2), Fraction(1, 2))))
        assert val % 1 == 0


def test_factor_permutation_identity():
    d = dual_datum(spec_of("sp4", 5).datum)
    sub = centralizer_subdatum(d, integral_root_positions(d, (1, 1), 2))
    n = len(sub.factors)
    assert factor_permutation(sub, identity(2)) == tuple(range(n))


@pytest.mark.parametrize("twist,expected", [([1, 2, 0], (1, 2, 0)),
                                             ([2, 0, 1], (2, 0, 1))])
def test_factor_permutation_direction(twist, expected):
    # the twist sends simple coroot i to simple coroot twist[i], and so dual
    # factor i to dual factor twist[i]; a 3-cycle tells this from its inverse
    spec = parse_group_spec({"type": "A1xA1xA1", "twist": twist}, q=3)
    d = dual_datum(spec.datum)
    sub = centralizer_subdatum(d, tuple(range(len(d.roots))))
    assert factor_permutation(sub, spec.twist.sigma_x) == expected


def test_factor_permutation_refusals():
    # the dual simple roots of A1xA1 and A1xA2 are the coordinate vectors
    swap = ((0, 1), (1, 0))
    d = dual_datum(parse_group_spec({"type": "A1xA1"}, q=3).datum)
    sub = centralizer_subdatum(d, tuple(range(len(d.roots))))
    assert factor_permutation(sub, swap) == (1, 0)
    with pytest.raises(InvariantError, match="does not preserve the subsystem simples"):
        factor_permutation(sub, ((-1, 0), (0, 1)))
    with pytest.raises(InvariantError, match="changes the type"):
        factor_permutation(sub._replace(factor_types=("A1", "A2")), swap)
    d = dual_datum(parse_group_spec({"type": "A1xA2"}, q=3).datum)
    sub = centralizer_subdatum(d, tuple(range(len(d.roots))))
    with pytest.raises(InvariantError, match="tears a factor apart"):
        factor_permutation(sub, ((0, 1, 0), (1, 0, 0), (0, 0, 1)))


@pytest.mark.parametrize("type_str,expected", [
    ("T3", ((), 3)),
    ("G2", (("G2",), 0)),
    ("A1xC2+T2", (("A1", "B2"), 2)),
    ("C2xA1xA1+T6", (("B2", "A1", "A1"), 6)),
])
def test_parse_type_reads_the_whole_string(type_str, expected):
    assert parse_type(type_str) == expected


@pytest.mark.parametrize("config,label,rank", [
    ({"type": "T3"}, "T3", 3),
    ({"type": "A1xC2+T1"}, "A1xB2+T1", 4),
    ({"type": "A1", "isogeny": "gl"}, "A1+T1", 2),
    ({"type": "A2+T2", "isogeny": "gl"}, "A2+T3", 5),
])
def test_label_names_the_factors_and_the_whole_centre(config, label, rank):
    # GL's centre adds one to the torus rank of the label
    datum = parse_group_spec(config, q=5).datum
    assert (datum.cartan_label, datum.rank) == (label, rank)


@pytest.mark.parametrize("type_str,q", [("A1xC2", 4), ("G2+T1", 9),
                                        ("A1xG2", 8)])
def test_bad_primes_come_from_the_factors(type_str, q):
    with pytest.raises(UnsupportedTypeError, match="bad prime"):
        parse_group_spec({"type": type_str}, q=q)


@pytest.mark.parametrize("config", [
    *sorted(NAMED_SPECS),
    {"type": "A2", "isogeny": "ad"},
    {"type": "B2", "isogeny": "ad"},
    {"type": "A1xA1", "isogeny": [[1, 1], [1, -1]]},
    {"type": "G2+T2"},
])
def test_positive_roots_match_rational_solve(config):
    # reference: solve root = sum c_i alpha_i over Q and test c >= 0
    datum = parse_group_spec(config, q=5).datum
    for d in (datum, dual_datum(datum)):
        expected = tuple(i for i, r in enumerate(d.roots)
                         if all(c >= 0 for c in _solve_rational(d.simple_roots, r)))
        assert d.positive_indices == expected
        assert 2 * len(expected) == len(d.roots)


def test_point_label_format():
    assert point_label((0, 1), 2) == "(0,1/2)"
    assert point_label((0, 3, 4), 12) == "(0,1/4,1/3)"


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(-3 * n, 3 * n), min_size=1, max_size=4))))
def test_point_label_matches_the_fraction_rendering(case):
    # entries negative, zero or at least N reduce into [0, 1) first
    modulus, v = case
    expected = "(" + ",".join(str(Fraction(x % modulus, modulus)) for x in v) + ")"
    assert point_label(tuple(v), modulus) == expected


def test_point_label_with_modulus_one():
    assert point_label((0, 5, -2), 1) == "(0,0,0)"


def test_whittaker_torsor_sizes():
    assert whittaker_torsor_size(spec_of("gl2", 3)) == 1
    assert whittaker_torsor_size(spec_of("sl2", 3)) == 2
    assert whittaker_torsor_size(spec_of("sl2", 4)) == 1


# sizes recorded from the earlier Smith-form count of the fixed prime-to-p
# torsion of X / (root lattice); B2 and G2 skip their bad primes 2 and 3
@pytest.mark.parametrize("config, qs, sizes", [
    ("sl2", (4, 5, 7, 8), (1, 2, 2, 1)),
    ("gl2", (4, 5, 7, 8), (1, 1, 1, 1)),
    ("pgl2", (4, 5, 7, 8), (1, 1, 1, 1)),
    ("gl3", (4, 5, 7, 8), (1, 1, 1, 1)),
    ("sp4", (5, 7, 11, 13), (2, 2, 2, 2)),
    ("g2", (5, 7, 11, 13), (1, 1, 1, 1)),
    ("torus1", (4, 5, 7, 8), (1, 1, 1, 1)),
    ("o2", (4, 5, 7, 8), (1, 1, 1, 1)),
    ({"type": "A2", "isogeny": "sc", "twist": [1, 0]}, (4, 5, 7, 8), (1, 3, 1, 3)),
    ({"type": "A2", "isogeny": "ad", "twist": [1, 0]}, (4, 5, 7, 8), (1, 1, 1, 1)),
    ({"type": "A2", "isogeny": "gl", "twist": [[0, 0, -1], [0, -1, 0], [-1, 0, 0]]},
     (4, 5, 7, 8), (1, 1, 1, 1)),
    ({"type": "A1xA1", "twist": [1, 0]}, (4, 5, 7, 8), (1, 2, 2, 1)),
    ({"type": "A1xA1", "component_group": [[[0, 1], [1, 0]]]},
     (4, 5, 7, 8), (1, 4, 4, 1)),
    ({"type": "A1xA1", "isogeny": [[1, 1], [1, -1]]}, (4, 5, 7, 8), (1, 2, 2, 1)),
    ({"type": "A1xA1", "isogeny": [[2, 0], [0, 2]]}, (4, 5, 7, 8), (1, 1, 1, 1)),
    ({"type": "A2", "isogeny": [[2, -1], [-1, 2]]}, (4, 5, 7, 8), (1, 1, 1, 1)),
    ({"type": "A1+T1"}, (4, 5, 7, 8), (1, 2, 2, 1)),
    ({"type": "A2+T1"}, (4, 5, 7, 8), (3, 1, 3, 1)),
    ({"type": "B2+T1"}, (5, 7, 11, 13), (2, 2, 2, 2)),
    ({"type": "G2+T2"}, (5, 7, 11, 13), (1, 1, 1, 1)),
])
def test_whittaker_sizes_are_pinned(config, qs, sizes):
    assert tuple(whittaker_torsor_size(parse_group_spec(config, q=q))
                 for q in qs) == sizes


def test_extra_torus_suffix():
    spec = parse_group_spec({"type": "A1+T1", "isogeny": "sc"}, q=3)
    assert spec.datum.rank == 2
    with pytest.raises(ConfigError):
        parse_group_spec({"type": "A1+X2", "isogeny": "sc"}, q=3)


def test_root_datum_checks_its_roots_at_construction():
    a1 = ((2,), (-2,))
    RootDatum(1, a1, ((1,), (-1,)), (0,), "A1")
    with pytest.raises(InvariantError, match="matched in length"):
        RootDatum(1, a1, ((1,),), (0,), "A1")
    with pytest.raises(InvariantError, match="must give 2"):
        RootDatum(1, a1, ((2,), (-2,)), (0,), "A1")


def test_reflection_closure_over_its_cap_is_an_invariant_error():
    # Cartan matrix [[2, -2], [-2, 2]]: the affine A1 reflections generate an
    # infinite group, so the closure runs into its cap
    affine = RootDatum(2, ((2, -2), (-2, 2)), ((1, 0), (0, 1)), (0, 1), "A1~")
    with pytest.raises(InvariantError):
        enumerate_weyl(affine)


def test_component_group_over_its_cap_is_a_config_error():
    # signed permutations of six coordinates: 46080 elements, cap 256
    n = 6
    cycle = [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)]
    swap = [[int(j == (1, 0, 2, 3, 4, 5)[i]) for j in range(n)] for i in range(n)]
    sign = [[(-1 if i == 0 else 1) * int(i == j) for j in range(n)]
            for i in range(n)]
    with pytest.raises(ConfigError, match="too large"):
        parse_group_spec({"type": "T6", "component_group": [cycle, swap, sign]},
                         q=3)


@pytest.mark.parametrize("config", [
    {"type": "A1", "twist": [[True]]},
    {"type": "A2", "isogeny": "sc", "twist": [1.0, 0]},
    {"type": "A1", "component_group": [[[-1]], [[1, 0]]]},
    {"type": "A1", "component_group": [[-1]]},
    {"type": "A1", "isogeny": [["2"]]},
    {"type": "A1", "isogeny": [[1, 0]]},
])
def test_integer_matrices_are_validated(config):
    with pytest.raises(ConfigError):
        parse_group_spec(config, q=3)


# the shapes of group description the package documents and tests
SHAPES = sorted(NAMED_SPECS) + [
    {"type": "A2", "isogeny": "sc", "twist": [1, 0]},
    {"type": "A2", "isogeny": "ad", "twist": [1, 0]},
    {"type": "A1xA1", "twist": [1, 0]},
    {"type": "A1xA1", "component_group": [[[0, 1], [1, 0]]]},
    {"type": "A1xA1", "isogeny": [[1, 1], [1, -1]]},
    {"type": "A2", "isogeny": "ad", "component_group": [[[0, 1], [1, 0]]]},
    {"type": "T2", "component_group": [[[0, 1], [1, 0]]]},
    {"type": "A1+T1"},
    {"type": "T6"},
    {"type": "A2", "isogeny": "sc", "twist": [[0, 1], [1, 0]]},
]


@settings(max_examples=200, deadline=1000)
@given(shape=st.sampled_from(SHAPES),
       q=st.integers(min_value=-10, max_value=10 ** 18),
       q_in_config=st.booleans())
def test_parse_raises_only_package_errors(shape, q, q_in_config):
    # a q with a large least prime factor must be refused, not factored
    if q_in_config:
        config = dict(NAMED_SPECS[shape]) if isinstance(shape, str) else dict(shape)
        config["q"] = q
        args = (config,)
    else:
        args = (shape, q)
    try:
        spec = parse_group_spec(*args)
    except LPacketsError:
        return
    assert spec.q == q


_CASES = load_perfbench("cases")
GRID = {(label, q) for _, label, q in _CASES.WORKLOADS["twisted-grid"]}
KEY_SPECS = sorted(GRID | {(label, q) for label, _ in GRID for q in (5, 7)}
                   | {("b2xb2-swap", 3)})
KEY_CONFIGS = {"b2xb2-swap": {"type": "B2xB2", "twist": [2, 3, 0, 1]}}


# the one check of the type key against the scan of tests/torus_scan.py: every
# twisted-grid case (the specs of tests/test_type_table.py), every grid config
# at q = 5 and 7, and B2xB2 with a Frobenius map that swaps its factors
@pytest.mark.parametrize("label,q", KEY_SPECS,
                         ids=[f"{label}/F{q}" for label, q in KEY_SPECS])
def test_type_keys_match_the_three_way_reading(label, q):
    config = KEY_CONFIGS.get(label) or _CASES.group_config(label)
    spec = parse_group_spec(config, q=q)
    orbits = stable_point_orbits(spec)
    assert orbits
    for orbit in orbits:
        assert orbit.key == key_by_scan(spec, orbit), (label, orbit.rep)
