import pytest

from lpackets.errors import ConfigError
from lpackets.fq import field
from lpackets.oracle import (_BUILDERS, ORACLE_GROUPS, expected_order,
                             oracle_count)


def _is_prime_power(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)   # least prime factor
    while q % p == 0:
        q //= p
    return q == 1


PRIME_POWERS = [q for q in range(2, 65) if _is_prime_power(q)]

KNOWN = [
    ("sl2", 2, 6, 3),
    ("sl2", 3, 24, 7),
    ("sl2", 4, 60, 5),
    ("sl2", 5, 120, 9),
    # characteristic 2 and an odd prime square
    ("sl2", 8, 504, 9),
    ("sl2", 9, 720, 13),
    ("gl2", 2, 6, 3),
    ("gl2", 3, 48, 8),
    ("gl2", 4, 180, 15),
    ("pgl2", 3, 24, 5),
    ("pgl2", 8, 504, 9),
    # 18 x 18 permutation matrices over F_2
    ("pgl2", 17, 4896, 19),
    ("gl3", 2, 168, 6),
    ("sp4", 2, 720, 11),
    ("torus1", 2, 1, 1),
    ("torus1", 3, 2, 2),
    ("torus1", 4, 3, 3),
    ("torus1", 5, 4, 4),
    ("o2", 3, 4, 4),
    ("o2", 5, 8, 5),
    # even q: SL2(2^k) = PGL2(2^k) has q + 1 classes (Schur, J. reine angew.
    # Math. 132, 1907); O2 is dihedral of order 2(q - 1) with q - 1 odd, so
    # it has (q + 2)/2 classes
    ("sl2", 16, 4080, 17),
    ("sl2", 32, 32736, 33),
    ("pgl2", 16, 4080, 17),
    ("o2", 8, 14, 5),
    ("o2", 16, 30, 9),
    ("o2", 32, 62, 17),
]


@pytest.mark.parametrize("name,q,order,classes", KNOWN)
def test_known_class_counts(name, q, order, classes):
    result = oracle_count(name, q)
    assert result.order == order
    assert result.class_count == classes


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_two_generators_close_to_the_order(name):
    # every prime power q <= 64 at which the group is small enough to close
    # here, q = 2 (where the multiplicative generator is 1) included
    for q in PRIME_POWERS:
        order = expected_order(name, q)
        if order > 3 * 10 ** 4:
            continue
        gens, _, _ = _BUILDERS[name](field(q))
        assert len(gens) <= 2, (name, q)
        assert oracle_count(name, q).order == order


def test_expected_order_formulas():
    assert expected_order("sl2", 7) == 7 * 48
    assert expected_order("gl2", 3) == (9 - 1) * (9 - 3)
    assert expected_order("gl3", 2) == (8 - 1) * (8 - 2) * (8 - 4)
    assert expected_order("pgl2", 5) == 120
    assert expected_order("sp4", 3) == 3 ** 4 * (3 ** 2 - 1) * (3 ** 4 - 1)
    assert expected_order("torus1", 9) == 8
    assert expected_order("o2", 9) == 16


def test_cap_rejects_huge_groups():
    with pytest.raises(ConfigError):
        oracle_count("gl3", 9)
    with pytest.raises(ConfigError):
        oracle_count("sp4", 3, cap=1000)


def test_oracle_menu_is_complete():
    for name in ORACLE_GROUPS:
        assert expected_order(name, 3) > 0


def test_pgl2_is_quotient_sized():
    # pgl2 over F_4: |GL2| / |center| = 180 / 3
    result = oracle_count("pgl2", 4)
    assert result.order == 60
    assert result.class_count == 5


def test_sp4_f3_big_case():
    result = oracle_count("sp4", 3)
    assert result.order == 51840
    assert result.class_count == 34
