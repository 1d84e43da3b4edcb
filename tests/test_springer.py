import pytest

from lpackets.coxeter import cells, enumerate_weyl, kl_table
from lpackets.errors import InvariantError, UnsupportedTypeError
from lpackets.groups import cyclic, direct_product, symmetric
from lpackets.rootdata import _build_datum, parse_type
from lpackets.springer import (
    TABLE_VERSION,
    abar_group,
    assemble_product_group,
    family_groups,
    group_structure_label,
    induced_automorphism,
    special_classes,
)

TYPES = ["A1", "A2", "B2", "G2"]


def test_table_version_is_set():
    assert TABLE_VERSION


@pytest.mark.parametrize("t", TYPES)
def test_duality_is_an_involution(t):
    rows = {r.class_label: r for r in special_classes(t)}
    for r in rows.values():
        assert r.dual_class in rows
        assert rows[r.dual_class].dual_class == r.class_label


@pytest.mark.parametrize("t", TYPES)
def test_duality_reverses_dimension_order(t):
    rows = {r.class_label: r for r in special_classes(t)}
    for a in rows.values():
        for b in rows.values():
            if a.dim < b.dim:
                assert rows[a.dual_class].dim >= rows[b.dual_class].dim


@pytest.mark.parametrize("t", TYPES)
def test_cells_match_special_classes(t):
    part = cells(kl_table(enumerate_weyl(_build_datum(*parse_type(t), None))))
    rows = special_classes(t)
    assert len(part.two_sided_cells) == len(rows)
    ids = {part.cell_id(i) for i in range(len(part.two_sided_cells))}
    assert ids == {r.cell_id for r in rows}


@pytest.mark.parametrize("t", TYPES)
def test_family_group_is_component_group_of_dual(t):
    rows = {r.class_label: r for r in special_classes(t)}
    fams = family_groups(t)
    for r in rows.values():
        assert fams[r.cell_id] == rows[r.dual_class].abar_label


def test_unknown_type_rejected():
    with pytest.raises(UnsupportedTypeError):
        special_classes("E8")
    with pytest.raises(UnsupportedTypeError):
        family_groups("D4")


def test_abar_groups():
    assert abar_group("1").order == 1
    assert abar_group("Z2").order == 2
    assert abar_group("S3").order == 6
    assert abar_group("S3").class_count() == 3


def test_group_structure_labels():
    assert group_structure_label(cyclic(1)) == "1"
    assert group_structure_label(cyclic(2)) == "Z2"
    assert group_structure_label(cyclic(3)) == "Z3"
    assert group_structure_label(symmetric(3)) == "S3"


def test_order_8_and_12_structure_labels():
    z2, z4 = cyclic(2), cyclic(4)
    assert group_structure_label(cyclic(8)) == "Z8"
    assert group_structure_label(direct_product([z2, z2, z2])) == "Z2^3"
    assert group_structure_label(direct_product([z4, z2])) == "Z4xZ2"
    assert group_structure_label(direct_product([symmetric(3), z2])) == "G12"


def test_assemble_product_group():
    g = assemble_product_group(("Z2", "Z2"))
    assert g.order == 4
    assert g.is_abelian()
    assert assemble_product_group(()).order == 1


def test_induced_automorphism_swaps_factors():
    g = assemble_product_group(("Z2", "Z2"))
    perm = induced_automorphism(g, ("Z2", "Z2"), (1, 0))
    assert g.is_automorphism(perm)
    assert sorted(perm) == list(range(4))
    assert perm[1] == 2 and perm[2] == 1
    assert induced_automorphism(assemble_product_group(()), (), ()) == (0,)


def test_induced_automorphism_roundtrip():
    labels = ("Z2", "S3", "Z2")
    g = assemble_product_group(labels)
    perm = induced_automorphism(g, labels, (2, 1, 0))
    assert g.is_automorphism(perm)
    assert g.order == 24 and sorted(perm) == list(range(24))
    assert all(perm[perm[x]] == x for x in range(24))
    assert g.elements[perm[g.index[1, 4, 0]]] == (0, 4, 1)


def test_induced_automorphism_rejects_mismatched_factors():
    labels = ("Z2", "S3")
    g = assemble_product_group(labels)
    with pytest.raises(InvariantError, match="different component groups"):
        induced_automorphism(g, labels, (1, 0))
    with pytest.raises(InvariantError, match="not a permutation"):
        induced_automorphism(g, labels, (0, 0))


def test_b2_and_g2_family_content():
    b2 = sorted(family_groups("B2").values())
    assert b2 == ["1", "1", "Z2"]
    g2 = sorted(family_groups("G2").values())
    assert g2 == ["1", "1", "S3"]
