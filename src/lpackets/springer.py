"""Curated special-class and family tables for the supported simple types.

Everything is keyed by the Weyl type of a simple factor (A1, A2, B2, G2);
the component groups are taken modulo the center of the ambient group, which
makes every entry isogeny-insensitive within the supported menu, and tori
contribute nothing.  The matching between two-sided cells and special classes
is pinned so that the identity cell carries the trivial class and the longest
cell carries the regular class; for every supported type both extremes have
trivial component group, so counts do not depend on that orientation, only
labels do.

``dim + 2 * a_of_u = number of roots`` holds in every row (a_of_u is the
fiber dimension attached to the class, not to the matched cell).

A ``SpecialClassRecord`` row is the one record here; ``family_groups``
reads a type's rows as a map from cell id to its family group's label.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InvariantError, UnsupportedTypeError
from .groups import FiniteGroup, cyclic, direct_product, memo, permuted, symmetric

__all__ = [
    "SpecialClassRecord", "special_classes", "family_groups", "abar_group",
    "group_structure_label",
    "assemble_product_group", "induced_automorphism", "TABLE_VERSION",
]

TABLE_VERSION = "1"


class SpecialClassRecord(namedtuple("SpecialClassRecord", "type_label class_label "
                                    "dim a_of_u abar_label dual_class cell_id")):
    """One special class of a simple type: ``abar_label`` is its component
    group ("1", "Z2", "S3") and ``cell_id`` the id of the matched two-sided
    cell (the canonical word of its least element)."""
    __slots__ = ()


_TABLES: dict[str, tuple[SpecialClassRecord, ...]] = {
    "A1": (
        SpecialClassRecord("A1", "1", 0, 1, "1", "reg", "e"),
        SpecialClassRecord("A1", "reg", 2, 0, "1", "1", "0"),
    ),
    "A2": (
        SpecialClassRecord("A2", "1", 0, 3, "1", "reg", "e"),
        SpecialClassRecord("A2", "[2,1]", 4, 1, "1", "[2,1]", "0"),
        SpecialClassRecord("A2", "reg", 6, 0, "1", "1", "010"),
    ),
    "B2": (
        SpecialClassRecord("B2", "1", 0, 4, "1", "reg", "e"),
        SpecialClassRecord("B2", "subreg", 6, 1, "Z2", "subreg", "0"),
        SpecialClassRecord("B2", "reg", 8, 0, "1", "1", "0101"),
    ),
    "G2": (
        SpecialClassRecord("G2", "1", 0, 6, "1", "reg", "e"),
        SpecialClassRecord("G2", "G2(a1)", 10, 1, "S3", "G2(a1)", "0"),
        SpecialClassRecord("G2", "reg", 12, 0, "1", "1", "010101"),
    ),
}

_NROOTS = {"A1": 2, "A2": 6, "B2": 8, "G2": 12}

for _t, _records in _TABLES.items():
    for _r in _records:
        if _r.dim + 2 * _r.a_of_u != _NROOTS[_t]:
            raise InvariantError(f"bad table row {_r}")
        if not any(_x.class_label == _r.dual_class for _x in _TABLES[_t]):
            raise InvariantError(f"dual class missing for {_r}")


def special_classes(type_label: str) -> tuple[SpecialClassRecord, ...]:
    """Rows for one simple factor, ordered by increasing dimension."""
    try:
        return _TABLES[type_label]
    except KeyError:
        raise UnsupportedTypeError(f"no class table for type {type_label!r}")


def family_groups(type_label: str) -> dict[str, str]:
    """The label of the family group of each two-sided cell, keyed by cell
    id.

    The family group of a cell equals the component group of the special
    class of the dual type matched to the same cell; all supported types are
    Weyl self-dual, so the table can be read off directly.
    """
    return {rec.cell_id: rec.abar_label for rec in special_classes(type_label)}


_ABAR_GROUPS = {"1": cyclic(1), "Z2": cyclic(2), "S3": symmetric(3)}


def abar_group(label: str) -> FiniteGroup:
    """The component group named ``label``: one of three groups built at
    import, so every caller shares one instance per label."""
    try:
        return _ABAR_GROUPS[label]
    except KeyError:
        raise UnsupportedTypeError(f"unknown component group label {label!r}") from None


def group_structure_label(g: FiniteGroup) -> str:
    """Small-order structure name, used in reports and packet descriptions."""
    n = g.order
    if n == 1:
        return "1"
    if n == 2:
        return "Z2"
    if n == 3:
        return "Z3"
    if n == 4:
        return "Z4" if any(g.element_order(x) == 4 for x in range(n)) else "Z2xZ2"
    if n == 6:
        return "Z6" if g.is_abelian() else "S3"
    if n == 8 and g.is_abelian():
        orders = sorted(g.element_order(x) for x in range(n))
        if orders.count(2) == 3 and 4 in orders:
            return "Z4xZ2"
        if max(orders) == 8:
            return "Z8"
        return "Z2^3"
    if n == 12 and not g.is_abelian():
        return "G12"
    return f"{'ab' if g.is_abelian() else 'nonab'}{n}"


@memo
def assemble_product_group(abar_labels: tuple[str, ...]) -> FiniteGroup:
    """Direct product of the factor component groups ('1' factors included):
    its elements are the tuples of factor indices.  A ``groups.memo``
    function, so ``abar_labels`` is a tuple."""
    return direct_product([abar_group(l) for l in abar_labels])


@memo
def induced_automorphism(group: FiniteGroup, abar_labels: tuple[str, ...],
                         factor_perm: tuple[int, ...]) -> tuple[int, ...]:
    """Index permutation of ``group``, the product of the component groups
    ``abar_labels`` (``assemble_product_group``), that moves factor i to slot
    factor_perm[i]: each element tuple is moved by ``groups.permuted``, and
    the result is looked up in ``group.index``.

    Diagram automorphisms inside a factor act trivially on every tabulated
    component group, so a factor permutation is the entire action.
    """
    k = len(abar_labels)
    if sorted(factor_perm) != list(range(k)):
        raise InvariantError("factor permutation is not a permutation")
    for i in range(k):
        if abar_labels[i] != abar_labels[factor_perm[i]]:
            raise InvariantError("factor permutation between different component groups")
    return tuple(group.index[permuted(x, factor_perm)] for x in group.elements)
