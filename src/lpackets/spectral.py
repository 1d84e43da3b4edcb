"""Parameter enumeration through the dual group.

For a connected group the Frobenius-semisimple parameters are enumerated as
pairs (s, C): a torsion point s of the dual torus taken up to the dual Weyl
group, with q sigma (s) in the orbit of s, together with a component-stable
special class C of the centralizer of s.  Each pair carries an extended
component group (the class's component group extended by the stabilizer of C
in the centralizer's component group) with a Frobenius automorphism; the
parameters in the pair's stratum are the twisted-conjugation classes of that
extended group and each one's packet size is the number of irreducible
characters of its twisted centralizer.

``spectral_strata`` returns one ``groups.Stratum`` per pair, labelled by
its class C, with one ``groups.Packet`` per twisted class.

Semisimple classes fall into a few types.  Each class arrives from
``rootdata.stable_point_orbits`` with its type key: its integral root
positions, its stabilizer in the dual Weyl group and its first Frobenius
witness, the first w with w(s) = q sigma(s).  ``_StratumGeometry`` takes the
spec and the key and no point: the dual Weyl group comes from the spec
(``rootdata.acting_group``), the centralizer subsystem from the integral
positions, the component group pi0 is the group of the based part of the
stabilizer, and the Frobenius is corrected from the witness.  The geometry
also holds the factor permutation of every pi0 element and of every
Frobenius candidate c F (c in pi0), so no pair recomputes them.  A special
class of the centralizer is a tuple of row indices, one per factor, into
``springer.special_classes`` of that factor's type; pi0 moves the entries
between factors (``groups.permuted``).  So two classes with one key have
the same strata up to their semisimple label: ``spectral_strata`` builds
them once per key through ``groups.strata_by_type``.

Types share more than their keys show: many have one integral subsystem,
and many pairs one extended group.  ``spectral_strata`` runs in one
``groups.call_scope``, so each reflection group and subsystem, and each
extended group with its twisted classes (``_extension`` and ``mbar``, keyed
on the abar labels, the class stabilizer with its factor permutations, and
the Frobenius's factor permutation and action on the stabilizer), is built
once per call.

Disconnected groups are refused here; the stratified route handles them.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product

from .coxeter import enumerate_weyl
from .errors import InvariantError, PipelineUnavailableError
from .groups import (
    Packet,
    Stratum,
    call_scope,
    memo,
    orbits,
    permuted,
    semidirect,
    strata_by_type,
    table_group,
)
from .lattice import Matrix, mat_inv_unimodular, mat_mul
from .rootdata import (
    GroupSpec,
    SubSystem,
    TorusOrbit,
    acting_group,
    centralizer_subdatum,
    factor_permutation,
    stable_point_orbits,
    x_preserves,
)
from .springer import (
    assemble_product_group,
    group_structure_label,
    induced_automorphism,
    special_classes,
)

__all__ = [
    "ExtendedComponentGroup", "enumerate_ss_classes", "special_pairs",
    "extended_group", "mbar", "spectral_strata",
]


ExtendedComponentGroup = namedtuple("ExtendedComponentGroup",
                                    "abar f_action description")


def _require_connected(spec: GroupSpec):
    if not spec.connected:
        raise PipelineUnavailableError(
            "the dual-side enumeration only covers connected groups; "
            "use the stratified pipeline for disconnected ones")


# ---------------------------------------------------------------------------
# semisimple classes

def enumerate_ss_classes(spec: GroupSpec) -> list[TorusOrbit]:
    """Torsion points of the dual torus with q sigma (s) Weyl-conjugate to s,
    up to the Weyl group."""
    _require_connected(spec)
    return stable_point_orbits(spec)


# ---------------------------------------------------------------------------
# geometry of one semisimple type

class _StratumGeometry:
    """Everything about the centralizer of one semisimple type, built from
    the spec and its type key (see ``rootdata.stable_point_orbits``) alone;
    the spec is connected, so the key's stabilizer indexes W*'s elements.

    ``pi0`` is the group of the based part of the stabilizer, in element
    order (length, word), so element 0 is the identity; ``perms[i]`` is the
    factor permutation of its element i.  ``frobenius`` lists the candidates
    c F for c in pi0, in pi0's order, each with its own factor permutation;
    the first is the positivity-corrected Frobenius F itself."""

    def __init__(self, spec: GroupSpec, key: tuple):
        positions, stab, witness = key
        if witness is None:
            raise InvariantError("no witness for a supposedly stable orbit")
        cox = acting_group(spec)[0]
        self.sub = centralizer_subdatum(cox.datum, positions)
        pos_set = {cox.datum.roots[i] for i in self.sub.positive_positions}
        based = [i for i in stab if x_preserves(cox.elements[i], pos_set)]
        try:
            self.pi0 = table_group([cox.elements[i] for i in based], mat_mul,
                                   [cox.word_label(i) for i in based])
        except ValueError:
            raise InvariantError("component group is not closed") from None
        self.factor_types = self.sub.factor_types
        self.perms = [factor_permutation(self.sub, g) for g in self.pi0.elements]
        # Frobenius as a based automorphism of the subsystem:
        # v0 . witness^-1 . sigma with v0 the positivity correction
        witness_inv = cox.elements[cox.inverse[witness]]
        aut_f = _positivity_correct(self.sub,
                                    mat_mul(witness_inv, spec.twist.sigma_x))
        candidates = [mat_mul(g, aut_f) for g in self.pi0.elements]
        self.frobenius = [(c, factor_permutation(self.sub, c)) for c in candidates]


def _positivity_correct(sub: SubSystem, m: Matrix) -> Matrix:
    """Compose with the unique element of the subsystem reflection group that
    makes m preserve the positive subsystem."""
    pos_set = {sub.ambient.roots[i] for i in sub.positive_positions}
    all_set = {sub.ambient.roots[i] for i in sub.root_positions}
    if not x_preserves(m, all_set):
        raise InvariantError("map does not normalize the subsystem")
    fixes = [v for v in enumerate_weyl(sub.as_datum()).elements
             if x_preserves(mat_mul(v, m), pos_set)]
    if len(fixes) != 1:
        raise InvariantError("positivity correction is not unique")
    return mat_mul(fixes[0], m)


# ---------------------------------------------------------------------------
# special pairs

def _class_label(geo: _StratumGeometry, rows: tuple[int, ...]) -> str:
    """The special class's labels joined with ",", or "1" on a torus."""
    return ",".join(special_classes(t)[r].class_label
                    for t, r in zip(geo.factor_types, rows)) or "1"


def special_pairs(geo: _StratumGeometry, rng=None) -> list[tuple[int, ...]]:
    """Component-stable Frobenius-stable orbits of special classes of the
    centralizer, each at its least row tuple, in increasing order."""
    tuples = list(product(*(range(len(special_classes(t)))
                            for t in geo.factor_types)))
    if rng is not None:
        rng.shuffle(tuples)
    f_perm = geo.frobenius[0][1]
    pairs = []
    for _, imgs in orbits(tuples, lambda t: [permuted(t, p) for p in geo.perms]):
        rep = min(imgs)
        if permuted(rep, f_perm) in imgs:
            pairs.append(rep)
    return sorted(pairs)


# ---------------------------------------------------------------------------
# the extended component group and its Frobenius

def extended_group(geo: _StratumGeometry,
                   pair: tuple[int, ...]) -> ExtendedComponentGroup:
    """The extended component group of a special pair and its Frobenius."""
    def fixes(perm):
        return permuted(pair, perm) == pair

    # correct the Frobenius so it fixes the canonical class tuple
    aut, aut_perm = next(((c, p) for c, p in geo.frobenius if fixes(p)),
                         (None, None))
    if aut is None:
        raise InvariantError("stable orbit without a class-fixing Frobenius")

    pi0 = geo.pi0
    try:
        s_group = pi0.subgroup(i for i, p in enumerate(geo.perms) if fixes(p))
    except ValueError:
        raise InvariantError("class stabilizer is not closed") from None

    # Frobenius on the stabilizer: conjugation by the corrected automorphism
    aut_inv = mat_inv_unimodular(aut)
    fs = []
    for v in s_group.elements:
        img = pi0.index.get(mat_mul(mat_mul(aut, pi0.elements[v]), aut_inv))
        if img not in s_group.index:
            raise InvariantError("Frobenius does not normalize the class stabilizer")
        fs.append(s_group.index[img])

    abar_labels = tuple(special_classes(t)[r].abar_label
                        for t, r in zip(geo.factor_types, pair))
    return _extension(abar_labels, s_group,
                      tuple(geo.perms[v] for v in s_group.elements),
                      aut_perm, tuple(fs))


@memo
def _extension(abar_labels: tuple[str, ...], s_group, perms, aut_perm,
               fs) -> ExtendedComponentGroup:
    """The extended group of ``extended_group``, from the abar labels, the
    class stabilizer with the factor permutation of each element, and the
    Frobenius: its factor permutation on the connected part and its action
    ``fs`` on the stabilizer's indices."""
    g_group = assemble_product_group(abar_labels)
    acts = [induced_automorphism(g_group, abar_labels, p) for p in perms]
    abar = semidirect(g_group, s_group, acts)
    fg = induced_automorphism(g_group, abar_labels, aut_perm)
    f_action = tuple(abar.index[fg[g], fs[v]] for g, v in abar.elements)
    if not abar.is_automorphism(f_action):
        raise InvariantError("Frobenius is not an automorphism of the extended group")
    desc = group_structure_label(g_group)
    if s_group.order > 1:
        desc = f"{desc}:{group_structure_label(s_group)}"
    return ExtendedComponentGroup(abar=abar, f_action=f_action, description=desc)


# ---------------------------------------------------------------------------
# twisted classes of the extended group

@memo
def mbar(ext: ExtendedComponentGroup) -> tuple[Packet, ...]:
    """Twisted-conjugation classes of the extended group, with packet sizes,
    sorted by label."""
    abar = ext.abar
    f = ext.f_action
    out = []
    for orb in abar.twisted_orbits(f):
        x = min(orb, key=lambda i: abar.labels[i])
        cz = abar.subgroup(abar.twisted_centralizer(x, f))
        out.append(Packet(abar.labels[x], cz.class_count(),
                          group_structure_label(cz)))
    out.sort(key=lambda p: p.x_label)
    return tuple(out)


# ---------------------------------------------------------------------------
# assembly

def _class_strata(spec: GroupSpec, key: tuple, rng=None) -> list[Stratum]:
    """The strata of one semisimple type, with an empty semisimple label:
    each class of the type gets them under its own label."""
    geo = _StratumGeometry(spec, key)
    strata = []
    for pair in special_pairs(geo, rng=rng):
        ext = extended_group(geo, pair)
        strata.append(Stratum(ss_label="",
                              labels=(("class", _class_label(geo, pair)),),
                              group_desc=ext.description,
                              packets=mbar(ext)))
    return strata


def spectral_strata(spec: GroupSpec, rng=None) -> list[Stratum]:
    with call_scope():
        return strata_by_type(enumerate_ss_classes(spec),
                              lambda key: _class_strata(spec, key, rng=rng))
