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

``spectral_strata`` returns one shared ``groups.Stratum`` per pair, labelled
``{"class": C}``, with one ``groups.Packet`` per twisted class.

Semisimple classes fall into a few types.  Each class arrives from
``rootdata.stable_point_orbits`` with its type key: its integral root
positions, its stabilizer in the dual Weyl group and its first Frobenius
witness, the first w with w(s) = q sigma(s).  ``_StratumGeometry`` takes the
key and no point: the centralizer subsystem comes from the integral
positions, the component elements are the based part of the stabilizer, and
the Frobenius is corrected from the witness.  So two classes with one key
have the same strata up to their semisimple label.  Within one
``spectral_strata`` call a local table builds the geometry and strata once
per key, and every class of that key gets copies of them under its own
semisimple label.

Disconnected groups are refused here; the stratified route handles them.
"""

from __future__ import annotations

from collections import namedtuple

from .coxeter import CoxeterGroup, enumerate_weyl
from .errors import InvariantError, PipelineUnavailableError
from .groups import Packet, Stratum, orbits, semidirect, table_group
from .lattice import Matrix, mat_inv_unimodular, mat_mul
from .rootdata import (
    GroupSpec,
    SubSystem,
    TorusOrbit,
    centralizer_subdatum,
    dual_datum,
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
    "SpecialPair", "ExtendedComponentGroup", "FiniteLParameter",
    "enumerate_ss_classes", "special_pairs", "extended_group", "mbar",
    "parameters", "total_count", "spectral_strata", "sl2_wd_convert",
]


class SpecialPair(namedtuple("SpecialPair", "class_tuple")):
    """A special class by its canonical representative ``class_tuple``, one
    label per factor."""
    __slots__ = ()

    def class_label(self) -> str:
        if not self.class_tuple:
            return "1"
        return ",".join(self.class_tuple)


ExtendedComponentGroup = namedtuple("ExtendedComponentGroup",
                                    "abar f_action description")


class FiniteLParameter(namedtuple("FiniteLParameter", "ss_label class_label x_label "
                                  "packet_group_label packet_size normal_form "
                                  "monodromy_label")):
    """One parameter in ``normal_form`` "sl2" or "wd"; ``monodromy_label``
    is the class label in sl2 form and the nilpotent label in wd form."""
    __slots__ = ()


def _require_connected(spec: GroupSpec):
    if not spec.connected:
        raise PipelineUnavailableError(
            "the dual-side enumeration only covers connected groups; "
            "use the stratified pipeline for disconnected ones")


# ---------------------------------------------------------------------------
# semisimple classes

def enumerate_ss_classes(spec: GroupSpec, cox=None) -> list[TorusOrbit]:
    """Torsion points of the dual torus with q sigma (s) Weyl-conjugate to s,
    up to the Weyl group.

    ``cox`` is the dual Weyl group, built here when not given."""
    _require_connected(spec)
    cox = cox or enumerate_weyl(dual_datum(spec.datum))
    return stable_point_orbits(spec, cox, cox.elements)


# ---------------------------------------------------------------------------
# geometry of one semisimple type

class _StratumGeometry:
    """Everything about the centralizer of one semisimple type, built from
    its type key (see ``rootdata.stable_point_orbits``) alone; ``cox`` is the
    dual Weyl group."""

    def __init__(self, spec: GroupSpec, key: tuple, cox: CoxeterGroup):
        positions, stab, witness = key
        if witness is None:
            raise InvariantError("no witness for a supposedly stable orbit")
        self.cox = cox
        self.sub = centralizer_subdatum(cox.datum, positions)
        # the based part of the stabilizer, in element order (length, word)
        pos_set = {cox.datum.roots[i] for i in self.sub.positive_positions}
        self.pi0 = [cox.elements[i] for i in stab
                    if x_preserves(cox.elements[i], pos_set)]
        self.factor_types = self.sub.factor_types
        # Frobenius as a based automorphism of the subsystem:
        # v0 . witness^-1 . sigma with v0 the positivity correction
        witness_inv = cox.elements[cox.inverse[witness]]
        self.aut_f = _positivity_correct(self.sub,
                                         mat_mul(witness_inv, spec.twist.sigma_x))

    def act_on_tuple(self, m_y: Matrix, labels: tuple[str, ...]) -> tuple[str, ...]:
        perm = factor_permutation(self.sub, m_y)
        out = [None] * len(labels)
        for i, lab in enumerate(labels):
            out[perm[i]] = lab
        return tuple(out)


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

def special_pairs(geo: _StratumGeometry, rng=None) -> list[SpecialPair]:
    """Component-stable Frobenius-stable orbits of special classes of the
    centralizer at the canonical representative."""
    per_factor = [tuple(r.class_label for r in special_classes(t))
                  for t in geo.factor_types]
    tuples = [()]
    for labels in per_factor:
        tuples = [t + (lab,) for t in tuples for lab in labels]

    rank_key = {}
    for t in set(geo.factor_types):
        for pos, r in enumerate(special_classes(t)):
            rank_key[(t, r.class_label)] = pos

    def tuple_key(tup):
        return tuple(rank_key[(geo.factor_types[i], lab)] for i, lab in enumerate(tup))

    if rng is not None:
        rng.shuffle(tuples)
    pairs = []
    for _, imgs in orbits(tuples, lambda t: [geo.act_on_tuple(g, t) for g in geo.pi0]):
        # Frobenius stability of the orbit
        rep = min(imgs, key=tuple_key)
        if geo.act_on_tuple(geo.aut_f, rep) not in imgs:
            continue
        pairs.append(SpecialPair(class_tuple=rep))
    pairs.sort(key=lambda p: tuple_key(p.class_tuple))
    return pairs


# ---------------------------------------------------------------------------
# the extended component group and its Frobenius

def extended_group(geo: _StratumGeometry, pair: SpecialPair) -> ExtendedComponentGroup:
    cox = geo.cox

    # correct the Frobenius so it fixes the canonical class tuple
    aut = None
    for g in geo.pi0:  # deterministic order
        cand = mat_mul(g, geo.aut_f)
        if geo.act_on_tuple(cand, pair.class_tuple) == pair.class_tuple:
            aut = cand
            break
    if aut is None:
        raise InvariantError("stable orbit without a class-fixing Frobenius")

    stab = [g for g in geo.pi0
            if geo.act_on_tuple(g, pair.class_tuple) == pair.class_tuple]
    try:
        s_group = table_group(stab, mat_mul,
                              [cox.word_label(cox.index[a]) for a in stab])
    except ValueError:
        raise InvariantError("class stabilizer is not closed") from None

    abar_labels = []
    for i, t in enumerate(geo.factor_types):
        rec = next(r for r in special_classes(t)
                   if r.class_label == pair.class_tuple[i])
        abar_labels.append(rec.abar_label)
    g_group = assemble_product_group(abar_labels)

    acts = [induced_automorphism(g_group, abar_labels, factor_permutation(geo.sub, v))
            for v in stab]
    abar = semidirect(g_group, s_group, acts)

    # Frobenius on the connected part: factor permutation; on the stabilizer:
    # conjugation by the corrected automorphism
    fg = induced_automorphism(g_group, abar_labels, factor_permutation(geo.sub, aut))
    aut_inv = mat_inv_unimodular(aut)
    fs = []
    for v in stab:
        img = mat_mul(mat_mul(aut, v), aut_inv)
        if img not in s_group.index:
            raise InvariantError("Frobenius does not normalize the class stabilizer")
        fs.append(s_group.index[img])
    f_action = tuple(abar.index[fg[g], fs[v]] for g, v in abar.elements)
    if not abar.is_automorphism(f_action):
        raise InvariantError("Frobenius is not an automorphism of the extended group")
    desc = group_structure_label(g_group)
    if s_group.order > 1:
        desc = f"{desc}:{group_structure_label(s_group)}"
    return ExtendedComponentGroup(abar=abar, f_action=f_action, description=desc)


# ---------------------------------------------------------------------------
# twisted classes of the extended group

def mbar(ext: ExtendedComponentGroup, rng=None) -> list[Packet]:
    """Twisted-conjugation classes of the extended group, with packet sizes.

    With an rng, the orbits are computed around a random translation point
    and mapped back; the result is identical by the translation equivariance
    of twisted conjugation, which this exercises.
    """
    abar = ext.abar
    f = ext.f_action
    if rng is None or abar.order == 1:
        orbits = abar.twisted_orbits(f)
        centralizer_of = lambda x: abar.twisted_centralizer(x, f)
    else:
        a = rng.randrange(abar.order)
        a_inv = abar.inverse[a]
        f2 = [abar.mul(abar.mul(a, f[b]), a_inv) for b in range(abar.order)]
        shifted = abar.twisted_orbits(f2)
        orbits = []
        for orb in shifted:
            orbits.append(tuple(sorted(abar.mul(x, a) for x in orb)))
        orbits.sort(key=lambda c: c[0])
        centralizer_of = lambda x: abar.twisted_centralizer(abar.mul(x, a_inv), f2)

    out = []
    for orb in orbits:
        x = min(orb, key=lambda i: abar.labels[i])
        cz = abar.subgroup(centralizer_of(x))
        out.append(Packet(abar.labels[x], cz.class_count(),
                          group_structure_label(cz)))
    out.sort(key=lambda p: p.x_label)
    return out


# ---------------------------------------------------------------------------
# assembly

def _class_strata(spec: GroupSpec, key: tuple, cox: CoxeterGroup,
                  rng=None) -> list[Stratum]:
    """The strata of one semisimple type, with an empty semisimple label:
    each class of the type gets relabelled copies."""
    geo = _StratumGeometry(spec, key, cox)
    strata = []
    for pair in special_pairs(geo, rng=rng):
        ext = extended_group(geo, pair)
        strata.append(Stratum(ss_label="",
                              labels={"class": pair.class_label()},
                              group_desc=ext.description,
                              packets=mbar(ext, rng=rng)))
    return strata


def spectral_strata(spec: GroupSpec, rng=None) -> list[Stratum]:
    _require_connected(spec)
    cox = enumerate_weyl(dual_datum(spec.datum))
    by_type: dict[tuple, list[Stratum]] = {}
    strata = []
    for ssc in enumerate_ss_classes(spec, cox=cox):
        if ssc.key not in by_type:
            by_type[ssc.key] = _class_strata(spec, ssc.key, cox, rng=rng)
        label = ssc.label()
        strata += [st.relabelled(label) for st in by_type[ssc.key]]
    return strata


def parameters(spec: GroupSpec, rng=None) -> list[FiniteLParameter]:
    out = []
    for st in spectral_strata(spec, rng=rng):
        for p in st.packets:
            out.append(FiniteLParameter(
                ss_label=st.ss_label,
                class_label=st.labels["class"],
                x_label=p.x_label,
                packet_group_label=p.group_label,
                packet_size=p.size,
                normal_form="sl2",
                monodromy_label=st.labels["class"],
            ))
    return out


def total_count(spec: GroupSpec, rng=None) -> int:
    return sum(st.total for st in spectral_strata(spec, rng=rng))


def sl2_wd_convert(param: FiniteLParameter) -> FiniteLParameter:
    """Swap between the two normal forms of a parameter.

    In the sl2 form the monodromy is carried by the class label; in the
    grouped form the unipotent part is recorded as a nilpotent label ("0"
    when the class is trivial) and the square root of q is the positive one
    by convention.  The conversion is an involution and touches nothing that
    packet data depend on.
    """
    if param.normal_form == "sl2":
        trivial = all(part == "1" for part in param.monodromy_label.split(","))
        nil = "0" if trivial else param.monodromy_label
        return FiniteLParameter(
            ss_label=param.ss_label, class_label=param.class_label,
            x_label=param.x_label, packet_group_label=param.packet_group_label,
            packet_size=param.packet_size, normal_form="wd",
            monodromy_label=nil)
    return FiniteLParameter(
        ss_label=param.ss_label, class_label=param.class_label,
        x_label=param.x_label, packet_group_label=param.packet_group_label,
        packet_size=param.packet_size, normal_form="sl2",
        monodromy_label=param.class_label)
