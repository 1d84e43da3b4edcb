"""Parameter enumeration through character-sheaf strata.

The torsion points of the dual torus are grouped into orbits of the full
acting group (dual reflections extended by the component group).  At a
canonical point the stabilizer splits into the reflection group of the
integral subsystem and a based complement Omega.  A stratum at that point
is one orbit of Omega on the pairs (two-sided cell c of the integral
reflection group, Frobenius coset b whose distinguished map fixes c), found
in one ``groups.orbits`` pass, which also checks that Omega keeps to these
pairs.  Its packets are twisted classes of the
family group of c extended by the pair's stabilizer, walked with
``groups.FiniteGroup.twisted_images`` as the dual route's are.

A cell of the integral reflection group, a product of simple factors, is
the tuple of its factor cell ids, one two-sided cell per factor.  Omega and
the Frobenius maps move it by their factor permutations, as ``spectral``
moves a special class.  KL polynomials and cells are computed only for the
four simple types, once each per process (``_standalone``).

This route covers disconnected groups: component matrices act on the torus
alongside the reflections and enter every stabilizer.

``stratified_strata`` returns one ``groups.Stratum`` per (point, orbit of
pairs), labelled by its cell and beta, with one ``groups.Packet`` per
twisted class.

Points fall into a few semisimple types.  Each orbit arrives from
``rootdata.stable_point_orbits`` with its type key: its integral root
positions, its stabilizer in the acting group and its first Frobenius
witness, the first w with w(s) = F(s).  ``_PointGeometry`` takes the spec
and the key and no point: the acting group comes from the spec alone
(``rootdata.acting_group``), the centralizer subsystem from the integral
positions, the based complement from the stabilizer, and the Frobenius
solutions, the w with w(F(s)) = s, are Stab_W(s) w0 for w0 the witness's
inverse.  So two orbits with one key have the same strata up to their
semisimple label: ``stratified_strata`` builds them once per key through
``groups.strata_by_type``.

Types share more than their keys show: many have one integral subsystem,
and many strata one packet walk.  ``stratified_strata`` runs in one
``groups.call_scope``, so a subsystem's reflection group and cells
(``_subsystem_cells``) and a stratum's packets (``_packets``, keyed
on the family labels, the Frobenius factor permutation, Omega_b and its
factor permutations) are each built once per call.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

from .coxeter import cells, enumerate_weyl, kl_table
from .errors import InvariantError
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
    _build_datum,
    acting_group,
    centralizer_subdatum,
    factor_permutation,
    stable_point_orbits,
    x_preserves,
)
from .springer import (
    assemble_product_group,
    family_groups,
    group_structure_label,
    induced_automorphism,
)

__all__ = ["semisimple_parameters", "stratified_strata"]


# ---------------------------------------------------------------------------
# semisimple parameters

def semisimple_parameters(spec: GroupSpec) -> list[TorusOrbit]:
    """Orbits on the dual torus containing a Frobenius-stable reflection
    orbit, under the dual reflections extended by the component group."""
    return stable_point_orbits(spec)


# ---------------------------------------------------------------------------
# standalone cell structure per factor type

@lru_cache(maxsize=None)
def _standalone(type_label: str):
    datum = _build_datum((type_label,), 0, None)
    cox = enumerate_weyl(datum)
    part = cells(kl_table(cox))
    return cox, part


@memo
def _subsystem_cells(sub: SubSystem):
    """The reflection group of ``sub`` and its two-sided cells, listed by
    least member, each as ``(ids, members)``: its factor cell ids and its
    sorted element indices.

    ``sub.factors[i]`` holds the letters of the group's words that generate
    factor i.  Cells of a product reflection group are products of factor
    cells, so each element's cell is read off its projections: the letters
    of its word in factor i, walked through factor i's standalone group.
    """
    cox = enumerate_weyl(sub.as_datum())
    where = {letter: (fi, loc) for fi, letters in enumerate(sub.factors)
             for loc, letter in enumerate(letters)}
    tables = [_standalone(t) for t in sub.factor_types]
    by_ids: dict[tuple[str, ...], list[int]] = {}
    for i, word in enumerate(cox.words):
        local = [0] * len(tables)
        for letter in word:
            fi, loc = where[letter]
            local[fi] = tables[fi][0].right[loc][local[fi]]
        ids = tuple(part.cell_id(part.cell_of[x])
                    for (_, part), x in zip(tables, local))
        by_ids.setdefault(ids, []).append(i)
    if len(by_ids) != prod(len(part.two_sided_cells) for _, part in tables):
        raise InvariantError("cells do not factor as products over the factors")
    return cox, tuple((ids, tuple(members)) for ids, members in by_ids.items())


# ---------------------------------------------------------------------------
# geometry of one semisimple type

class _PointGeometry:
    """Stabilizer, cells, and Frobenius cosets of one semisimple type, built
    from the spec and its type key (see ``rootdata.stable_point_orbits``).
    ``cells`` are the ``_subsystem_cells`` pairs ``(ids, members)``.
    Element i of ``omega``, labelled by its acting index, moves cosets by
    ``ad[i]`` and factors by ``omega_perms[i]``; coset b's Frobenius map
    moves factors by ``beta_perms[b]``.  Each moves a cell's ids by
    ``groups.permuted`` with its factor permutation."""

    def __init__(self, spec: GroupSpec, key: tuple):
        positions, stab_idx, witness = key
        if witness is None:
            raise InvariantError("point enumerated without a Frobenius witness")
        cox, acting = acting_group(spec)
        sigma = spec.twist.sigma_x
        self.sub = centralizer_subdatum(cox.datum, positions)
        self.sub_cox, self.cells = _subsystem_cells(self.sub)
        self.pos_set = {cox.datum.roots[i] for i in self.sub.positive_positions}

        stab = [acting[i] for i in stab_idx]
        omega_idx = [i for i in stab_idx if self._based(acting[i])]
        if len(stab) != len(omega_idx) * self.sub_cox.order:
            raise InvariantError(
                "stabilizer does not split over the integral reflection group")
        try:
            self.omega = table_group([acting[i] for i in omega_idx],
                                     mat_mul, omega_idx)
        except ValueError:
            raise InvariantError("based stabilizer complement is not closed") from None
        # a based map moves a cell by permuting its factor cell ids alone:
        # within a factor it acts by a Coxeter-graph automorphism, and each
        # of those fixes every two-sided cell of the four simple types
        self.omega_perms = [factor_permutation(self.sub, m)
                            for m in self.omega.elements]

        # Frobenius cosets: the solutions of w(F(s)) = s are Stab_W(s) w0 for
        # w0 the witness's inverse, listed in reflection-group order and
        # partitioned (``orbits`` checks it) into left cosets of the
        # integral reflection group
        w0 = cox.elements[cox.inverse[witness]]
        sprime = [cox.elements[j] for j in sorted(
            cox.index[mat_mul(m, w0)] for m in stab if m in cox.index)]
        self.coset_reps: list[Matrix] = []      # distinguished representatives
        for _, coset in orbits(sprime, lambda w: [mat_mul(u, w)
                                                  for u in self.sub_cox.elements]):
            dist = [v for v in coset if self._based(mat_mul(v, sigma))]
            if len(dist) != 1:
                raise InvariantError("distinguished representative is not unique")
            self.coset_reps.append(dist[0])

        # the distinguished Frobenius maps and their factor permutations;
        # twisted conjugation by g in the complement sends coset w to
        # g w (sigma g sigma^-1)^-1, whose Frobenius map is g (w sigma) g^-1,
        # and a based g keeps a distinguished map distinguished, so it is
        # conjugation of the distinguished maps
        betas = [mat_mul(w, sigma) for w in self.coset_reps]
        self.beta_perms = [factor_permutation(self.sub, m) for m in betas]
        beta_at = {m: b for b, m in enumerate(betas)}
        self.ad = []
        for g in self.omega.elements:
            g_inv = mat_inv_unimodular(g)
            try:
                self.ad.append([beta_at[mat_mul(mat_mul(g, m), g_inv)] for m in betas])
            except KeyError:
                raise InvariantError("twisted conjugation leaves the cosets") from None

    def _based(self, m: Matrix) -> bool:
        return x_preserves(m, self.pos_set)


# ---------------------------------------------------------------------------
# counting one stratum

def _stratum_packets(geo: _PointGeometry, ids: tuple[str, ...], beta: int,
                     stab, rng=None):
    """Packets of one stratum, as a tuple, and the description of the group
    they are twisted classes of.  With G the family group of the cell with
    factor cell ids ``ids``, Omega_b the pair's stabilizer ``stab``, tau the
    coset's Frobenius action and f = (tau, id) on E = G x| Omega_b:
    (h, v)(g, 1)f(h, v)^-1 = (h v(g) tau(h)^-1, 1), so they are the f-twisted
    classes of E inside G.  f is an automorphism as tau commutes with
    Omega_b, which is checked."""
    labels = tuple(family_groups(t)[c] for t, c in zip(geo.sub.factor_types, ids))
    tau_fp = geo.beta_perms[beta]
    omega_sub = geo.omega.subgroup(stab)
    perms = tuple(geo.omega_perms[oi] for oi in omega_sub.elements)
    for fp in perms:
        if tuple(fp[i] for i in tau_fp) != tuple(tau_fp[i] for i in fp):
            raise InvariantError("cell stabilizer does not commute with Frobenius")
    return _packets(labels, tau_fp, omega_sub, perms, rng=rng)


@memo
def _packets(labels: tuple[str, ...], tau_fp: tuple[int, ...], omega_sub,
             perms, rng=None):
    """The packets and group description of ``_stratum_packets``, from the
    family group's factor labels, tau's factor permutation, Omega_b and the
    factor permutation of each of its elements; ``rng`` only orders the
    walk."""
    g_group = assemble_product_group(labels)
    tau = induced_automorphism(g_group, labels, tau_fp)
    acts = [induced_automorphism(g_group, labels, fp) for fp in perms]
    ext = semidirect(g_group, omega_sub, acts)
    f = [ext.index[(tau[h], v)] for h, v in ext.elements]
    inside = [ext.index[(g, omega_sub.identity)] for g in range(g_group.order)]
    if rng is not None:
        rng.shuffle(inside)

    def g_label(x: int) -> str:
        return g_group.labels[ext.elements[x][0]]

    packets = []
    for _, imgs in orbits(inside, lambda x: ext.twisted_images(x, f)):
        x = min(imgs, key=g_label)
        cz = ext.subgroup(ext.twisted_centralizer(x, f))
        packets.append(Packet(g_label(x), cz.class_count(),
                              group_structure_label(cz)))
    packets.sort(key=lambda p: p.x_label)
    desc = group_structure_label(g_group)
    if omega_sub.order > 1:
        desc = f"{desc}:{group_structure_label(omega_sub)}"
    return tuple(packets), desc


# ---------------------------------------------------------------------------
# assembly

def _point_strata(spec: GroupSpec, key: tuple, rng=None) -> list[Stratum]:
    """The strata of one semisimple type, with an empty semisimple label:
    each orbit of the type gets them under its own label.  Pairs are listed
    c-major, so each orbit's first-seen pair is its least."""
    geo = _PointGeometry(spec, key)
    cox = acting_group(spec)[0]
    pairs = [(ids, b) for ids, _ in geo.cells
             for b, fp in enumerate(geo.beta_perms) if permuted(ids, fp) == ids]
    moves = list(zip(geo.omega_perms, geo.ad))
    strata = []
    for pair, imgs in orbits(pairs, lambda p: [(permuted(p[0], fp), ad[p[1]])
                                               for fp, ad in moves]):
        ids, beta = pair
        stab = [oi for oi, img in enumerate(imgs) if img == pair]
        packets, desc = _stratum_packets(geo, ids, beta, stab, rng=rng)
        seen = {c for c, _ in imgs}
        cell_label = "+".join(geo.sub_cox.word_label(members[0])
                              for c, members in geo.cells if c in seen)
        beta_label = cox.word_label(cox.index[geo.coset_reps[beta]])
        strata.append(Stratum(ss_label="", labels=(("cell", cell_label),
                                                   ("beta", beta_label)),
                              group_desc=desc, packets=packets))
    return strata


def stratified_strata(spec: GroupSpec, rng=None) -> list[Stratum]:
    with call_scope():
        return strata_by_type(semisimple_parameters(spec),
                              lambda key: _point_strata(spec, key, rng=rng))
