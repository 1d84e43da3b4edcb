"""Root data, Frobenius twists, and group descriptions.

A root datum is stored with explicit dual bases: the character lattice X and
cocharacter lattice Y are both Z^rank and the pairing is the dot product, so
an isogeny choice is a choice of coordinates for the roots and coroots.
Reflections act on Y by y -> y - <alpha, y> alpha^ and on X contragrediently;
all Weyl elements downstream are carried as Y-matrices.  A type string is
read in one place, ``parse_type``: a torus T<r>, or a product X1x...xXk of
A1, A2, B2/C2 and G2 up to semisimple rank 4 with an optional central torus
+T<r>.  Everything else about the type (the datum, its label, its bad
primes) is built from the factors and the torus rank it returns; the simply
connected datum of a product is the block sum of its factors' simple roots
and coroots.  A ``SubSystem`` records which simple roots form which factor,
and the cells of a type are read through it.

Torsion points of the dual torus live in Y tensor Q/Z.  A point s is carried
as an integer vector v with entries in [0, N), s = v / N, where the modulus N
is fixed once per spec before any solving (see ``stable_point_orbits``), so
every Weyl action, integrality test and comparison is integer arithmetic mod
N.  ``point_label`` is the one place a point becomes a fraction.  The same
solver, under the acting group that ``acting_group`` builds from the spec,
feeds both counting pipelines, and hands each orbit over as a ``TorusOrbit``
that carries its semisimple type key, read from one integer matrix pass at
its least point: this is the one place a point's type is read.  That record
and the others here are immutable named tuples: equal fields make equal
records, and no field can be reassigned.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from math import gcd, lcm
from operator import mul

from .coxeter import CoxeterGroup, enumerate_weyl
from .errors import ConfigError, InvariantError, UnsupportedTypeError
from .fq import prime_power
from .groups import closure, memo, orbits, strong_components
from .lattice import (
    Matrix,
    Vector,
    det,
    identity,
    mat_inv_unimodular,
    mat_mul,
    mat_vec,
    solve_integral,
    solve_torsion,
    transpose,
)

__all__ = [
    "RootDatum", "FrobeniusTwist", "GroupSpec", "SubSystem",
    "parse_group_spec", "dual_datum", "centralizer_subdatum",
    "TorusOrbit", "acting_group",
    "stable_point_orbits", "whittaker_torsor_size", "MAX_TORSION_POINTS",
    "x_action", "x_preserves", "NAMED_SPECS", "TYPE_ALIASES", "parse_type",
]


class RootDatum(namedtuple("RootDatum", "rank roots coroots simple_indices "
                                        "cartan_label")):
    """Roots and coroots in matched order on Z^rank, with the positions of
    the simple ones.  No ``__slots__``: ``positive_indices`` is cached in the
    instance ``__dict__``."""

    def __new__(cls, rank, roots, coroots, simple_indices, cartan_label):
        self = super().__new__(cls, rank, roots, coroots, simple_indices,
                               cartan_label)
        if len(roots) != len(coroots):
            raise InvariantError("roots and coroots must be matched in length")
        for i in simple_indices:
            if self.pairing(roots[i], coroots[i]) != 2:
                raise InvariantError("simple root paired with its coroot must give 2")
        return self

    def pairing(self, x, y):
        return sum(map(mul, x, y))

    @property
    def simple_roots(self):
        return tuple(self.roots[i] for i in self.simple_indices)

    @property
    def simple_coroots(self):
        return tuple(self.coroots[i] for i in self.simple_indices)

    @cached_property
    def positive_indices(self) -> tuple[int, ...]:
        """Indices of the roots lying in the nonnegative span of the simples.

        A root r is sum_i c_i alpha_i with c C = <r, simple coroots> for the
        Cartan matrix C, and c is integral.
        """
        simples = self.simple_roots
        cartan = tuple(tuple(self.pairing(a, b) for b in self.simple_coroots)
                       for a in simples)
        pairings = tuple(tuple(self.pairing(r, b) for b in self.simple_coroots)
                         for r in self.roots)
        coeffs = solve_integral(cartan, pairings)
        if coeffs is None or mat_mul(coeffs, simples) != self.roots:
            raise InvariantError("root outside the lattice of the simple roots")
        out = tuple(i for i, c in enumerate(coeffs) if min(c) >= 0)
        if 2 * len(out) != len(self.roots):
            raise InvariantError("positive roots are not half of all roots")
        return out


class FrobeniusTwist(namedtuple("FrobeniusTwist", "q p sigma_y")):
    """The Frobenius of F_q, q a power of p, with ``sigma_y`` its
    finite-order action on Y, permuting the coroots.  No ``__slots__``:
    ``sigma_x`` is cached in the instance ``__dict__``."""

    @cached_property
    def sigma_x(self) -> Matrix:
        return x_action(self.sigma_y)


class GroupSpec(namedtuple("GroupSpec", "datum twist components name")):
    """A named group over F_q: its root datum, Frobenius twist, and the
    Y-matrices of its component group (identity included)."""
    __slots__ = ()

    @property
    def connected(self) -> bool:
        return len(self.components) == 1

    @property
    def q(self) -> int:
        return self.twist.q


def point_label(v: Vector, modulus: int) -> str:
    """The torsion point v / modulus, each coordinate a reduced fraction in
    [0, 1)."""
    return "(" + ",".join(_reduced(x % modulus, modulus) for x in v) + ")"


def _reduced(a: int, b: int) -> str:
    """a / b in lowest terms, written "0" when a is 0."""
    g = gcd(a, b)
    return f"{a // g}/{b // g}" if a else "0"


# ---------------------------------------------------------------------------
# the X-side action


def x_action(m_y: Matrix) -> Matrix:
    """The X-side matrix of a Y-side lattice automorphism (contragredient)."""
    return transpose(mat_inv_unimodular(m_y))


def x_preserves(m_y: Matrix, vectors: set) -> bool:
    """Whether the X-side action of m_y maps the finite set ``vectors`` of
    X-vectors onto itself.

    That action is the inverse transpose of m_y, and a bijection maps a
    finite set into itself exactly when its inverse does, so transpose(m_y)
    is tested instead and no inverse is computed.
    """
    back = transpose(m_y)
    return all(mat_vec(back, v) in vectors for v in vectors)


# ---------------------------------------------------------------------------
# named constructions

def _close_roots(simple_roots, simple_coroots):
    """Generate the full root list from the simples by reflection closure.

    Returns (roots, coroots, simple_indices) with matched indexing and the
    simples listed first.
    """
    pairs = list(zip(simple_roots, simple_coroots))
    changed = True
    while changed:
        changed = False
        for a, av in list(pairs):
            for b, bv in list(pairs):
                k = sum(x * y for x, y in zip(b, av))  # <b, a^>
                rb = tuple(x - k * y for x, y in zip(b, a))
                rbv = tuple(x - sum(p * q for p, q in zip(a, bv)) * y
                            for x, y in zip(bv, av))
                if (rb, rbv) not in pairs:
                    pairs.append((rb, rbv))
                    changed = True
    roots = tuple(p[0] for p in pairs)
    coroots = tuple(p[1] for p in pairs)
    return roots, coroots, tuple(range(len(simple_roots)))


# other names of a supported type: C2 and B2 are one root system
TYPE_ALIASES = {"C2": "B2"}

_SC_SIMPLES = {
    # type -> (simple roots in X, simple coroots in Y), as many as the rank
    "A1": (((2,),), ((1,),)),
    "A2": (((2, -1), (-1, 2)), ((1, 0), (0, 1))),
    "B2": (((1, -1), (0, 2)), ((1, -1), (0, 1))),  # Sp4 coordinates
    "G2": (((2, -1), (-3, 2)), ((1, 0), (0, 1))),
}

# type -> the primes p for which F_q, q a power of p, is refused
_BAD_PRIMES = {"A1": (), "A2": (), "B2": (2,), "G2": (2, 3)}


def parse_type(type_str: str) -> tuple[tuple[str, ...], int]:
    """The simple factors, aliases resolved, and the central torus rank of a
    type string: ``T<r>``, or ``X1x...xXk`` optionally followed by ``+T<r>``
    (torus rank 0 when there is none).  Each factor is one of A1, A2, B2/C2
    and G2, their ranks adding up to at most 4 (so |W| <= 144), and a torus
    has rank 1 to 6.  Anything else is refused.  This is the one reader of a
    type string."""
    head, plus, tail = type_str.partition("+")
    torus = 0
    if plus:
        if not tail.startswith("T"):
            raise ConfigError(f"bad type suffix {tail!r}; only +T<r> is supported")
        torus = _torus_rank(tail)
    elif head.startswith("T"):
        return (), _torus_rank(head)
    factors = tuple(TYPE_ALIASES.get(f, f) for f in head.split("x"))
    if not set(factors) <= _SC_SIMPLES.keys():
        raise UnsupportedTypeError(
            f"type {type_str!r} is outside the supported menu (T<r>, or a "
            "product X1x...xXk of A1, A2, B2/C2 and G2, optionally +T<r>)")
    if sum(len(_SC_SIMPLES[f][1]) for f in factors) > 4:
        raise UnsupportedTypeError(
            f"type {type_str!r} has semisimple rank above 4")
    return factors, torus


def _torus_rank(torus: str) -> int:
    """The rank r of a torus ``T<r>``, from 1 to 6, written in ASCII digits
    without a leading zero."""
    text = torus[1:]
    if not (text.isascii() and text.isdigit() and str(int(text)) == text):
        raise ConfigError(f"bad torus {torus!r}")
    rank = int(text)
    if not 1 <= rank <= 6:
        raise UnsupportedTypeError("torus rank must be between 1 and 6")
    return rank


def _gl_datum(n: int) -> RootDatum:
    roots = []
    for i in range(n):
        for j in range(n):
            if i != j:
                v = [0] * n
                v[i], v[j] = 1, -1
                roots.append(tuple(v))
    roots_t = tuple(roots)
    simples = tuple(
        roots_t.index(tuple(1 if k == i else (-1 if k == i + 1 else 0) for k in range(n)))
        for i in range(n - 1)
    )
    return RootDatum(n, roots_t, roots_t, simples, "")


def dual_datum(datum: RootDatum) -> RootDatum:
    """Swap roots and coroots, keeping the index correspondence."""
    return RootDatum(
        rank=datum.rank,
        roots=datum.coroots,
        coroots=datum.roots,
        simple_indices=datum.simple_indices,
        cartan_label=datum.cartan_label,
    )


def _sublattice_datum(base: RootDatum, basis_rows) -> RootDatum:
    """Pass to the sublattice of X spanned by the given rows (old coordinates).

    The sublattice must still contain every root; coroots move to the dual
    overlattice.  New coordinates: the roots become the rows of the integral
    C with C @ basis = roots, a coroot y becomes basis @ y.
    """
    b = _int_matrix(basis_rows, base.rank, "sublattice basis")
    if det(b) == 0:
        raise ConfigError("sublattice basis is singular")
    new_roots = solve_integral(b, base.roots)
    if new_roots is None:
        raise ConfigError("sublattice does not contain all roots")
    new_coroots = [mat_vec(b, y) for y in base.coroots]
    return RootDatum(base.rank, new_roots, tuple(new_coroots),
                     base.simple_indices, base.cartan_label)


def _build_datum(factors: tuple[str, ...], torus: int, isogeny) -> RootDatum:
    """The datum of the type ``parse_type`` reads as ``(factors, torus)``,
    in the given isogeny, with the central torus in the last coordinates."""
    label = "x".join(factors)
    if not factors and isogeny not in (None, "sc", "ad"):
        raise ConfigError("tori take no isogeny")
    # the simply connected datum of a product is the block sum of its factors
    rank = sum(len(_SC_SIMPLES[f][1]) for f in factors)
    simples, cosimples = [], []
    for f in factors:
        before = (0,) * len(simples)
        after = (0,) * (rank - len(before) - len(_SC_SIMPLES[f][1]))
        simples += [before + r + after for r in _SC_SIMPLES[f][0]]
        cosimples += [before + c + after for c in _SC_SIMPLES[f][1]]
    semisimple = RootDatum(rank, *_close_roots(simples, cosimples), "")
    if isogeny is None or isogeny == "sc":
        base = semisimple
    elif isogeny == "ad":
        # the adjoint form is the dual of the simply connected form of the
        # dual type; all supported types are self-dual as Weyl types
        base = dual_datum(semisimple)
    elif isogeny == "gl":
        if factors not in (("A1",), ("A2",)):
            raise UnsupportedTypeError(
                f"GL-style isogeny is only available for A1 and A2, not {label}")
        base = _gl_datum(rank + 1)
    elif isinstance(isogeny, (list, tuple)):
        base = _sublattice_datum(semisimple, isogeny)
    else:
        raise ConfigError(f"unknown isogeny {isogeny!r}")
    # GL's centre is one more torus coordinate
    central = torus + (isogeny == "gl")
    if central:
        label = f"{label}+T{central}" if label else f"T{central}"
    pad = (0,) * torus
    return RootDatum(base.rank + torus, tuple(r + pad for r in base.roots),
                     tuple(c + pad for c in base.coroots), base.simple_indices,
                     label)


# ---------------------------------------------------------------------------
# twists and component groups

def _is_root_permuting(datum: RootDatum, m_y: Matrix) -> bool:
    co_set = set(datum.coroots)
    return (x_preserves(m_y, set(datum.roots))
            and all(mat_vec(m_y, c) in co_set for c in datum.coroots))


def _is_based(datum: RootDatum, m_y: Matrix) -> bool:
    return x_preserves(m_y, set(datum.simple_roots))


MAX_TWIST_ORDER = 48


def _matrix_order(m: Matrix) -> int:
    n = len(m)
    acc = m
    for k in range(1, MAX_TWIST_ORDER + 1):
        if acc == identity(n):
            return k
        acc = mat_mul(acc, m)
    raise ConfigError("twist matrix does not have small finite order")


def _twist_from_permutation(datum: RootDatum, perm) -> Matrix:
    """The lattice matrix sending simple coroot i to simple coroot perm[i].

    Pinned extension: it exists and is unique exactly when the simple coroots
    form a Q-basis of Y; otherwise the caller must supply a matrix.
    """
    k = len(datum.simple_indices)
    n = datum.rank
    if any(type(i) is not int for i in perm) or sorted(perm) != list(range(k)):
        raise ConfigError("twist permutation must permute the simple roots")
    cosimples = datum.simple_coroots
    if k != n or det(tuple(cosimples)) == 0:
        raise ConfigError(
            "twist permutations need the simple coroots to form a basis of the "
            "cocharacter lattice; give the twist as an explicit matrix instead")
    # sigma @ src = dst with src columns the cosimples
    src = transpose(tuple(cosimples))
    dst = transpose(tuple(cosimples[perm[i]] for i in range(k)))
    sigma = solve_integral(src, dst)
    if sigma is None:
        raise ConfigError("twist permutation does not extend to the lattice")
    return sigma


# ---------------------------------------------------------------------------
# the parser

def _int_matrix(value, n: int, what: str) -> Matrix:
    """An n x n matrix given as nested lists of Python ints, else ConfigError."""
    if not (isinstance(value, (list, tuple)) and len(value) == n
            and all(isinstance(row, (list, tuple)) and len(row) == n
                    and all(type(x) is int for x in row) for row in value)):
        raise ConfigError(f"{what} must be a {n}x{n} matrix of integers")
    return tuple(tuple(row) for row in value)


NAMED_SPECS = {
    "sl2": {"type": "A1", "isogeny": "sc"},
    "gl2": {"type": "A1", "isogeny": "gl"},
    "pgl2": {"type": "A1", "isogeny": "ad"},
    "gl3": {"type": "A2", "isogeny": "gl"},
    "sp4": {"type": "B2", "isogeny": "sc"},
    "g2": {"type": "G2"},
    "torus1": {"type": "T1"},
    "o2": {"type": "T1", "component_group": [[[-1]]]},
}

_ALLOWED_KEYS = {"type", "isogeny", "q", "twist", "component_group"}


def parse_group_spec(config, q: int | None = None) -> GroupSpec:
    """Build a validated GroupSpec from a config dict or a shortcut name.

    ``q`` overrides any q inside the config.  Unknown keys are rejected.
    """
    name = None
    if isinstance(config, str):
        name = config
        if config not in NAMED_SPECS:
            raise ConfigError(f"unknown group shortcut {config!r}; "
                              f"known: {', '.join(sorted(NAMED_SPECS))}")
        config = dict(NAMED_SPECS[config])
    if not isinstance(config, dict):
        raise ConfigError("group description must be a dict or a shortcut name")
    unknown = set(config) - _ALLOWED_KEYS
    if unknown:
        raise ConfigError(f"unknown keys in group description: {sorted(unknown)}")
    if "type" not in config:
        raise ConfigError("group description needs a 'type'")
    type_str = config["type"]
    if not isinstance(type_str, str):
        raise ConfigError("'type' must be a string")

    factors, torus = parse_type(type_str)
    datum = _build_datum(factors, torus, config.get("isogeny"))

    q_eff = q if q is not None else config.get("q")
    if q_eff is None:
        raise ConfigError("q is required (config key 'q' or the --q flag)")
    if not isinstance(q_eff, int):
        raise ConfigError("q must be an integer")
    if q_eff - 1 > MAX_TORSION_POINTS:
        # sigma w has finite order, so each |det(q sigma w - 1)| is at least
        # (q - 1)^rank, and every datum has rank >= 1
        raise UnsupportedTypeError(
            f"q = {q_eff} gives at least q - 1 torsion points; "
            f"the limit is {MAX_TORSION_POINTS}")
    p, _ = prime_power(q_eff)
    bad = {b for f in factors for b in _BAD_PRIMES[f]}
    if p in bad:
        raise UnsupportedTypeError(
            f"p = {p} is a bad prime for type {datum.cartan_label}; "
            f"supported q for this type avoid {sorted(bad)}")

    twist_cfg = config.get("twist")
    n = datum.rank
    if twist_cfg is None:
        sigma = identity(n)
    elif isinstance(twist_cfg, (list, tuple)) and twist_cfg and \
            isinstance(twist_cfg[0], (list, tuple)):
        sigma = _int_matrix(twist_cfg, n, "twist matrix")
    elif isinstance(twist_cfg, (list, tuple)):
        sigma = _twist_from_permutation(datum, list(twist_cfg))
    else:
        raise ConfigError("twist must be a permutation list or a matrix")
    if abs(det(sigma)) != 1:
        raise ConfigError("twist must be a lattice automorphism")
    if not _is_root_permuting(datum, sigma) or not _is_based(datum, sigma):
        raise ConfigError("twist must permute the roots and preserve the simple roots")
    _matrix_order(sigma)
    twist = FrobeniusTwist(q=q_eff, p=p, sigma_y=sigma)

    comp_cfg = config.get("component_group")
    if comp_cfg is None:
        components = (identity(n),)
    else:
        if not isinstance(comp_cfg, (list, tuple)):
            raise ConfigError("component_group must be a list of matrices")
        gens = [_int_matrix(m, n, "component matrix") for m in comp_cfg]
        for g in gens:
            if abs(det(g)) != 1:
                raise ConfigError("component matrices must be lattice automorphisms")
            if not _is_root_permuting(datum, g):
                raise ConfigError("component matrices must permute the roots")
        try:
            components = tuple(sorted(
                closure(gens, lambda block, g: [mat_mul(a, g) for a in block],
                        [identity(n)], 256).elements))
        except ValueError:
            raise ConfigError("component group is too large") from None
        _validate_components(datum, twist, components)

    spec_name = name or type_str
    return GroupSpec(datum=datum, twist=twist, components=components,
                     name=spec_name)


def _validate_components(datum: RootDatum, twist: FrobeniusTwist, components):
    weyl = set(enumerate_weyl(datum).elements)
    for g in components:
        if g != identity(datum.rank) and g in weyl:
            raise ConfigError(
                "component matrices must meet the reflection group only in the identity")
        # the twist must fix every component (trivial action on the component set)
        conj = mat_mul(mat_mul(twist.sigma_y, g), mat_inv_unimodular(twist.sigma_y))
        hits = [h for h in components if mat_mul(conj, mat_inv_unimodular(h)) in weyl]
        if not hits:
            raise ConfigError("twist does not preserve the component group")
        if hits != [g]:
            raise ConfigError("twist must fix every component")


# ---------------------------------------------------------------------------
# centralizer subsystems

class SubSystem(namedtuple("SubSystem", "ambient root_positions positive_positions "
                                        "simple_positions factors factor_types")):
    """The roots of the ambient datum pairing integrally with a torsion point.

    ``positions`` index into ambient.roots; simples are the indecomposable
    positive elements with positivity inherited from the ambient system.
    Factors are the connected components of the simple-root graph, ordered by
    their smallest ambient root index; ``factors`` partitions
    ``range(len(simple_positions))``.
    """
    __slots__ = ()

    @property
    def label(self) -> str:
        if not self.factor_types:
            return "T"
        return "x".join(self.factor_types)

    def as_datum(self) -> RootDatum:
        """The subsystem as a root datum on the ambient lattices."""
        return RootDatum(
            rank=self.ambient.rank,
            roots=tuple(self.ambient.roots[i] for i in self.root_positions),
            coroots=tuple(self.ambient.coroots[i] for i in self.root_positions),
            simple_indices=tuple(self.root_positions.index(i)
                                 for i in self.simple_positions),
            cartan_label=self.label,
        )


def factor_permutation(sub: SubSystem, m_y: Matrix) -> tuple[int, ...]:
    """Permutation of the subsystem factors induced by a based automorphism:
    factor i goes to factor out[i], so ``groups.permuted`` moves a tuple of
    per-factor entries by it.

    transpose(m_y) is the inverse of the X-side action, so it carries each
    simple root t back to the simple that maps onto t; that simple's factor
    goes to the factor of t.
    """
    roots = sub.ambient.roots
    factor_of = {roots[sub.simple_positions[s]]: fi
                 for fi, comp in enumerate(sub.factors) for s in comp}
    back = transpose(m_y)
    out = {}
    for t, fi in factor_of.items():
        source = factor_of.get(mat_vec(back, t))
        if source is None:
            raise InvariantError("matrix does not preserve the subsystem simples")
        if out.setdefault(source, fi) != fi:
            raise InvariantError("factor permutation tears a factor apart")
    perm = tuple(out.get(fi, -1) for fi in range(len(sub.factors)))
    if sorted(perm) != list(range(len(perm))):
        raise InvariantError("factor map is not a permutation")
    if any(sub.factor_types[fi] != sub.factor_types[gi] for fi, gi in enumerate(perm)):
        raise InvariantError("factor permutation changes the type")
    return perm


def _classify_component(datum: RootDatum, simple_positions, comp) -> str:
    if len(comp) == 1:
        return "A1"
    if len(comp) == 2:
        i, j = (simple_positions[c] for c in comp)
        nij = datum.pairing(datum.roots[i], datum.coroots[j])
        nji = datum.pairing(datum.roots[j], datum.coroots[i])
        prod = nij * nji
        if prod == 1:
            return "A2"
        if prod == 2:
            return "B2"
        if prod == 3:
            return "G2"
    raise UnsupportedTypeError(
        f"centralizer subsystem of rank {len(comp)} outside the supported menu")


@memo
def centralizer_subdatum(datum: RootDatum, positions: tuple[int, ...]) -> SubSystem:
    """Subsystem of the roots at ``positions``: the roots integral at a torsion
    point, as ``stable_point_orbits`` lists them.  The point itself is not
    an input, so the subsystem depends on it only through these positions,
    and as a ``groups.memo`` function it is built once per positions in a
    pipeline call."""
    pos_all = set(datum.positive_indices)
    positive = tuple(i for i in positions if i in pos_all)
    pos_vectors = {datum.roots[i] for i in positive}
    simple_positions = []
    for i in positive:
        r = datum.roots[i]
        decomposable = any(
            tuple(a - b for a, b in zip(r, other)) in pos_vectors
            for other in pos_vectors if other != r
        )
        if not decomposable:
            simple_positions.append(i)
    simple_positions = tuple(sorted(simple_positions))
    k = len(simple_positions)
    # the Dynkin graph is symmetric, so its strong components are its
    # connected components; simple_positions is sorted, so listing them by
    # least member orders them by smallest ambient root index
    adj = [{b for b in range(k) if b != a and datum.pairing(
                datum.roots[simple_positions[a]],
                datum.coroots[simple_positions[b]]) != 0}
           for a in range(k)]
    factors = strong_components(adj)
    types = tuple(_classify_component(datum, simple_positions, c) for c in factors)
    return SubSystem(
        ambient=datum,
        root_positions=positions,
        positive_positions=positive,
        simple_positions=simple_positions,
        factors=tuple(factors),
        factor_types=types,
    )


# ---------------------------------------------------------------------------
# Frobenius-stable torsion points of the dual torus

MAX_TORSION_POINTS = 10 ** 6


class TorusOrbit(namedtuple("TorusOrbit", "rep orbit modulus key")):
    """An orbit of torsion points of the dual torus; each point v stands
    for v / modulus and ``rep`` is the least point.  ``key`` is the orbit's
    semisimple type (see ``stable_point_orbits``): each pipeline builds its
    strata from the key and reads nothing else of the orbit but its
    label."""
    __slots__ = ()

    def label(self) -> str:
        return point_label(self.rep, self.modulus)


@memo
def acting_group(spec: GroupSpec) -> tuple[CoxeterGroup, tuple[Matrix, ...]]:
    """The dual Weyl group W* and the matrices of W* extended by the
    component group, listed component-major with each coset in W*'s order:
    for a connected spec, W*'s elements."""
    cox = enumerate_weyl(dual_datum(spec.datum))
    acting = tuple(mat_mul(x_action(g), w)
                   for g in spec.components for w in cox.elements)
    if len(set(acting)) != len(acting):
        raise InvariantError("component coset collides with the reflection group")
    return cox, acting


def stable_point_orbits(spec: GroupSpec) -> list[TorusOrbit]:
    """Orbits of the spec's ``acting_group`` on the torsion points s of the
    dual torus with q sigma w (s) = s for some w in the dual Weyl group W*.

    Every point is an integer vector v with s = v / N, where N is the lcm
    over w of |det(q sigma w - 1)|.  Specs whose solution count
    sum_w |det(q sigma w - 1)| exceeds MAX_TORSION_POINTS are refused before
    anything is solved.

    The points are visited once, in sorted order, so the first point seen in
    each orbit is its least point and the orbits come out sorted by it.  All
    images of that point come from one pass over the rows of every acting
    matrix, stacked into one list, and are regrouped by rank.  One pass of
    the rows of q sigma and the dual roots, stacked, gives F(s) and every
    <alpha, s> mod N.  The orbit's type key is read off these at once: the
    positions in the dual datum of the roots integral at s, the indices in
    the acting matrices of the stabilizer of s, and the index in W*'s
    elements of the first w with w(s) = F(s), or None when there is none.
    """
    cox, acting = acting_group(spec)
    sigma, q = spec.twist.sigma_x, spec.q
    n = len(sigma)
    systems = []
    for w in cox.elements:
        m = mat_mul(sigma, w)
        systems.append(tuple(tuple(q * m[i][j] - (1 if i == j else 0) for j in range(n))
                             for i in range(n)))
    dets = [abs(det(a)) for a in systems]
    if sum(dets) > MAX_TORSION_POINTS:
        raise UnsupportedTypeError(
            f"{spec.name} at q = {q} needs up to {sum(dets)} torsion points; "
            f"the limit is {MAX_TORSION_POINTS}")
    modulus = lcm(*dets)
    points = sorted({v for a in systems for v in solve_torsion(a, modulus)})
    rows = [row for g in acting for row in g]
    key_rows = [tuple(q * x for x in row) for row in sigma] + list(cox.datum.roots)
    # the identity component's coset is W* itself, in W*'s order
    start = spec.components.index(identity(n)) * cox.order

    def images(v):
        values = [sum(map(mul, row, v)) % modulus for row in rows]
        return tuple(zip(*[iter(values)] * n))

    out = []
    for rep, imgs in orbits(points, images):
        values = [sum(map(mul, row, rep)) % modulus for row in key_rows]
        target = tuple(values[:n])
        weyl_imgs = imgs[start:start + cox.order]
        stab = tuple(i for i, v in enumerate(imgs) if v == rep)
        witness = weyl_imgs.index(target) if target in weyl_imgs else None
        key = (tuple(i for i, x in enumerate(values[n:]) if x == 0), stab, witness)
        out.append(TorusOrbit(rep, tuple(sorted(set(imgs))), modulus, key))
    return out


# ---------------------------------------------------------------------------
# Whittaker normalization data

def whittaker_torsor_size(spec: GroupSpec) -> int:
    """Size of the torsor of Whittaker normalizations: the number of
    Frobenius-fixed classes in the torsion of X / (root lattice).

    A torsion class is sum_i c_i alpha_i over the simple roots, with c in
    (Q/Z)^r and the sum in X.  Pairing the sum with the simple coroots shows
    K c is integral for K[j][i] = <alpha_i, alpha_j^>, so the classes are
    among the |det K| solutions of that Cartan system.  Frobenius q sigma
    sends alpha_i to q alpha_pi(i), so it fixes c when q c_i = c_pi(i).  A
    fixed c solves (q P - 1) c = 0 for the permutation matrix P of pi, and
    det(q P - 1) = det(-1) mod p, so every fixed class has order prime to p.
    Counts never depend on the choice; the size is reported so that the
    normalization ambiguity is visible.
    """
    d = spec.datum
    simples = d.simple_roots
    cartan = tuple(tuple(d.pairing(a, b) for a in simples) for b in d.simple_coroots)
    pi = [simples.index(mat_vec(spec.twist.sigma_x, a)) for a in simples]
    modulus = abs(det(cartan))  # each c comes as the integer vector modulus * c
    count = 0
    for c in solve_torsion(cartan):
        in_x = all(sum(ci * a[t] for ci, a in zip(c, simples)) % modulus == 0
                   for t in range(d.rank))
        if in_x and all(spec.q * c[i] % modulus == c[pi[i]] for i in range(len(c))):
            count += 1
    return count
