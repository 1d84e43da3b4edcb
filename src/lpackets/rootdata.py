"""Root data, Frobenius twists, and group descriptions.

A root datum is stored with explicit dual bases: the character lattice X and
cocharacter lattice Y are both Z^rank and the pairing is the dot product, so
an isogeny choice is a choice of coordinates for the roots and coroots.
Reflections act on Y by y -> y - <alpha, y> alpha^ and on X contragrediently;
all Weyl elements downstream are carried as Y-matrices.

Torsion points of the dual torus live in Y tensor Q/Z.  A point s is carried
as an integer vector v with entries in [0, N), s = v / N, where the modulus N
is fixed once per spec before any solving (see ``stable_point_orbits``), so
every Weyl action, integrality test and comparison is integer arithmetic mod
N.  ``point_label`` is the one place a point becomes a fraction.  The same
solver feeds both counting pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm
from operator import mul

from .coxeter import enumerate_weyl
from .errors import ConfigError, InvariantError, UnsupportedTypeError
from .fq import prime_power
from .groups import closure, orbits, strong_components
from .lattice import (
    Matrix,
    Vector,
    adjugate,
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
    "integral_root_positions", "TorusOrbit", "frobenius_point",
    "stable_point_orbits", "whittaker_torsor_size", "MAX_TORSION_POINTS",
    "x_action", "x_preserves", "NAMED_SPECS",
]


@dataclass(frozen=True)
class RootDatum:
    rank: int
    roots: tuple[Vector, ...]
    coroots: tuple[Vector, ...]
    simple_indices: tuple[int, ...]
    cartan_label: str

    def pairing(self, x, y):
        return sum(map(mul, x, y))

    @property
    def simple_roots(self):
        return tuple(self.roots[i] for i in self.simple_indices)

    @property
    def simple_coroots(self):
        return tuple(self.coroots[i] for i in self.simple_indices)

    def __post_init__(self):
        if len(self.roots) != len(self.coroots):
            raise InvariantError("roots and coroots must be matched in length")
        for i in self.simple_indices:
            if self.pairing(self.roots[i], self.coroots[i]) != 2:
                raise InvariantError("simple root paired with its coroot must give 2")

    @cached_property
    def positive_indices(self) -> tuple[int, ...]:
        """Indices of the roots lying in the nonnegative span of the simples.

        A root r is sum_i c_i alpha_i with c = <r, simple coroots> C^-1 for the
        Cartan matrix C; scaled by det C that is integer arithmetic.
        """
        simples = self.simple_roots
        cartan = tuple(tuple(self.pairing(a, b) for b in self.simple_coroots)
                       for a in simples)
        d = det(cartan)
        if d == 0:
            raise InvariantError("simple roots are linearly dependent")
        adj = adjugate(cartan)
        out = []
        for i, root in enumerate(self.roots):
            pairings = [self.pairing(root, b) for b in self.simple_coroots]
            scaled = [sum(p * adj[j][k] for j, p in enumerate(pairings))
                      for k in range(len(simples))]  # d * c
            if tuple(d * x for x in root) != tuple(
                    sum(c * a[t] for c, a in zip(scaled, simples))
                    for t in range(self.rank)):
                raise InvariantError("root outside the span of the simple roots")
            if all(c * d >= 0 for c in scaled):
                out.append(i)
        if 2 * len(out) != len(self.roots):
            raise InvariantError("positive roots are not half of all roots")
        return tuple(out)


@dataclass(frozen=True)
class FrobeniusTwist:
    q: int
    p: int
    sigma_y: Matrix  # finite-order action on Y, permuting the coroots

    @cached_property
    def sigma_x(self) -> Matrix:
        return x_action(self.sigma_y)


@dataclass(frozen=True)
class GroupSpec:
    datum: RootDatum
    twist: FrobeniusTwist
    components: tuple[Matrix, ...]  # Y-matrices of the component group (identity included)
    name: str

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


def _datum_from_simples(simples, cosimples, rank, label) -> RootDatum:
    roots, coroots, s_idx = _close_roots(simples, cosimples)
    return RootDatum(rank, roots, coroots, s_idx, label)


def _torus(rank: int) -> RootDatum:
    return RootDatum(rank, (), (), (), f"T{rank}")


_SC_SIMPLES = {
    # type -> (simple roots in X, simple coroots in Y, rank)
    "A1": (((2,),), ((1,),), 1),
    "A2": (((2, -1), (-1, 2)), ((1, 0), (0, 1)), 2),
    "B2": (((1, -1), (0, 2)), ((1, -1), (0, 1)), 2),  # Sp4 coordinates
    "G2": (((2, -1), (-3, 2)), ((1, 0), (0, 1)), 2),
    "A1xA1": (((2, 0), (0, 2)), ((1, 0), (0, 1)), 2),
}

_GL_DATA = {
    # GL-style: roots e_i - e_j in X = Y = Z^n, coroots the same vectors
    "A1": 2,
    "A2": 3,
}


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
    return RootDatum(n, roots_t, roots_t, simples, f"A{n - 1}+T1")


def dual_datum(datum: RootDatum) -> RootDatum:
    """Swap roots and coroots, keeping the index correspondence."""
    return RootDatum(
        rank=datum.rank,
        roots=datum.coroots,
        coroots=datum.roots,
        simple_indices=datum.simple_indices,
        cartan_label=datum.cartan_label,
    )


def _sublattice_datum(base: RootDatum, basis_rows, label) -> RootDatum:
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
                     base.simple_indices, label)


def _append_torus(datum: RootDatum, extra: int) -> RootDatum:
    pad = (0,) * extra
    label = datum.cartan_label
    if extra:
        if "+T" in label:
            head, tail = label.rsplit("+T", 1)
            label = f"{head}+T{int(tail) + extra}"
        else:
            label = f"{label}+T{extra}"
    return RootDatum(
        rank=datum.rank + extra,
        roots=tuple(r + pad for r in datum.roots),
        coroots=tuple(c + pad for c in datum.coroots),
        simple_indices=datum.simple_indices,
        cartan_label=label,
    )


def _build_datum(base_type: str, isogeny) -> RootDatum:
    if base_type.startswith("T"):
        try:
            r = int(base_type[1:])
        except ValueError:
            raise ConfigError(f"bad torus type {base_type!r}")
        if not 1 <= r <= 6:
            raise UnsupportedTypeError("torus rank must be between 1 and 6")
        if isogeny not in (None, "sc", "ad"):
            raise ConfigError("tori take no isogeny")
        return _torus(r)
    key = "B2" if base_type == "C2" else base_type
    if key not in _SC_SIMPLES:
        raise UnsupportedTypeError(
            f"type {base_type!r} is outside the supported menu "
            "(T<r>, A1, A1xA1, A2, B2/C2, G2, optionally +T<r>)")
    simples, cosimples, rank = _SC_SIMPLES[key]
    sc = _datum_from_simples(simples, cosimples, rank, key)
    if isogeny is None or isogeny == "sc":
        return sc
    if isogeny == "ad":
        # the adjoint form is the dual of the simply connected form of the
        # dual type; all supported types are self-dual as Weyl types
        return dual_datum(sc)
    if isogeny == "gl":
        if key not in _GL_DATA:
            raise UnsupportedTypeError(f"GL-style isogeny is only available for A1 and A2, not {key}")
        return _gl_datum(_GL_DATA[key])
    if isinstance(isogeny, (list, tuple)):
        return _sublattice_datum(sc, isogeny, key)
    raise ConfigError(f"unknown isogeny {isogeny!r}")


# ---------------------------------------------------------------------------
# twists and component groups

def _bad_primes(label: str) -> set[int]:
    bad = set()
    for factor in label.replace("+", "x").split("x"):
        if factor in ("B2", "C2"):
            bad.add(2)
        elif factor == "G2":
            bad.update((2, 3))
    return bad


def _is_root_permuting(datum: RootDatum, m_y: Matrix) -> bool:
    co_set = set(datum.coroots)
    return (x_preserves(m_y, set(datum.roots))
            and all(mat_vec(m_y, c) in co_set for c in datum.coroots))


def _is_based(datum: RootDatum, m_y: Matrix) -> bool:
    return x_preserves(m_y, set(datum.simple_roots))


def _matrix_order(m: Matrix, cap: int = 48) -> int:
    n = len(m)
    acc = m
    for k in range(1, cap + 1):
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

    extra_torus = 0
    base_type = type_str
    if "+" in type_str:
        base_type, tail = type_str.split("+", 1)
        if not tail.startswith("T"):
            raise ConfigError(f"bad type suffix {tail!r}; only +T<r> is supported")
        try:
            extra_torus = int(tail[1:])
        except ValueError:
            raise ConfigError(f"bad torus suffix {tail!r}")
        if extra_torus < 1 or extra_torus > 6:
            raise ConfigError("torus suffix rank must be between 1 and 6")

    datum = _build_datum(base_type, config.get("isogeny"))
    if extra_torus:
        datum = _append_torus(datum, extra_torus)

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
    bad = _bad_primes(datum.cartan_label)
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

@dataclass(frozen=True)
class SubSystem:
    """The roots of the ambient datum pairing integrally with a torsion point.

    ``positions`` index into ambient.roots; simples are the indecomposable
    positive elements with positivity inherited from the ambient system.
    Factors are the connected components of the simple-root graph, ordered by
    their smallest ambient root index.
    """

    ambient: RootDatum
    root_positions: tuple[int, ...]
    positive_positions: tuple[int, ...]
    simple_positions: tuple[int, ...]
    factors: tuple[tuple[int, ...], ...]  # partition of range(len(simple_positions))
    factor_types: tuple[str, ...]

    @property
    def label(self) -> str:
        if not self.factor_types:
            return "T"
        return "x".join(self.factor_types)

    def simple_roots(self):
        return tuple(self.ambient.roots[i] for i in self.simple_positions)

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

    def simple_permutation(self, m_y: Matrix) -> tuple[int, ...]:
        """How a subsystem-preserving based automorphism permutes the simples.

        transpose(m_y) is the inverse of the X-side action, so it carries
        each simple back to the simple that maps onto it.
        """
        back = transpose(m_y)
        simples = self.simple_roots()
        out = [None] * len(simples)
        for j, s in enumerate(simples):
            try:
                out[simples.index(mat_vec(back, s))] = j
            except ValueError:
                raise InvariantError("matrix does not preserve the subsystem simples")
        return tuple(out)

    def factor_of_simple(self, pos: int) -> int:
        for fi, comp in enumerate(self.factors):
            if pos in comp:
                return fi
        raise IndexError(pos)


def factor_permutation(sub: SubSystem, m_y: Matrix) -> tuple[int, ...]:
    """Permutation of the subsystem factors induced by a based automorphism."""
    sp = sub.simple_permutation(m_y)
    k = len(sub.factors)
    out = [None] * k
    for fi, comp in enumerate(sub.factors):
        targets = {sub.factor_of_simple(sp[pos]) for pos in comp}
        if len(targets) != 1:
            raise InvariantError("factor permutation tears a factor apart")
        out[fi] = targets.pop()
    if sorted(out) != list(range(k)):
        raise InvariantError("factor map is not a permutation")
    for fi in range(k):
        if sub.factor_types[fi] != sub.factor_types[out[fi]]:
            raise InvariantError("factor permutation changes the type")
    return tuple(out)


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


def integral_root_positions(datum: RootDatum, point: Vector,
                            modulus: int) -> tuple[int, ...]:
    """Indices of the roots alpha with <alpha, s> integral, for the point
    s = point / modulus of Y x Q/Z."""
    return tuple(i for i, r in enumerate(datum.roots)
                 if datum.pairing(r, point) % modulus == 0)


def centralizer_subdatum(datum: RootDatum, positions: tuple[int, ...]) -> SubSystem:
    """Subsystem of the roots at ``positions``: the roots integral at a torsion
    point, as ``integral_root_positions`` lists them.  The point itself is not
    an input, so the subsystem depends on it only through these positions."""
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


@dataclass(frozen=True)
class TorusOrbit:
    """An orbit of torsion points of the dual torus; each point v stands for
    v / modulus.  ``images`` is the one pass of the acting group over the
    least point; each pipeline reads the stabilizer and Frobenius witness of
    its type key off it, so no acting matrix is applied to the point again."""
    rep: Vector                  # least point of the orbit
    orbit: tuple[Vector, ...]
    modulus: int
    images: tuple[Vector, ...]   # g(rep) for g in the acting list, in order

    @property
    def orbit_size(self) -> int:
        return len(self.orbit)

    def label(self) -> str:
        return point_label(self.rep, self.modulus)


def frobenius_point(spec: GroupSpec, v: Vector, modulus: int) -> Vector:
    """q sigma (v) for a point v / modulus of the dual torus."""
    return tuple(spec.q * x % modulus for x in mat_vec(spec.twist.sigma_x, v))


def stable_point_orbits(spec: GroupSpec, weyl, acting) -> list[TorusOrbit]:
    """Orbits of the group ``acting`` on the torsion points s of the dual
    torus with q sigma w (s) = s for some w in ``weyl``.

    Every point is an integer vector v with s = v / N, where N is the lcm
    over w of |det(q sigma w - 1)|.  Specs whose solution count
    sum_w |det(q sigma w - 1)| exceeds MAX_TORSION_POINTS are refused before
    anything is solved.

    The points are visited once, in sorted order, so the first point seen in
    each orbit is its least point and the orbits come out sorted by it.  All
    images of that point come from one pass over the rows of every acting
    matrix, stacked into one list, and are regrouped by rank; the orbit keeps
    them, and no point is acted on twice.
    """
    sigma, q = spec.twist.sigma_x, spec.q
    n = len(sigma)
    systems = []
    for w in weyl:
        m = mat_mul(sigma, w)
        systems.append(tuple(tuple(q * m[i][j] - (1 if i == j else 0) for j in range(n))
                             for i in range(n)))
    dets = [abs(det(a)) for a in systems]
    if sum(dets) > MAX_TORSION_POINTS:
        raise UnsupportedTypeError(
            f"{spec.name} at q = {q} needs up to {sum(dets)} torsion points; "
            f"the limit is {MAX_TORSION_POINTS}")
    modulus = lcm(*dets)
    points = set()
    for a in systems:
        points.update(solve_torsion(a, modulus))
    rows = [row for g in acting for row in g]

    def images(v):
        values = [sum(map(mul, row, v)) % modulus for row in rows]
        return tuple(zip(*[iter(values)] * n))

    out = []
    for rep, imgs in orbits(sorted(points), images):
        if not points.issuperset(imgs):
            raise InvariantError("orbit leaks outside the solution set")
        out.append(TorusOrbit(rep=rep, orbit=tuple(sorted(set(imgs))),
                              modulus=modulus, images=imgs))
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
