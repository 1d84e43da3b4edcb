"""A scan of the acting group at a torus point: the reference for the type
key ``rootdata.stable_point_orbits`` hands over with each orbit."""

from lpackets.lattice import mat_vec
from lpackets.rootdata import acting_group


def mat_vec_mod(a, v, n):
    """a v with entries reduced to [0, n): the action of an integer matrix
    on the torsion point v / n."""
    return tuple(x % n for x in mat_vec(a, v))


def frobenius(spec, rep, modulus):
    return tuple(spec.q * x % modulus for x in mat_vec(spec.twist.sigma_x, rep))


def key_by_scan(spec, orbit):
    """The type key at the orbit's least point s: the roots integral at s,
    the positions in ``acting_group(spec)``'s matrices that fix s, and the
    position in the dual Weyl group of the first w with w(s) = q sigma(s)."""
    cox, acting = acting_group(spec)
    rep, modulus = orbit.rep, orbit.modulus
    integral = tuple(i for i, r in enumerate(cox.datum.roots)
                     if sum(a * b for a, b in zip(r, rep)) % modulus == 0)
    stab = tuple(i for i, g in enumerate(acting)
                 if mat_vec_mod(g, rep, modulus) == rep)
    target = frobenius(spec, rep, modulus)
    witness = next((i for i, w in enumerate(cox.elements)
                    if mat_vec_mod(w, rep, modulus) == target), None)
    return integral, stab, witness
