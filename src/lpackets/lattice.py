"""Exact integer lattice algebra.

Everything downstream (root data, Weyl enumeration, torsion-point solving)
works with integer matrices and integer vectors, so all counts are exact.
Matrices are tuples of row tuples; vectors are tuples.  A torsion point s of
(Q/Z)^n is an integer vector v with entries in [0, N) for a modulus N that
the caller fixes, standing for s = v / N; with one N shared by all points,
integer order on the vectors is the order of the points.

One fraction-free elimination gives the determinant and the adjugate
together in O(n^3).  ``adjugate`` hands both on, and every inverse runs on
it: square rational systems as rows @ adj(a) / det(a), the torsion-point
solver as the group that the columns of adj(a) / det(a) generate, and the
unimodular inverse as det(a) * adj(a).

``mat_mul``, ``adjugate`` and ``mat_inv_unimodular`` are ``groups.memo``
functions: inside one pipeline call each distinct product, elimination and
inverse is computed once, as the reflection groups, stabilizers, Frobenius
cosets and torsion systems of one spec repeat them.
"""

from __future__ import annotations

from operator import add, mul

from .errors import InvariantError
from .groups import memo

Vector = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


@memo
def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return tuple(sum(map(mul, row, v)) for row in a)


def _eliminate(a: Matrix) -> tuple[int, Matrix | None]:
    """det(a), and adj(a) when a is nonsingular (else None), by
    fraction-free elimination (Bareiss, Math. Comp. 22, 1968).

    The elimination runs Gauss-Jordan style on [a | 1], every row but the
    pivot row cleared, and ends at [d' 1 | d' a^-1], d' the last pivot and
    the determinant of the row-swapped a.  After step k every entry is a
    (k+1)-minor of the matrix the elimination started from, so each
    division by the previous pivot is exact.
    """
    n = len(a)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0, None
        piv = m[k]
        pk = piv[k]
        for i in range(n):
            if i != k:
                row = m[i]
                f = row[k]
                for j in range(k + 1, 2 * n):
                    row[j] = (row[j] * pk - f * piv[j]) // prev
        prev = pk
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in m)


def det(a: Matrix) -> int:
    """Integer determinant."""
    return _eliminate(a)[0]


@memo
def adjugate(a: Matrix) -> tuple[int, Matrix]:
    """(det(a), adj(a)) of a nonsingular a, so that a @ adj(a) = det(a) * 1,
    from one elimination; a singular a is refused."""
    d, adj = _eliminate(a)
    if adj is None:
        raise InvariantError("singular matrix")
    return d, adj


def solve_integral(a: Matrix, rows) -> Matrix | None:
    """The integer x with x @ a = rows, for a square nonsingular a; None when
    x is not integral.

    x = rows @ adj(a) / det(a), so the solve is integer arithmetic.
    """
    d, adj = adjugate(a)
    scaled = mat_mul(rows, adj)
    if any(x % d for row in scaled for x in row):
        return None
    return tuple(tuple(x // d for x in row) for row in scaled)


@memo
def mat_inv_unimodular(a: Matrix) -> Matrix:
    """Inverse of an integer matrix with determinant +-1: det(a) * adj(a)."""
    d, adj = adjugate(a)
    if abs(d) != 1:
        raise InvariantError("matrix is not unimodular")
    return adj if d == 1 else tuple(tuple(-x for x in row) for row in adj)


def solve_torsion(a: Matrix, modulus: int | None = None) -> list[Vector]:
    """All s in (Q/Z)^n with a @ s integral, for a nonsingular integer a.

    Each s is returned as the integer vector v = modulus * s with entries in
    [0, modulus).  ``modulus`` defaults to abs(det(a)) and must be a multiple
    of it: a @ s integral means det(a) * s is integral.  The vectors come
    sorted, and there are exactly abs(det(a)) of them.
    """
    d, adj = adjugate(a)
    if modulus is None:
        modulus = abs(d)
    if modulus % d:
        raise InvariantError("modulus is not a multiple of the determinant")
    # the solutions are a^-1 Z^n / Z^n, generated by the columns of
    # adj(a) / det(a); each column c joins the group S found so far as the
    # cosets S + k c, for k up to the first multiple of c already in S.
    # ``members`` holds sols[:len(members)], brought up to date per column.
    wrap = modulus.__rmod__  # x -> x % modulus
    sols = [(0,) * len(a)]
    members = set()
    for col in zip(*adj):
        members.update(sols[len(members):])
        c = tuple(modulus // d * x % modulus for x in col)
        steps = []
        kc = c
        while kc not in members:
            steps.append(kc)
            kc = tuple(map(wrap, map(add, kc, c)))
        if len(sols) > 1:
            steps = [tuple(map(wrap, map(add, s, t))) for t in steps for s in sols]
        sols += steps
    if len(sols) != abs(d):
        raise InvariantError("torsion solutions do not number abs(det(a))")
    sols.sort()
    return sols
