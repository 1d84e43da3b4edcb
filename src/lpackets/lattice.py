"""Exact integer lattice algebra.

Everything downstream (root data, Weyl enumeration, torsion-point solving)
works with integer matrices and integer vectors, so all counts are exact.
Matrices are tuples of row tuples; vectors are tuples.  A torsion point s of
(Q/Z)^n is an integer vector v with entries in [0, N) for a modulus N that
the caller fixes, standing for s = v / N; with one N shared by all points,
integer order on the vectors is the order of the points.  Both solvers go
through the integer adjugate: square rational systems as rows @ adj(a) /
det(a), and the torsion-point solver as the group that the columns of
adj(a) / det(a) generate.

``mat_mul`` and ``mat_inv_unimodular`` are ``groups.memo`` functions: inside
one pipeline call each distinct product and inverse is computed once, as
the reflection groups, stabilizers and Frobenius cosets of one spec repeat
them.
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


def det(a: Matrix) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def adjugate(m: Matrix) -> Matrix:
    """adj(m), so that m @ adj(m) = det(m) * 1, by cofactors."""
    n = len(m)
    return tuple(
        tuple((-1) ** (i + j) * det(tuple(
            tuple(m[r][c] for c in range(n) if c != i)
            for r in range(n) if r != j))
            for j in range(n))
        for i in range(n))


def solve_integral(a: Matrix, rows) -> Matrix | None:
    """The integer x with x @ a = rows, for a square nonsingular a; None when
    x is not integral.

    x = rows @ adj(a) / det(a), so the solve is integer arithmetic.
    """
    d = det(a)
    scaled = mat_mul(rows, adjugate(a))
    if any(x % d for row in scaled for x in row):
        return None
    return tuple(tuple(x // d for x in row) for row in scaled)


@memo
def mat_inv_unimodular(a: Matrix) -> Matrix:
    """Inverse of an integer matrix with determinant +-1.

    Integer row reduction of [a | 1]: a Euclidean pass leaves the gcd of each
    column's remaining entries in the pivot, which is +-1 exactly when a is
    unimodular.
    """
    n = len(a)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        while True:
            rows = [r for r in range(col, n) if aug[r][col] != 0]
            if not rows:
                raise InvariantError("matrix is not unimodular")
            piv = min(rows, key=lambda r: abs(aug[r][col]))
            aug[col], aug[piv] = aug[piv], aug[col]
            pv = aug[col][col]
            done = True
            for r in range(col + 1, n):
                f = aug[r][col] // pv
                if f:
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
                done = done and aug[r][col] == 0
            if done:
                break
        if abs(pv) != 1:
            raise InvariantError("matrix is not unimodular")
        if pv < 0:
            aug[col] = [-x for x in aug[col]]
        for r in range(col):
            f = aug[r][col]
            if f:
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def solve_torsion(a: Matrix, modulus: int | None = None) -> list[Vector]:
    """All s in (Q/Z)^n with a @ s integral, for a nonsingular integer a.

    Each s is returned as the integer vector v = modulus * s with entries in
    [0, modulus).  ``modulus`` defaults to abs(det(a)) and must be a multiple
    of it: a @ s integral means det(a) * s is integral.  The vectors come
    sorted, and there are exactly abs(det(a)) of them.
    """
    d = det(a)
    if d == 0:
        raise InvariantError("singular system has infinitely many torsion solutions")
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
    for col in zip(*adjugate(a)):
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
