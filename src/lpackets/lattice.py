"""Exact integer lattice algebra.

Everything downstream (root data, Weyl enumeration, torsion-point solving)
works with integer matrices and integer vectors, so all counts are exact.
Matrices are tuples of row tuples; vectors are tuples.  A torsion point s of
(Q/Z)^n is an integer vector v with entries in [0, N) for a modulus N that
the caller fixes, standing for s = v / N; with one N shared by all points,
integer order on the vectors is the order of the points.  The one nontrivial
algorithm here is Smith normal form with both unimodular transforms, which
drives the torsion-point solver; square rational systems go through the
integer adjugate instead.
"""

from __future__ import annotations

from operator import mul

from .errors import InvariantError

Vector = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return tuple(sum(map(mul, row, v)) for row in a)


def mat_vec_mod(a: Matrix, v: Vector, n: int) -> Vector:
    """Matrix times vector, entries reduced to [0, n): the action of an
    integer matrix on a torsion point v / n."""
    return tuple(sum(map(mul, row, v)) % n for row in a)


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


def smith_normal_form(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Return (d, u, v) with d = u @ a @ v, u and v unimodular, d diagonal
    with nonnegative entries d[0] | d[1] | ... down the diagonal."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [list(r) for r in a]
    u = [list(r) for r in identity(rows)]
    v = [list(r) for r in identity(cols)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, c):  # row[dst] += c * row[src]
        m[dst] = [x + c * y for x, y in zip(m[dst], m[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for r in m:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    def diagonalize():
        t = 0
        while t < min(rows, cols):
            piv = None
            for i in range(t, rows):
                for j in range(t, cols):
                    if m[i][j] != 0 and (piv is None or abs(m[i][j]) < abs(m[piv[0]][piv[1]])):
                        piv = (i, j)
            if piv is None:
                break
            swap_rows(t, piv[0])
            swap_cols(t, piv[1])
            while True:
                dirty = False
                for i in range(t + 1, rows):
                    if m[i][t] != 0:
                        add_row(t, i, -(m[i][t] // m[t][t]))
                        if m[i][t] != 0:  # remainder became the smaller pivot
                            swap_rows(t, i)
                            dirty = True
                for j in range(t + 1, cols):
                    if m[t][j] != 0:
                        add_col(t, j, -(m[t][j] // m[t][t]))
                        if m[t][j] != 0:
                            swap_cols(t, j)
                            dirty = True
                if not dirty:
                    break
            if m[t][t] < 0:
                negate_row(t)
            t += 1
        return t

    # diagonalize, then repair divisibility violations by coupling the two
    # diagonal entries and re-diagonalizing; each repair replaces (a, b) by
    # (gcd, lcm) so the loop terminates
    while True:
        t = diagonalize()
        violation = None
        for i in range(t - 1):
            if m[i + 1][i + 1] % m[i][i] != 0:
                violation = i
                break
        if violation is None:
            break
        add_col(violation + 1, violation, 1)

    d = tuple(tuple(m[i][j] for j in range(cols)) for i in range(rows))
    return d, tuple(tuple(r) for r in u), tuple(tuple(r) for r in v)


def solve_torsion(a: Matrix, modulus: int | None = None) -> list[Vector]:
    """All s in (Q/Z)^n with a @ s integral, for a nonsingular integer a.

    Each s is returned as the integer vector v = modulus * s with entries in
    [0, modulus).  ``modulus`` defaults to abs(det(a)) and must be a multiple
    of it: a @ s integral means det(a) * s is integral.  The vectors come
    sorted, and there are exactly abs(det(a)) of them.
    """
    n = len(a)
    d, _, v = smith_normal_form(a)
    diag = [d[i][i] for i in range(n)]
    if any(x == 0 for x in diag):
        raise InvariantError("singular system has infinitely many torsion solutions")
    expected = abs(det(a))
    if modulus is None:
        modulus = expected
    if modulus % expected:
        raise InvariantError("modulus is not a multiple of the determinant")
    # s = v @ t with t_i in (1/diag[i]) Z / Z: the solutions are the sums of
    # multiples of column i of v, scaled by modulus / diag[i]
    sols = [(0,) * n]
    for i in range(n):
        if diag[i] > 1:
            col = [(modulus // diag[i]) * v[r][i] for r in range(n)]
            sols = [tuple((x + k * c) % modulus for x, c in zip(s, col))
                    for s in sols for k in range(diag[i])]
    sols.sort()
    if len(set(sols)) != expected:
        raise InvariantError("torsion solutions are not distinct")
    return sols
