import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lpackets.errors import InvariantError
from lpackets.lattice import (
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

small_entries = st.integers(min_value=-9, max_value=9)


def square(n):
    return st.lists(st.lists(small_entries, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(
                        lambda rows: tuple(tuple(r) for r in rows))


def reference_solve_torsion(a, modulus):
    """The definition, by brute force: every v in [0, modulus)^n with
    a @ v = 0 mod modulus, that is with a @ (v / modulus) integral, sorted."""
    return [v for v in product(range(modulus), repeat=len(a))
            if all(x % modulus == 0 for x in mat_vec(a, v))]


def test_det_known_values():
    assert det(identity(3)) == 1
    assert det(((2, 0), (0, 3))) == 6
    assert det(((1, 2), (2, 4))) == 0
    assert det(((0, 1), (1, 0))) == -1


def minor(a, i, j):
    return tuple(tuple(x for c, x in enumerate(row) if c != j)
                 for r, row in enumerate(a) if r != i)


def laplace_det(a):
    """The definition: cofactor expansion along the first row."""
    if not a:
        return 1
    return sum((-1) ** j * x * laplace_det(minor(a, 0, j))
               for j, x in enumerate(a[0]))


def laplace_adjugate(a):
    """The definition: adj(a)[i][j] is the (j, i) cofactor of a."""
    n = len(a)
    return tuple(tuple((-1) ** (i + j) * laplace_det(minor(a, j, i))
                       for j in range(n)) for i in range(n))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=5).flatmap(square))
def test_det_and_adjugate_match_cofactor_expansion(a):
    d = laplace_det(a)
    assert det(a) == d
    if d == 0:
        with pytest.raises(InvariantError):
            adjugate(a)
    else:
        assert adjugate(a) == (d, laplace_adjugate(a))


def singular(n):
    """Square matrices whose last row is an integer combination of the
    others (the zero row when n = 1)."""
    coeffs = st.lists(small_entries, min_size=n - 1, max_size=n - 1)

    def build(args):
        rows, cs = args
        last = tuple(sum(c * row[j] for c, row in zip(cs, rows))
                     for j in range(n))
        return rows[:-1] + (last,)
    return st.tuples(square(n), coeffs).map(build)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=5).flatmap(singular))
def test_singular_matrices_are_refused(a):
    assert det(a) == 0
    for solve in (adjugate, mat_inv_unimodular, solve_torsion,
                  lambda m: solve_integral(m, (m[0],))):
        with pytest.raises(InvariantError):
            solve(a)


def test_mat_mul_and_transpose():
    a = ((1, 2), (3, 4))
    b = ((0, 1), (1, 0))
    assert mat_mul(a, b) == ((2, 1), (4, 3))
    assert transpose(a) == ((1, 3), (2, 4))
    assert mat_vec(a, (1, 1)) == (3, 7)


def test_unimodular_inverse():
    a = ((1, 1), (0, 1))
    inv = mat_inv_unimodular(a)
    assert mat_mul(a, inv) == identity(2)
    with pytest.raises(InvariantError):
        mat_inv_unimodular(((2, 0), (0, 1)))
    with pytest.raises(InvariantError):
        mat_inv_unimodular(((1, 2), (2, 4)))


def elementary_product(n, ops):
    """The product of elementary row operations applied to the identity:
    ("add", i, j, c) adds c times row j to row i (i != j), ("swap", i, j, _)
    swaps two rows and ("negate", i, _, _) negates one."""
    m = [list(row) for row in identity(n)]
    for kind, i, j, c in ops:
        if kind == "add" and i != j:
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        elif kind == "swap":
            m[i], m[j] = m[j], m[i]
        elif kind == "negate":
            m[i] = [-x for x in m[i]]
    return tuple(tuple(row) for row in m)


def elementary_products(n):
    op = st.tuples(st.sampled_from(["add", "add", "swap", "negate"]),
                   st.integers(0, n - 1), st.integers(0, n - 1), small_entries)
    return st.lists(op, max_size=12).map(lambda ops: elementary_product(n, ops))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=8).flatmap(elementary_products))
def test_unimodular_inverse_of_elementary_products(m):
    # products of elementary row operations are unimodular matrices, most of
    # them far from the identity
    assert abs(det(m)) == 1
    inv = mat_inv_unimodular(m)
    assert mat_mul(m, inv) == identity(len(m))
    assert mat_mul(inv, m) == identity(len(m))


def test_non_unimodular_inverse_raises_under_optimize():
    # the check must not be an assert, which python -O strips
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("from lpackets.errors import InvariantError\n"
            "from lpackets.lattice import mat_inv_unimodular\n"
            "try:\n"
            "    print(mat_inv_unimodular(((2, 0), (0, 1))))\n"
            "except InvariantError:\n"
            "    print('refused')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "refused"


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5).flatmap(square))
def test_solve_torsion_count_is_absolute_determinant(a):
    d = det(a)
    assume(abs(d) <= 2000)
    if d == 0:
        with pytest.raises(InvariantError):
            solve_torsion(a)
        return
    n = abs(d)
    sols = solve_torsion(a)
    assert len(sols) == n
    assert sols == sorted(set(sols))
    for v in sols:
        assert all(0 <= x < n for x in v)
        # a @ (v / n) is integral
        assert tuple(x % n for x in mat_vec(a, v)) == (0,) * len(a)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=3).flatmap(square),
       st.integers(min_value=1, max_value=4))
def test_solve_torsion_matches_brute_force(a, multiple):
    d = det(a)
    assume(d != 0)
    modulus = multiple * abs(d)
    assume(modulus ** len(a) <= 20000)
    assert solve_torsion(a, modulus) == reference_solve_torsion(a, modulus)


def test_solve_torsion_rejects_a_modulus_not_divisible_by_det():
    with pytest.raises(InvariantError):
        solve_torsion(((2, 0), (0, 3)), 4)


def test_solve_torsion_brute_force_cross_check():
    a = ((2, 1), (0, 3))
    denom = 6
    sols = set(solve_torsion(a, denom))
    brute = set()
    for i in range(denom):
        for j in range(denom):
            s = (Fraction(i, denom), Fraction(j, denom))
            if all(Fraction(x) % 1 == 0 for x in mat_vec(a, s)):
                brute.add((i, j))
    assert sols == brute


def reference_solve_integral(a, rows):
    """Fraction Gauss-Jordan on [a^T | rows^T]: the x with x @ a = rows, or
    None when some entry of x is not an integer."""
    n = len(a)
    out = []
    for row in rows:
        aug = [[Fraction(a[j][i]) for j in range(n)] + [Fraction(row[i])]
               for i in range(n)]
        for c in range(n):
            piv = next(i for i in range(c, n) if aug[i][c] != 0)
            aug[c], aug[piv] = aug[piv], aug[c]
            aug[c] = [x / aug[c][c] for x in aug[c]]
            for i in range(n):
                if i != c:
                    aug[i] = [x - aug[i][c] * y for x, y in zip(aug[i], aug[c])]
        x = [aug[i][n] for i in range(n)]
        if any(v.denominator != 1 for v in x):
            return None
        out.append(tuple(int(v) for v in x))
    return tuple(out)


def systems(n):
    rows = st.lists(st.tuples(*[small_entries] * n), max_size=4).map(tuple)
    return st.tuples(square(n), rows)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=3).flatmap(systems), st.booleans())
def test_solve_integral_matches_fraction_reference(system, integral):
    a, rows = system
    assume(det(a) != 0)
    if integral:  # rows in the row lattice of a, so x is integral
        rows = mat_mul(rows, a)
    x = solve_integral(a, rows)
    assert x == reference_solve_integral(a, rows)
    if integral:
        assert x is not None
    if x is not None:
        assert mat_mul(x, a) == rows
