import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lpackets.errors import InvariantError
from lpackets.lattice import (
    det,
    identity,
    mat_inv_unimodular,
    mat_mul,
    mat_vec,
    mat_vec_mod,
    smith_normal_form,
    solve_integral,
    solve_torsion,
    transpose,
)

small_entries = st.integers(min_value=-9, max_value=9)


def square(n):
    return st.lists(st.lists(small_entries, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(
                        lambda rows: tuple(tuple(r) for r in rows))


def reference_solve_torsion(a):
    """The Fraction solver the integer one replaced: all s in (Q/Z)^n with
    a @ s integral, as Fraction tuples in [0, 1), sorted."""
    n = len(a)
    d, _, v = smith_normal_form(a)
    diag = [d[i][i] for i in range(n)]
    assert all(x != 0 for x in diag)
    sols = []

    def rec(i, t):
        if i == n:
            s = mat_vec(v, t)
            sols.append(tuple(Fraction(x) % 1 for x in s))
            return
        for k in range(diag[i]):
            rec(i + 1, t + (Fraction(k, diag[i]),))

    rec(0, ())
    sols.sort()
    return sols


def is_diagonal(m):
    return all(m[i][j] == 0 for i in range(len(m))
               for j in range(len(m[0])) if i != j)


def test_det_known_values():
    assert det(identity(3)) == 1
    assert det(((2, 0), (0, 3))) == 6
    assert det(((1, 2), (2, 4))) == 0
    assert det(((0, 1), (1, 0))) == -1


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


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(square))
def test_unimodular_inverse_of_smith_transforms(a):
    # the Smith transforms are unimodular matrices far from the identity
    _, u, v = smith_normal_form(a)
    for m in (u, v):
        assert mat_mul(m, mat_inv_unimodular(m)) == identity(len(m))


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


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(square))
def test_smith_normal_form_properties(a):
    n = len(a)
    d, u, v = smith_normal_form(a)
    assert mat_mul(mat_mul(u, a), v) == d
    assert abs(det(u)) == 1 and abs(det(v)) == 1
    assert is_diagonal(d)
    diag = [d[i][i] for i in range(n)]
    assert all(x >= 0 for x in diag)
    for i in range(n - 1):
        if diag[i] != 0:
            assert diag[i + 1] % diag[i] == 0
        else:
            assert diag[i + 1] == 0
    assert abs(det(a)) == abs(det(d))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=3).flatmap(square))
def test_solve_torsion_count_is_absolute_determinant(a):
    d = det(a)
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
        assert mat_vec_mod(a, v, n) == (0,) * len(a)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=3).flatmap(square),
       st.integers(min_value=1, max_value=4))
def test_solve_torsion_matches_fraction_reference(a, multiple):
    d = det(a)
    assume(d != 0)
    modulus = multiple * abs(d)
    sols = solve_torsion(a, modulus)
    assert [tuple(Fraction(x, modulus) for x in v) for v in sols] == \
        reference_solve_torsion(a)


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
