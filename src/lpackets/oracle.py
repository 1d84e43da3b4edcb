"""Brute-force irreducible-character counts for the named groups.

Each named group gets two explicit matrix generators over the field tables
(one for the cyclic torus1); the kernel closes them into the full finite
group, the order is checked against the classical formula, and the number
of irreducible characters is obtained as the number of conjugacy classes.
Nothing here touches the parameter pipelines: this is the independent side
of every comparison.  The one shared piece is the generic breadth-first loop
``groups.closure``, and the order check guards what it returns.

The kernel first numbers the rows that occur: the closure of the n basis
rows under right multiplication by the generators.  Each generator then
acts on row numbers by a list, and a matrix is its n row numbers packed
into one int.  ``groups.closure`` multiplies a block of elements by one
generator at a time, mapping every row of the block through the list, and
spends a Python step only on elements not seen before.  It records the
products as index tables, and the class count runs on the tables alone.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import repeat
from operator import and_, or_, rshift

from .errors import ConfigError, UnsupportedTypeError
from .fq import Field, field
from .groups import Closure, closure

__all__ = ["OracleResult", "ORACLE_GROUPS", "MAX_ORACLE_WORK",
           "expected_order", "oracle_count", "BACKEND"]

BACKEND = "python"

ORACLE_GROUPS = ("sl2", "gl2", "gl3", "pgl2", "sp4", "torus1", "o2")

# The closure maps each row of each (element, generator) product through a
# list, on top of a fixed cost per product, so the work is counted as
# order * len(gens) * (n + 12) row steps.  Closure and class count together
# take about 0.1-0.2 us per row step: 0.9 s for the 5.4 * 10**6 steps of the
# benchmark's oracle cases (sl2/F49, gl2/F16, gl3/F3, pgl2/F11, sp4/F2),
# 1.4 s for sl2/F64 and 4.3 s for gl2/F31, the largest admitted.  Where the
# rows are numbered in a byte (at most 256 rows: every group but sl2 and gl2
# from q = 17 on), one bytes.translate multiplies a whole element, so the
# rows cost next to nothing: pgl2/F53 (n = 54) takes 0.04 us per row step,
# 0.7 s, and the count overstates its work.  ``lpackets oracle`` takes
# 4.1-4.7 s and 134 MB peak RSS on gl2/F31, 0.6-1.0 s and 44 MB on pgl2/F53,
# and 1.6-1.7 s and 50 MB on sl2/F64; 2-vCPU x86-64, CPython 3.11.  The
# limit is about 5 s of work.
MAX_ORACLE_WORK = 25 * 10 ** 6


@dataclass(frozen=True)
class OracleResult:
    name: str
    q: int
    order: int
    class_count: int


def expected_order(name: str, q: int) -> int:
    if name == "sl2":
        return q * (q * q - 1)
    if name == "gl2":
        return (q * q - 1) * (q * q - q)
    if name == "gl3":
        return (q**3 - 1) * (q**3 - q) * (q**3 - q * q)
    if name == "pgl2":
        return q**3 - q
    if name == "sp4":
        return q**4 * (q * q - 1) * (q**4 - 1)
    if name == "torus1":
        return q - 1
    if name == "o2":
        return 2 * (q - 1)
    raise UnsupportedTypeError(f"no oracle model for {name!r}; "
                               f"known: {', '.join(ORACLE_GROUPS)}")


# ---------------------------------------------------------------------------
# kernel

def _row_times(row: bytes, g: bytes, n: int, q: int, add: bytes,
               mul: bytes) -> bytes:
    """The row vector ``row`` times the n x n byte matrix g over F_q."""
    out = bytes(n)
    for k, c in enumerate(row):
        if c:
            out = bytes(add[o * q + mul[c * q + x]]
                        for o, x in zip(out, g[k * n:(k + 1) * n]))
    return out


def row_numbering(gens, n: int, q: int, add: bytes, mul: bytes,
                  cap: int) -> tuple[Closure, int]:
    """The rows that occur in the group generated by the n x n byte matrices
    ``gens``, numbered, and the bits a row number takes in a packed matrix.

    The rows are the closure of the n basis rows (numbers 0 to n - 1) under
    right multiplication by the generators (``groups.closure``), which
    computes each row product once; ``right[k]`` is generator k as a map on
    row numbers.  A row number takes 8 bits when every number fits in a
    byte, and otherwise as many as the largest one.  Each basis row's orbit
    has at most as many rows as the group has elements, so rows beyond
    ``n * cap`` raise ValueError.
    """
    def times(block, g):
        return [_row_times(row, g, n, q, add, mul) for row in block]

    basis = [bytes(int(i == j) for j in range(n)) for i in range(n)]
    rows = closure(gens, times, basis, n * cap)
    width = 8 if len(rows) <= 256 else (len(rows) - 1).bit_length()
    return rows, width


def matrix_closure(gens, n: int, q: int, add: bytes, mul: bytes,
                   cap: int = 1 << 20) -> Closure:
    """The group closed from the n x n byte-matrix generators, with its
    right Cayley tables (``groups.closure``).

    Each element is one int: its n row numbers (``row_numbering``), row i
    at bits ``i * width``.  Right multiplication by a generator maps each row
    number through a list.  With byte-sized row numbers that is one
    ``bytes.translate`` of the element's bytes.  Otherwise a block of
    elements is multiplied one row position at a time: shift the position
    out of every element, map it through the generator's list, shifted back
    into place, and OR it into the products.
    """
    rows, width = row_numbering(gens, n, q, add, mul, cap)
    one = sum(i << (i * width) for i in range(n))
    if width == 8:
        tables = [bytes(list(perm)).ljust(256, b"\0") for perm in rows.right]

        def translate(block, table):
            return list(map(int.from_bytes, map(
                bytes.translate,
                map(int.to_bytes, block, repeat(n), repeat("little")),
                repeat(table)), repeat("little")))

        return closure(tables, translate, [one], cap)

    mask = (1 << width) - 1
    shifts = range(0, n * width, width)
    steps = [[(s, [r << s for r in perm]) for s in shifts]
             for perm in rows.right]

    def times(block, step):
        out = repeat(0)
        for s, perm in step:
            moved = map(perm.__getitem__,
                        map(and_, map(rshift, block, repeat(s)), repeat(mask)))
            out = list(map(or_, out, moved))
        return out

    return closure(steps, times, [one], cap)


def matrix_class_count(elements, right) -> int:
    """Conjugacy classes of a group closed by ``groups.closure``: its
    ``elements``, in breadth-first order from the identity at index 0, and
    its right Cayley tables ``right[k]``, which map x to x g_k.

    ``left[k]`` maps x to g_k^-1 x.  g_k^-1 is the last power of g_k before
    the identity.  The rest is filled in the closure's order: element x is
    new exactly when ``right[j][p]`` is the next unused index, and then
    g_k^-1 x = (g_k^-1 p) g_j.  The classes are the orbits of the maps
    x -> g_k^-1 x g_k.
    """
    size = len(elements)
    left = []
    for r in right:
        inv = r[0]
        while r[inv]:
            inv = r[inv]
        left.append(array("i", [inv]) * size)
    new = 1
    for p in range(size):
        for r in right:
            if r[p] == new:
                for lk in left:
                    lk[new] = r[lk[p]]
                new += 1
    conj = list(zip(right, left))
    seen = bytearray(size)
    count = 0
    for x in range(size):
        if not seen[x]:
            count += 1
            seen[x] = 1
            stack = [x]
            while stack:
                y = stack.pop()
                for r, lk in conj:
                    z = r[lk[y]]
                    if not seen[z]:
                        seen[z] = 1
                        stack.append(z)
    return count


# ---------------------------------------------------------------------------
# matrix builders

def _signed(f: Field, c: int) -> int:
    """Image of a signed integer in the field."""
    if c >= 0:
        return f.embed_int(c)
    return f.neg[f.embed_int(-c)]


def _mat(f: Field, rows) -> bytes:
    return bytes(_signed(f, c) for row in rows for c in row)


def _diag(entries) -> bytes:
    n = len(entries)
    out = bytearray(n * n)
    for i, e in enumerate(entries):
        out[i * n + i] = e
    return bytes(out)


def _mat_mul(f: Field, a: bytes, b: bytes, n: int) -> bytes:
    """The product of two n x n byte matrices over f."""
    q = f.q
    out = bytearray(n * n)
    for i in range(n):
        for j in range(n):
            acc = 0
            for k in range(n):
                acc = f.add[acc * q + f.mul[a[i * n + k] * q + b[k * n + j]]]
            out[i * n + j] = acc
    return bytes(out)


# Two generators per group wherever the group needs two: every finite simple
# group of Lie type is 2-generated (Steinberg, "Generators for simple groups",
# Canad. J. Math. 14, 1962), with explicit pairs for the classical groups in
# D. E. Taylor, "Pairs of generators for matrix groups", Cayley Bulletin 3,
# 1987.  Each pair below closes to ``expected_order`` at every q <= 64 the
# cap and the work limit admit, and ``oracle_count`` checks that each time.

def _gens_gl(f: Field, n: int):
    """diag(w, 1, ..., 1) and (I + E_01) C, with w the field's generator and C
    the n-cycle; at q = 2, where w = 1, I + E_01 and C."""
    trans = _mat(f, [[int(i == j or (i, j) == (0, 1)) for j in range(n)]
                     for i in range(n)])
    cycle = _mat(f, [[int(j == (i + 1) % n) for j in range(n)]
                     for i in range(n)])
    if f.gen == 1:
        return [trans, cycle], n, f
    return [_diag([f.gen] + [1] * (n - 1)), _mat_mul(f, trans, cycle, n)], n, f


def _gens_sl2(f: Field):
    """[[1, 1], [0, 1]] and diag(w, w^-1) [[1, 0], [1, 1]], with w the
    field's generator."""
    torus = _diag([f.gen, f.inv[f.gen]])
    lower = _mat_mul(f, torus, _mat(f, [[1, 0], [1, 1]]), 2)
    return [_mat(f, [[1, 1], [0, 1]]), lower], 2, f


def _gens_torus1(f: Field):
    return [_diag([f.gen])], 1, f


def _gens_o2(f: Field):
    return [_diag([f.gen, f.inv[f.gen]]), _mat(f, [[0, 1], [1, 0]])], 2, f


def _gens_pgl2(f: Field):
    """Permutations of the projective line induced by the gl2 generators,
    encoded as permutation matrices over the two-element field."""
    q = f.q
    mats, _, _ = _gens_gl(f, 2)

    def point(i):
        return (1, i) if i < q else (0, 1)

    def index(x, y):
        if x != 0:
            return f.mul[y * q + f.inv[x]]
        return q

    npts = q + 1
    out = []
    for m in mats:
        a, b, c, d = m[0], m[1], m[2], m[3]
        perm_mat = bytearray(npts * npts)
        for i in range(npts):
            x, y = point(i)
            nx = f.add[f.mul[a * q + x] * q + f.mul[b * q + y]]
            ny = f.add[f.mul[c * q + x] * q + f.mul[d * q + y]]
            if nx == 0 and ny == 0:
                raise ConfigError("projective action hit the origin")
            j = index(nx, ny)
            perm_mat[j * npts + i] = 1
        out.append(bytes(perm_mat))
    return out, npts, field(2)


def _gens_sp4(f: Field):
    """t(e1) and t(e2) t(f1) t(f2) t(e1 + e2), where t(v) is the symplectic
    transvection x -> x + <x, v> v."""
    def transvection(v):
        # <x, v> = x^T J v with J pairing e_i with f_i
        row = (-v[2], -v[3], v[0], v[1])
        return _mat(f, [[int(i == j) + v[i] * row[j] for j in range(4)]
                        for i in range(4)])

    t_e1, t_e2, t_f1, t_f2, t_e1e2 = map(transvection, (
        (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 0, 0)))
    word = t_e2
    for t in (t_f1, t_f2, t_e1e2):
        word = _mat_mul(f, word, t, 4)
    gens = [t_e1, word]

    # every generator must preserve the form
    jm = _mat(f, [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
    for g in gens:
        if not _preserves_form(f, g, jm, 4):
            raise ConfigError("symplectic generator does not preserve the form")
    return gens, 4, f


def _preserves_form(f: Field, m: bytes, jm: bytes, n: int) -> bool:
    mt = bytes(m[j * n + i] for i in range(n) for j in range(n))
    return _mat_mul(f, mt, _mat_mul(f, jm, m, n), n) == jm


_BUILDERS = {
    "sl2": _gens_sl2,
    "gl2": lambda f: _gens_gl(f, 2),
    "gl3": lambda f: _gens_gl(f, 3),
    "pgl2": _gens_pgl2,
    "sp4": _gens_sp4,
    "torus1": _gens_torus1,
    "o2": _gens_o2,
}


def oracle_count(name: str, q: int, cap: int = 1 << 20) -> OracleResult:
    expected = expected_order(name, q)
    if expected > cap:
        raise ConfigError(
            f"{name} over F_{q} has order {expected}, beyond the cap of {cap}")
    builder = _BUILDERS[name]
    gens, n, tf = builder(field(q))
    work = expected * len(gens) * (n + 12)
    if work > MAX_ORACLE_WORK:
        raise UnsupportedTypeError(
            f"{name} over F_{q} needs about {work:.1e} row steps "
            f"({expected} elements, {len(gens)} generators of size {n}); "
            f"the limit is {MAX_ORACLE_WORK:.1e}")
    group = matrix_closure(gens, n, tf.q, tf.add, tf.mul, cap=cap)
    if len(group) != expected:
        raise ConfigError(
            f"oracle generators for {name}/F_{q} close to {len(group)} "
            f"elements, expected {expected}")
    classes = matrix_class_count(group.elements, group.right)
    return OracleResult(name=name, q=q, order=len(group),
                        class_count=classes)
