"""Brute-force irreducible-character counts for the named groups.

Each named group gets two explicit matrix generators over the field tables
(one for the cyclic torus1); the kernel closes them into the full finite
group, the order is checked against the classical formula, and the number
of irreducible characters is obtained as the number of conjugacy classes.
Nothing here touches the parameter pipelines: this is the independent side
of every comparison.  The one shared piece is the generic breadth-first loop
``groups.closure``, and the order check guards what it returns.

The kernel works on row codes: a matrix over F_q is its n rows, each row an
integer in base q (entry j is digit j), packed into one int.  Right
multiplication by a fixed generator g acts row by row, so it is one lookup
per row in a table for g; each table entry is computed the first time that
row occurs.  The closure records these products as index tables, and the
class count runs on the tables alone.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from struct import Struct

from .errors import ConfigError, UnsupportedTypeError
from .fq import Field, field
from .groups import Closure, closure

__all__ = ["OracleResult", "ORACLE_GROUPS", "MAX_ORACLE_WORK",
           "expected_order", "oracle_count", "BACKEND"]

BACKEND = "python"

ORACLE_GROUPS = ("sl2", "gl2", "gl3", "pgl2", "sp4", "torus1", "o2")

# The row-table kernel does one table lookup per row for each (element,
# generator) product, on top of a fixed cost per product, so the work is
# counted as order * len(gens) * (n + 12) row steps.  Closure and class count
# together take about 0.2-0.25 us per row step: 1.3-1.4 s for the 5.4 * 10**6
# steps of the benchmark's oracle cases (sl2/F49, gl2/F16, gl3/F3, pgl2/F11,
# sp4/F2), 4.1 s for pgl2/F53 and 5.2 s for gl2/F31, the largest admitted;
# 2-vCPU x86-64, CPython 3.11.  The limit is about 5-6 s of work.
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

class _RowTable(dict):
    """Row code -> code of that row times g, filled on first use."""

    def __init__(self, g: bytes, n: int, q: int, add: bytes, mul: bytes):
        super().__init__()
        self.rows = [g[k * n:(k + 1) * n] for k in range(n)]
        self.q, self.add, self.mul = q, add, mul

    def __missing__(self, code: int) -> int:
        q, add, mul = self.q, self.add, self.mul
        out = [0] * len(self.rows)
        rest = code
        for g_row in self.rows:
            rest, c = divmod(rest, q)
            if c:
                out = [add[o * q + mul[c * q + x]] for o, x in zip(out, g_row)]
        self[code] = value = sum(x * q ** j for j, x in enumerate(out))
        return value


def _matrix_format(n: int, q: int) -> Struct:
    """The n row codes of an n x n matrix over F_q, each in the smallest
    unsigned type that holds q**n - 1."""
    top = q ** n - 1
    for kind, bits in (("B", 8), ("H", 16), ("I", 32), ("Q", 64)):
        if top >> bits == 0:
            return Struct(f"<{n}{kind}")
    raise UnsupportedTypeError(
        f"rows of {n} entries over F_{q} do not fit in 64 bits")


def matrix_closure(gens, n: int, q: int, add: bytes, mul: bytes,
                   cap: int = 1 << 20) -> Closure:
    """The group closed from the n x n byte-matrix generators, with its
    right Cayley tables (``groups.closure``).

    Each element is one int, the little-endian value of its row codes
    packed by ``_matrix_format``: the closure's index holds less memory with
    int keys than with bytes or tuples of rows, and packing is linear in n.
    """
    fmt = _matrix_format(n, q)
    pack, unpack, size = fmt.pack, fmt.unpack, fmt.size

    def times(a: int, get) -> int:
        rows = unpack(a.to_bytes(size, "little"))
        return int.from_bytes(pack(*map(get, rows)), "little")

    getters = [_RowTable(g, n, q, add, mul).__getitem__ for g in gens]
    one = int.from_bytes(pack(*(q ** i for i in range(n))), "little")
    return closure(getters, times, one, cap)


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
