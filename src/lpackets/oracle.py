"""Brute-force irreducible-character counts for the named groups.

Each named group gets explicit matrix generators over the field tables; the
kernel closes them into the full finite group, the order is checked against
the classical formula, and the number of irreducible characters is obtained
as the number of conjugacy classes.  Nothing here touches the parameter
pipelines: this is the independent side of every comparison.  The one
shared piece is the generic breadth-first loop ``groups.closure``, and the
order check guards what it returns.

The kernel works on row codes: a matrix over F_q is the tuple of its n rows,
each row an integer in base q (entry j is digit j).  Right multiplication by
a fixed generator g acts row by row, so it is one lookup per row in a table
for g; each table entry is computed the first time that row occurs.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass

from .errors import ConfigError, UnsupportedTypeError
from .fq import Field, field
from .groups import closure

__all__ = ["OracleResult", "ORACLE_GROUPS", "MAX_ORACLE_WORK",
           "expected_order", "oracle_count", "BACKEND"]

BACKEND = "python"

ORACLE_GROUPS = ("sl2", "gl2", "gl3", "pgl2", "sp4", "torus1", "o2")

# The row-table kernel does one table lookup per row for each (element,
# generator) product, on top of a fixed cost per product, so the work is
# counted as order * len(gens) * (n + 12) row steps.  Closure and class count
# together take about 0.33 us per row step, from pgl2/F19 (0.14 s) to
# gl2/F27 (11.3 s) and pgl2/F64 (20.9 s); 2-vCPU x86-64, CPython 3.11.  The
# limit is about 10 s of work.
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


def _right_multipliers(gens, n, q, add, mul):
    """One row lookup per generator, and the identity in row codes."""
    return ([_RowTable(g, n, q, add, mul).__getitem__ for g in gens],
            tuple(q ** i for i in range(n)))


def matrix_closure(gens, n: int, q: int, add: bytes, mul: bytes,
                   cap: int = 1 << 20) -> list:
    """All products of the n x n byte-matrix generators, as a sorted list of
    row-code tuples."""
    getters, one = _right_multipliers(gens, n, q, add, mul)
    return sorted(closure(getters, lambda a, get: tuple(map(get, a)), one, cap))


def matrix_class_count(elements, gens, n: int, q: int, add: bytes,
                       mul: bytes) -> int:
    """Conjugacy classes of the group ``elements`` closed from ``gens``.

    Elements become their indices in sorted order, found by bisection; a
    dict index would hold about as much memory as the elements do.
    ``right[k]`` maps x to x g_k and ``left[k]`` maps x to g_k^-1 x.  The
    latter is filled along a breadth-first tree from the identity e: if
    x = p g_j, then g_k^-1 x = (g_k^-1 p) g_j.  The classes are the orbits
    of the maps x -> g_k^-1 x g_k.
    """
    getters, one = _right_multipliers(gens, n, q, add, mul)
    ordered = sorted(elements)
    size = len(ordered)
    right = [array("i", [bisect_left(ordered, tuple(map(get, x)))
                         for x in ordered]) for get in getters]
    e = bisect_left(ordered, one)
    del ordered
    left = [array("i", [e]) * size for _ in right]
    for r, lk in zip(right, left):
        while r[lk[e]] != e:         # g^-1 is the last power of g before e
            lk[e] = r[lk[e]]
    seen = bytearray(size)
    seen[e] = 1
    tree = array("i", [e])
    for p in tree:
        for r in right:
            x = r[p]
            if not seen[x]:
                seen[x] = 1
                tree.append(x)
                for lk in left:
                    lk[x] = r[lk[p]]
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


def _gens_gl(f: Field, n: int):
    gens = [_diag([f.gen] + [1] * (n - 1))]
    trans = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    trans[0][1] = 1
    gens.append(_mat(f, trans))
    cycle = [[1 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)]
    gens.append(_mat(f, cycle))
    return gens, n, f


def _gens_sl2(f: Field):
    gens = [_mat(f, [[1, 1], [0, 1]]), _mat(f, [[1, 0], [1, 1]])]
    if f.k > 1:
        g = f.gen
        gens.append(bytes([1, g, 0, 1]))
        gens.append(bytes([1, 0, g, 1]))
    return gens, 2, f


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
    """Symplectic transvections x -> x + t<x,v>v for a small spanning set."""
    basis = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    e1, e2, f1, f2 = basis

    def pairing_row(v):
        # <x, v> = x^T J v with J pairing e_i with f_i
        return (-v[2], -v[3], v[0], v[1])

    def transvection(v, t):
        row = pairing_row(v)
        m = [[0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(4):
                m[i][j] = (1 if i == j else 0)
        mat = bytearray(_mat(f, m))
        for i in range(4):
            vi = _signed(f, v[i])
            if vi == 0:
                continue
            for j in range(4):
                rj = _signed(f, row[j])
                term = f.mul[f.mul[t * f.q + vi] * f.q + rj]
                mat[i * 4 + j] = f.add[mat[i * 4 + j] * f.q + term]
        return bytes(mat)

    vs = [e1, e2, f1, f2,
          tuple(a + b for a, b in zip(e1, e2)),
          tuple(a + b for a, b in zip(e1, f2)),
          tuple(a + b for a, b in zip(e2, f1))]
    gens = []
    for v in vs:
        gens.append(transvection(v, 1))
        if f.gen != 1:
            gens.append(transvection(v, f.gen))

    # every generator must preserve the form
    jm = _mat(f, [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
    for g in gens:
        if not _preserves_form(f, g, jm, 4):
            raise ConfigError("symplectic generator does not preserve the form")
    return gens, 4, f


def _preserves_form(f: Field, m: bytes, jm: bytes, n: int) -> bool:
    q = f.q

    def mm(a, b):
        out = bytearray(n * n)
        for i in range(n):
            for j in range(n):
                acc = 0
                for k in range(n):
                    acc = f.add[acc * q + f.mul[a[i * n + k] * q + b[k * n + j]]]
                out[i * n + j] = acc
        return bytes(out)

    mt = bytes(m[j * n + i] for i in range(n) for j in range(n))
    return mm(mt, mm(jm, m)) == jm


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
    elements = matrix_closure(gens, n, tf.q, tf.add, tf.mul, cap=cap)
    if len(elements) != expected:
        raise ConfigError(
            f"oracle generators for {name}/F_{q} close to {len(elements)} "
            f"elements, expected {expected}")
    classes = matrix_class_count(elements, gens, n, tf.q, tf.add, tf.mul)
    return OracleResult(name=name, q=q, order=len(elements),
                        class_count=classes)
