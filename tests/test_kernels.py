import pytest

from lpackets import oracle
from lpackets.fq import field
from lpackets.oracle import _BUILDERS, matrix_class_count, matrix_closure

CASES = [("sl2", 2), ("sl2", 5), ("gl2", 3), ("pgl2", 3),
         ("torus1", 7), ("o2", 5), ("sp4", 2)]


# Reference kernel: schoolbook products of n*n byte matrices.

def _mat_mul(a: bytes, b: bytes, n: int, q: int, add: bytes, mul: bytes) -> bytes:
    out = bytearray(n * n)
    for i in range(n):
        row = i * n
        for j in range(n):
            acc = 0
            for k in range(n):
                acc = add[acc * q + mul[a[row + k] * q + b[k * n + j]]]
            out[row + j] = acc
    return bytes(out)


def _identity(n: int) -> bytes:
    out = bytearray(n * n)
    for i in range(n):
        out[i * n + i] = 1
    return bytes(out)


def reference_closure(gens, n, q, add, mul):
    """All products of the generators, as a sorted list of byte matrices."""
    ident = _identity(n)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                ag = _mat_mul(a, g, n, q, add, mul)
                if ag not in seen:
                    seen.add(ag)
                    nxt.append(ag)
        frontier = nxt
    return sorted(seen)


def _inverse_in(elem: bytes, n: int, q: int, add: bytes, mul: bytes) -> bytes:
    """Inverse by powering; the element has finite order in a finite group."""
    ident = _identity(n)
    prev, cur = elem, _mat_mul(elem, elem, n, q, add, mul)
    if elem == ident:
        return ident
    while cur != ident:
        prev, cur = cur, _mat_mul(cur, elem, n, q, add, mul)
    return prev


def reference_class_count(elements, gens, n, q, add, mul):
    """Conjugacy classes of the listed group, conjugating by the generators."""
    conj = [(g, _inverse_in(g, n, q, add, mul)) for g in gens]
    seen = set()
    count = 0
    for x in elements:
        if x in seen:
            continue
        count += 1
        orbit = {x}
        stack = [x]
        while stack:
            y = stack.pop()
            for g, gi in conj:
                z = _mat_mul(gi, _mat_mul(y, g, n, q, add, mul), n, q, add, mul)
                if z not in orbit:
                    orbit.add(z)
                    stack.append(z)
        seen |= orbit
    return count


def to_bytes(rows, n, q):
    """A row-code tuple as an n*n byte matrix."""
    out = bytearray()
    for code in rows:
        for _ in range(n):
            code, entry = divmod(code, q)
            out.append(entry)
    return bytes(out)


def build(name, q):
    gens, n, tf = _BUILDERS[name](field(q))
    return gens, n, tf.q, tf.add, tf.mul


def test_backend_name_is_exposed():
    assert oracle.BACKEND == "python"


@pytest.mark.parametrize("name,q", CASES)
def test_backends_agree(name, q):
    gens, n, fq, add, mul = build(name, q)
    reference = reference_closure(gens, n, fq, add, mul)
    elements = matrix_closure(gens, n, fq, add, mul)
    assert len(elements) == len(reference)
    assert {to_bytes(x, n, fq) for x in elements} == set(reference)
    assert matrix_class_count(elements, gens, n, fq, add, mul) == \
        reference_class_count(reference, gens, n, fq, add, mul)


def test_class_count_ignores_element_order():
    gens, n, fq, add, mul = build("gl2", 3)
    elements = matrix_closure(gens, n, fq, add, mul)
    assert matrix_class_count(elements[::-1], gens, n, fq, add, mul) == 8


def test_closure_of_nothing_is_identity():
    f = field(3)
    out = matrix_closure([], 2, 3, f.add, f.mul)
    assert [to_bytes(x, 2, 3) for x in out] == [bytes((1, 0, 0, 1))]


def test_closure_cap():
    gens, n, fq, add, mul = build("sl2", 5)
    with pytest.raises(ValueError):
        matrix_closure(gens, n, fq, add, mul, cap=10)


def test_abelian_group_has_singleton_classes():
    gens, n, fq, add, mul = build("torus1", 5)
    elements = matrix_closure(gens, n, fq, add, mul)
    assert matrix_class_count(elements, gens, n, fq, add, mul) == \
        len(elements)
