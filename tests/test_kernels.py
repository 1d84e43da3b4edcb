import pytest

from lpackets import oracle
from lpackets.fq import field
from lpackets.errors import UnsupportedTypeError
from lpackets.oracle import (_BUILDERS, _matrix_format, matrix_class_count,
                             matrix_closure)

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


def to_bytes(element, n, q):
    """A packed element of ``matrix_closure`` as an n*n byte matrix."""
    out = bytearray()
    fmt = _matrix_format(n, q)
    for code in fmt.unpack(element.to_bytes(fmt.size, "little")):
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
    group = matrix_closure(gens, n, fq, add, mul)
    matrices = [to_bytes(x, n, fq) for x in group.elements]
    assert len(group) == len(reference)
    assert set(matrices) == set(reference)
    assert matrices[0] == _identity(n)
    assert len(group.right) == len(gens)
    index = {m: i for i, m in enumerate(matrices)}
    for g, r in zip(gens, group.right):
        assert list(r) == [index[_mat_mul(m, g, n, fq, add, mul)]
                           for m in matrices]
    assert matrix_class_count(group.elements, group.right) == \
        reference_class_count(reference, gens, n, fq, add, mul)


def test_class_count_ignores_element_order():
    # the generators in the other order list the elements in another
    # breadth-first order, with other tables, and give the same count
    gens, n, fq, add, mul = build("gl2", 3)
    forward = matrix_closure(gens, n, fq, add, mul)
    backward = matrix_closure(gens[::-1], n, fq, add, mul)
    assert forward.elements != backward.elements
    assert matrix_class_count(forward.elements, forward.right) == 8
    assert matrix_class_count(backward.elements, backward.right) == 8


def test_closure_of_nothing_is_identity():
    f = field(3)
    out = matrix_closure([], 2, 3, f.add, f.mul)
    assert [to_bytes(x, 2, 3) for x in out.elements] == [bytes((1, 0, 0, 1))]
    assert matrix_class_count(out.elements, out.right) == 1


def test_closure_cap():
    gens, n, fq, add, mul = build("sl2", 5)
    with pytest.raises(ValueError):
        matrix_closure(gens, n, fq, add, mul, cap=10)


def test_rows_over_64_bits_are_unsupported():
    # 65 x 65 matrices over F_2, the size of pgl2 at q = 64, whose rows
    # need 65 bits
    f = field(2)
    with pytest.raises(UnsupportedTypeError):
        matrix_closure([_identity(65)], 65, 2, f.add, f.mul)
    assert _matrix_format(64, 2).format == "<64Q"
    assert _matrix_format(2, 16).format == "<2B"


def test_abelian_group_has_singleton_classes():
    gens, n, fq, add, mul = build("torus1", 5)
    group = matrix_closure(gens, n, fq, add, mul)
    assert matrix_class_count(group.elements, group.right) == len(group)
