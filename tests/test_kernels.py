import pytest

from lpackets import oracle
from lpackets.fq import field
from lpackets.oracle import (_BUILDERS, matrix_class_count, matrix_closure,
                             row_numbering)

# gl2/F7 and gl3/F3 take more than one closure block; sl2/F17 has 288 rows,
# too many to number in a byte
CASES = [("sl2", 2), ("sl2", 5), ("gl2", 3), ("pgl2", 3),
         ("torus1", 7), ("o2", 5), ("sp4", 2),
         ("gl2", 7), ("gl3", 3), ("sl2", 17)]


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


def to_bytes(elements, gens, n, q, add, mul):
    """The packed elements of ``matrix_closure`` as n*n byte matrices: row i
    is the row numbered by the bits ``i * width`` on."""
    rows, width = row_numbering(gens, n, q, add, mul, 1 << 20)
    mask = (1 << width) - 1
    return [b"".join(rows.elements[(x >> (i * width)) & mask]
                     for i in range(n)) for x in elements]


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
    matrices = to_bytes(group.elements, gens, n, fq, add, mul)
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
    assert to_bytes(out.elements, [], 2, 3, f.add, f.mul) == \
        [bytes((1, 0, 0, 1))]
    assert matrix_class_count(out.elements, out.right) == 1


def test_closure_cap():
    gens, n, fq, add, mul = build("sl2", 5)
    with pytest.raises(ValueError):
        matrix_closure(gens, n, fq, add, mul, cap=10)


def test_closure_of_a_65_by_65_identity():
    # 65 x 65 matrices over F_2, the size of pgl2 at q = 64
    f = field(2)
    out = matrix_closure([_identity(65)], 65, 2, f.add, f.mul)
    assert len(out) == 1
    assert matrix_class_count(out.elements, out.right) == 1


def test_abelian_group_has_singleton_classes():
    gens, n, fq, add, mul = build("torus1", 5)
    group = matrix_closure(gens, n, fq, add, mul)
    assert matrix_class_count(group.elements, group.right) == len(group)


@pytest.mark.parametrize("name,q,count,width", [
    ("pgl2", 17, 18, 8), ("pgl2", 53, 54, 8), ("sl2", 17, 288, 9),
    ("sl2", 49, 2400, 12)])
def test_row_numbering(name, q, count, width):
    # the rows of sl2 are the nonzero vectors, those of pgl2 the basis rows
    gens, n, fq, add, mul = build(name, q)
    rows, got = row_numbering(gens, n, fq, add, mul, 1 << 20)
    assert (len(rows), got) == (count, width)
    assert rows.elements[:n] == [_identity(n)[i * n:(i + 1) * n]
                                 for i in range(n)]
