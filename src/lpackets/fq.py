"""Finite field arithmetic as lookup tables, for q up to 64.

Elements are indices 0..q-1; for q = p^k an index encodes a polynomial over
F_p in base p, lowest degree first.  The tables are bytes of length q*q,
indexed by a*q + b.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import isqrt

from .errors import ConfigError

# monic irreducible over F_p, coefficients by ascending degree
_IRREDUCIBLE = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
    16: (1, 1, 0, 0, 1),
    25: (2, 1, 1),
    27: (1, 2, 0, 1),
    32: (1, 0, 1, 0, 0, 1),
    49: (3, 1, 1),
    64: (1, 1, 0, 0, 0, 0, 1),
}


def prime_power(q: int):
    if q < 2:
        raise ConfigError("q must be at least 2")
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    k = 0
    m = q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise ConfigError(f"q = {q} is not a prime power")
    return p, k


class Field(namedtuple("Field", "q p k add mul neg inv gen")):
    """F_q with q = p^k: ``add[a*q+b]`` and ``mul[a*q+b]``, ``neg`` the
    additive inverse, ``inv`` the multiplicative one (``inv[0] = 0`` is
    unused), and ``gen`` a generator of the multiplicative group."""
    __slots__ = ()

    def embed_int(self, c: int) -> int:
        """The image of an integer, i.e. c * 1 in the field."""
        x = 0
        one = 1
        for _ in range(c % self.p):
            x = self.add[x * self.q + one]
        return x


def _digits(x: int, p: int, k: int):
    out = []
    for _ in range(k):
        out.append(x % p)
        x //= p
    return out


def _undigits(ds, p: int) -> int:
    x = 0
    for d in reversed(ds):
        x = x * p + d
    return x


@lru_cache(maxsize=None)
def field(q: int) -> Field:
    p, k = prime_power(q)
    if q > 64:
        raise ConfigError("field tables are capped at q = 64")
    if k == 1:
        add = bytes((a + b) % p for a in range(q) for b in range(q))
        mul = bytes((a * b) % p for a in range(q) for b in range(q))
    else:
        poly = _IRREDUCIBLE.get(q)
        if poly is None:
            raise ConfigError(f"no modulus on file for q = {q}")
        mod = list(poly)

        def poly_mul(a, b):
            da, db = _digits(a, p, k), _digits(b, p, k)
            prod = [0] * (2 * k - 1)
            for i, ca in enumerate(da):
                if ca:
                    for j, cb in enumerate(db):
                        prod[i + j] = (prod[i + j] + ca * cb) % p
            # reduce by the modulus (monic of degree k)
            for top in range(len(prod) - 1, k - 1, -1):
                c = prod[top]
                if c:
                    prod[top] = 0
                    for j in range(k):
                        prod[top - k + j] = (prod[top - k + j] - c * mod[j]) % p
            return _undigits(prod[:k], p)

        add = bytes(
            _undigits([(x + y) % p for x, y in zip(_digits(a, p, k),
                                                   _digits(b, p, k))], p)
            for a in range(q) for b in range(q))
        mul = bytes(poly_mul(a, b) for a in range(q) for b in range(q))

    neg = bytearray(q)
    inv = bytearray(q)
    for a in range(q):
        neg[a] = next(b for b in range(q) if add[a * q + b] == 0)
        if a:
            inv[a] = next(b for b in range(1, q) if mul[a * q + b] == 1)

    gen = None
    for a in range(2, q):
        x, order = a, 1
        while x != 1:
            x = mul[x * q + a]
            order += 1
        if order == q - 1:
            gen = a
            break
    if gen is None:
        if q == 2:
            gen = 1
        else:
            raise ConfigError(f"no multiplicative generator found for q = {q}")
    return Field(q=q, p=p, k=k, add=bytes(add), mul=bytes(mul),
                 neg=bytes(neg), inv=bytes(inv), gen=gen)
