"""Exact coefficient fields (Q and prime fields) and sparse linear algebra.

Vectors are dicts {index: nonzero coefficient}; subspaces are kept as row
echelon bases with pivots at the smallest nonzero index, which makes every
reduction and every choice of complement deterministic.  `span_coords` is the
one solver for coordinates in the span of independent vectors.  The `vec_*`
helpers are the sparse arithmetic of vectors and polynomials alike: a
polynomial is a vector indexed by monomials, and `PolyRing` adds, subtracts
and scales through them.  Over the integers `ZZ` they update the library's
one integer vector format, the sparse rows {column: nonzero int} of
`polyalg`'s Smith and Hermite forms, in which `cases` writes its degree-3
span rows.

An element of Q is an `int` when it is integral and a `Fraction` otherwise:
`QQ.of` and `QQ.inv` return that form, and sums and products follow Python's
numeric tower (an integral `Fraction` that they leave equals, and hashes
like, its `int`).

The dense matrix helpers `mat_mul`, `mat_add`, `mat_sub`, `mat_trace` and
`mat_det` (n <= 3) take the coefficient ring as a parameter: anything with
`add`, `sub` and `mul`, such as a field above, the integers `ZZ` or a
polynomial ring.  `mat_mul` and `mat_det` are straight-line for n = 2 and 3,
with the same order of ring operations as the general formulas.

`Record` and `Frozen` are the bases of the library's record classes.  A
record names its fields in `__slots__` and writes out its own `__init__`; the
base gives it equality with records of its class and a `Name(field=value)`
repr.  A `Frozen` record hashes by its fields, and its `__init__` writes each
field through `set_field`: any later assignment raises `AttributeError`.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import reduce
from math import isqrt
from types import SimpleNamespace


class InvariantError(ValueError):
    """A computed result broke an invariant that the certification relies on.

    Raised instead of `assert`, so that the check also runs under `python -O`.
    """


class Record:
    """Mutable and unhashable; equality and repr read the fields in `_shown`,
    all of `__slots__` unless the class names fewer."""

    __slots__ = ()

    def __init_subclass__(cls):
        shown = cls._shown = cls.__dict__.get("_shown", cls.__slots__)
        # _key(record): the tuple of its shown fields, which attrgetter builds
        # in C when there are at least two
        if len(shown) > 1:
            cls._key = operator.attrgetter(*shown)
        elif shown:
            name, = shown
            cls._key = staticmethod(lambda record: (getattr(record, name),))
        else:
            cls._key = staticmethod(lambda record: ())

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    """Immutable and hashable by its fields."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, *value):  # no value for a deletion
        raise AttributeError(f"field {name!r} of a {type(self).__name__} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self.__slots__])


set_field = object.__setattr__  # the one write of a Frozen field, in its __init__


class RationalField:
    name = "QQ"
    characteristic = 0

    zero = 0
    one = 1

    @staticmethod
    def of(n) -> int | Fraction:
        """n as an int when it is integral, else as a Fraction."""
        q = Fraction(n)
        return q.numerator if q.denominator == 1 else q

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def inv(a):
        return RationalField.of(Fraction(1) / a)

    def __repr__(self):
        return "QQ"


def is_prime(n: int) -> bool:
    """Trial division up to the square root."""
    if n < 2:
        return False
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


class PrimeField:
    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"GF({p})"
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def of(self, n) -> int:
        if isinstance(n, Fraction):
            den = n.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return n.numerator % self.p * pow(den, -1, self.p) % self.p
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def __repr__(self):
        return self.name


_GF_CACHE: dict[int, PrimeField] = {}
QQ = RationalField()

# The integers, as a coefficient ring of the dense matrix helpers and of
# vec_iadd_scaled.
ZZ = SimpleNamespace(add=operator.add, sub=operator.sub, mul=operator.mul, zero=0)


def field_of(char) -> RationalField | PrimeField:
    """char 0 gives Q; a prime gives GF(p)."""
    if char == 0:
        return QQ
    p = int(char)
    if p not in _GF_CACHE:
        _GF_CACHE[p] = PrimeField(p)
    return _GF_CACHE[p]


# -- sparse vectors ------------------------------------------------------------


def vec_iadd_scaled(field, acc: dict, v: dict, c) -> None:
    """acc += c * v in place, dropping zeros."""
    if c == field.zero:
        return
    for i, x in v.items():
        s = field.add(acc.get(i, field.zero), field.mul(c, x))
        if s == field.zero:
            acc.pop(i, None)
        else:
            acc[i] = s


def vec_scale(field, v: dict, c) -> dict:
    if c == field.zero:
        return {}
    return {i: field.mul(c, x) for i, x in v.items()}


def vec_sub(field, u: dict, v: dict) -> dict:
    out = dict(u)
    vec_iadd_scaled(field, out, v, field.neg(field.one))
    return out


def apply_op(field, op_cols, v: dict) -> dict:
    """Apply a sparse column-major operator to a sparse vector."""
    out: dict = {}
    for j, c in v.items():
        vec_iadd_scaled(field, out, op_cols[j], c)
    return out


class Echelon:
    """Row echelon basis of a subspace: each row has a pivot, its least
    nonzero index, with coefficient 1, and no two rows share one.  Older
    rows are not reduced against a new pivot: ranks, pivots, normal forms
    and coordinates are the same for every echelon basis of the span.

    `reduce` terminates: eliminating pivot p adds only indices above p, so
    by induction from the least pivot each pivot is eliminated finitely
    often.
    """

    def __init__(self, field):
        self.field = field
        self.rows: dict[int, dict] = {}  # pivot index -> row with that pivot = 1

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, v: dict) -> dict:
        f = self.field
        out = dict(v)
        while True:
            hit = None
            for i in out:
                if i in self.rows:
                    hit = i
                    break
            if hit is None:
                return out
            vec_iadd_scaled(f, out, self.rows[hit], f.neg(out[hit]))

    def insert(self, v: dict) -> bool:
        """Reduce v and add it to the basis; False if dependent."""
        f = self.field
        r = self.reduce(v)
        if not r:
            return False
        piv = min(r)
        inv = f.inv(r[piv])
        self.rows[piv] = {i: f.mul(inv, c) for i, c in r.items()}
        return True

    def contains(self, v: dict) -> bool:
        return not self.reduce(v)


def span_rank(field, vectors) -> int:
    ech = Echelon(field)
    for v in vectors:
        ech.insert(v)
    return ech.rank


def span_coords(field, vectors):
    """Coordinates in the span of independent vectors.

    Returns w -> {k: c_k} with w = sum c_k vectors[k], or None when w lies
    outside the span.  Raises ValueError when the vectors are dependent.
    """
    # augment vector k by the coordinate offset + k; the pivots sit at the
    # smallest index, so dependent vectors leave a pivot at or past offset
    offset = 1 + max((i for v in vectors for i in v), default=-1)
    ech = Echelon(field)
    for k, v in enumerate(vectors):
        u = dict(v)
        u[offset + k] = field.one
        ech.insert(u)
    if any(piv >= offset for piv in ech.rows):
        raise ValueError("vectors must be independent")

    def coords(w: dict):
        if any(i >= offset for i in w):
            return None
        r = ech.reduce(w)
        if any(i < offset for i in r):
            return None
        return {i - offset: field.neg(c) for i, c in r.items()}

    return coords


# -- dense matrices over a ring --------------------------------------------------


def mat_mul(ring, a, b):
    add, mul = ring.add, ring.mul
    if len(a) == len(b) == len(b[0]) == 2:
        (x0, x1), (y0, y1) = b
        return [[add(mul(r0, x0), mul(r1, y0)), add(mul(r0, x1), mul(r1, y1))]
                for r0, r1 in a]
    if len(a) == len(b) == len(b[0]) == 3:
        (x0, x1, x2), (y0, y1, y2), (z0, z1, z2) = b
        return [[add(add(mul(r0, x0), mul(r1, y0)), mul(r2, z0)),
                 add(add(mul(r0, x1), mul(r1, y1)), mul(r2, z1)),
                 add(add(mul(r0, x2), mul(r1, y2)), mul(r2, z2))] for r0, r1, r2 in a]
    cols = list(zip(*b))
    return [[reduce(add, map(mul, row, col)) for col in cols] for row in a]


def mat_add(ring, a, b):
    return [[ring.add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(ring, a, b):
    return [[ring.sub(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_trace(ring, a):
    return reduce(ring.add, (a[i][i] for i in range(len(a))))


def mat_det(ring, a):
    add, sub, mul = ring.add, ring.sub, ring.mul
    n = len(a)
    if n == 2:
        (a0, a1), (b0, b1) = a
        return sub(mul(a0, b1), mul(a1, b0))
    if n == 3:
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = a
        return sub(add(add(mul(mul(a0, b1), c2), mul(mul(a1, b2), c0)), mul(mul(a2, b0), c1)),
                   add(add(mul(mul(a2, b1), c0), mul(mul(a1, b0), c2)), mul(mul(a0, b2), c1)))
    raise ValueError("determinant modelled for n <= 3 only")
