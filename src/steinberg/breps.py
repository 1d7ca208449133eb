"""Character-level algebra of B-representations.

A B-representation enters every computation here only through its multiset of
torus weights, so the module works with canonical weight multisets and a small
expression language naming the standard constructions:

    atoms       b, n, g, g/b, F(a,b)        (F(a) in the SL2 case)
    operators   *  (tensor),  +  (direct sum),  wedge^j(.),  sym^k(.),
                dual(.),  tw(a,b)(.)         (twist by a character)

ASCII input also accepts the unicode aliases ``⊗`` and ``⊕``.  Parsing is
whitespace-insensitive, and integers are ASCII digits.

``F(a,b)`` is read off a count of Gelfand-Tsetlin patterns (see
:func:`irreducible_multiset`); the Kostant multiplicity formula it replaced
is kept as the independent oracle in ``tests/test_breps.py``.

``tensor``, ``wedge`` and ``sym`` add weights as packed ints: (a, b) is
a 2^s + b, (a,) is a and () is 0; they refuse weights of a higher rank.  The
width s is picked per construction so that each coordinate of the result lies
in [-2^(s-1), 2^(s-1)): s = bit_length(bound) + 1, where bound is the sum of
the largest input coordinates (tensor) or j times the largest (a j-th power).
Int order is then tuple order, so the result is sorted as ints and decoded
once into ``items``, which stay tuples: a packed int depends on its
construction's width, the tuple does not.

``parse_rep(text, builder)`` hands each construction to a builder as soon as
its operands are read: ``build_rep`` builds weight multisets,
``liealg.build_based_rep`` explicit models.  A text nested too deeply for the
interpreter's stack is a parse error.

``build_rep(text)`` keeps what it builds in ``store``, a plain dict from
(text, datum rank) to weight multiset of at most ``STORE_CAP`` entries,
cleared when full, so the text just built is always present.  A text that
fails to parse or build is never stored: it raises on every call, with the
same message.  A stored multiset is shared by every caller asking its text;
it is immutable, and it keeps the Bott summary ``bwb`` stores in it, so a
text asked again is not summarised again.
"""

from __future__ import annotations

import operator
from math import comb

from .fieldops import Frozen, set_field
from .weights import A1, A2, RootDatum, Weight


# -- packed weights ------------------------------------------------------------


def _bound(items) -> int:
    """The largest absolute value of a coordinate of the weights in items."""
    return max((abs(x) for w, _ in items for x in w), default=0)


def _width(bound: int) -> int:
    """The field width s that holds every coordinate x with |x| <= bound:
    -2^(s-1) <= x < 2^(s-1)."""
    return bound.bit_length() + 1


def _pack(items, rank: int, s: int) -> list[tuple[int, int]]:
    """(packed weight, multiplicity) for each item: (a, b) becomes the int
    a 2^s + b, (a,) becomes a and () becomes 0, so packing is additive and,
    for weights whose lower field fits in s bits, keeps the order of the
    tuples.  Root data have ranks 0 to 2 only; a higher rank is refused."""
    try:
        if rank == 2:
            return [((a << s) + b, m) for (a, b), m in items]
        if rank == 1:
            return [(a, m) for (a,), m in items]
        if rank == 0:
            return [(0, m) for (), m in items]
    except ValueError:  # a weight of another length fails to unpack
        raise ValueError("weights of different ranks") from None
    raise ValueError(f"weights of rank {rank}: packed weights have rank 0, 1 or 2")


def _unpack(acc: dict[int, int], rank: int, s: int) -> "WeightMultiset":
    """The multiset of the packed weight: multiplicity pairs in acc, all
    multiplicities positive, decoded once, in sorted order.  Adding 2^(s-1)
    to the lower field of a rank-2 weight makes it nonnegative, so that it
    reads off with a mask and a shift."""
    pairs = sorted(acc.items())
    half, mask = 1 << (s - 1), (1 << s) - 1
    if rank == 2:
        items = []
        for v, m in pairs:
            t = v + half
            items.append(((t >> s, (t & mask) - half), m))
    elif rank == 1:
        items = [((v,), m) for v, m in pairs]
    else:
        items = [((), m) for _, m in pairs]
    ms = WeightMultiset.__new__(WeightMultiset)
    set_field(ms, "items", tuple(items))
    set_field(ms, "bott", None)
    return ms


class WeightMultiset(Frozen):
    """Finite multiset of weights; canonical (sorted) and immutable.

    `bott` is None until `bwb` first reads the multiset and stores there its
    Bott summary, a pure function of `items`; it takes no part in equality,
    hashing or pickling.
    """

    __slots__ = ("items", "bott")
    _shown = ("items",)

    def __init__(self, data):
        if isinstance(data, dict):
            pairs = data.items()
        else:
            acc: dict[Weight, int] = {}
            for w in data:
                acc[w] = acc.get(w, 0) + 1
            pairs = acc.items()
        items = sorted([(w, m) for w, m in pairs if m])
        for _, m in items:
            if m < 0:
                raise ValueError("negative multiplicity")
        set_field(self, "items", tuple(items))
        set_field(self, "bott", None)

    def __reduce__(self):
        # __init__ reads a list as weights, a dict as weight: multiplicity
        return WeightMultiset, (dict(self.items),)

    def __iter__(self):
        return iter(self.items)

    def __repr__(self):
        inner = ", ".join(f"{w}:{m}" for w, m in self.items)
        return "{" + inner + "}"

    @property
    def dimension(self) -> int:
        return sum(m for _, m in self.items)

    def multiplicity(self, mu: Weight) -> int:
        for w, m in self.items:
            if w == mu:
                return m
        return 0

    # -- constructions -----------------------------------------------------

    def add(self, *others: "WeightMultiset") -> "WeightMultiset":
        """The sum of self and others, in one pass however many summands."""
        acc = dict(self.items)
        for other in others:
            for w, m in other.items:
                acc[w] = acc.get(w, 0) + m
        return WeightMultiset(acc)

    def tensor(self, other: "WeightMultiset") -> "WeightMultiset":
        if not self.items or not other.items:
            return WeightMultiset({})
        rank = self._rank()
        s = _width(_bound(self.items) + _bound(other.items))
        right = _pack(other.items, rank, s)
        acc: dict[int, int] = {}
        get = acc.get
        for v1, m1 in _pack(self.items, rank, s):
            for v2, m2 in right:
                key = v1 + v2
                acc[key] = get(key, 0) + m1 * m2
        return _unpack(acc, rank, s)

    def wedge(self, j: int) -> "WeightMultiset":
        """The t^j coefficient of prod (1 + t x^w)^m over the weights w of
        multiplicity m."""
        if j < 0:
            raise ValueError("wedge power must be nonnegative")
        if j > self.dimension:
            return WeightMultiset({})
        return self._power(j, lambda m, a: comb(m, a))

    def sym(self, k: int) -> "WeightMultiset":
        """The t^k coefficient of prod (1 - t x^w)^(-m) over the weights w of
        multiplicity m."""
        if k < 0:
            raise ValueError("sym power must be nonnegative")
        return self._power(k, lambda m, a: comb(m + a - 1, a))

    def _power(self, j: int, coeff) -> "WeightMultiset":
        """The t^j coefficient of prod over (w, m) of sum_a coeff(m, a) t^a x^{a w}
        (Macdonald, Symmetric Functions and Hall Polynomials, I.2).

        layers[k] holds the t^k coefficient of the product so far, on packed
        weights; folding in one factor updates the layers from the top down,
        so each reads the lower layers before they change.  A weight of the
        result is a sum of j weights of self, which bounds the width.
        """
        rank = self._rank()
        s = _width(j * _bound(self.items))
        layers: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(j)]
        for w, m in _pack(self.items, rank, s):
            # the factor's terms c t^a x^{a w}, a >= 1, up to the first c = 0
            terms = []
            for a in range(1, j + 1):
                c = coeff(m, a)
                if not c:
                    break
                terms.append((a, c, a * w))
            for k in range(j, 0, -1):
                acc = layers[k]
                get = acc.get
                for a, c, shift in terms:
                    if a > k:
                        break
                    for v, n in layers[k - a].items():
                        key = v + shift
                        acc[key] = get(key, 0) + c * n
        return _unpack(layers[j], rank, s)

    def dual(self) -> "WeightMultiset":
        return WeightMultiset({tuple(map(operator.neg, w)): m for w, m in self.items})

    def twist(self, lam: Weight) -> "WeightMultiset":
        return WeightMultiset({tuple(map(operator.add, w, lam)): m for w, m in self.items})

    def _rank(self) -> int:
        return len(self.items[0][0]) if self.items else 0


# -- parsing -------------------------------------------------------------------


class RepParseError(ValueError):
    """Malformed rep expression; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# each alias is one character, so positions in the mapped text are positions
# in the input
_TOKEN_ALIASES = str.maketrans({"⊗": "*", "⊕": "+"})


class _Parser:
    """Recursive descent over the text, handing each construction to the
    builder as soon as its operands are read; pos always rests on the start
    of the next token (or the end), because every consumed token skips the
    whitespace after it."""

    def __init__(self, text: str, builder):
        self.text = text.translate(_TOKEN_ALIASES)
        self.pos = 0
        self.build = builder
        self.skip_ws()

    def error(self, msg: str):
        raise RepParseError(msg, self.pos)

    def skip_ws(self):
        text, pos = self.text, self.pos
        while pos < len(text) and text[pos].isspace():
            pos += 1
        self.pos = pos

    def peek(self) -> str:
        return self.text[self.pos:self.pos + 1]

    def eat(self, s: str):
        if not self.text.startswith(s, self.pos):
            self.error(f"expected {s!r}")
        self.pos += len(s)
        self.skip_ws()

    def integer(self) -> int:
        text, start = self.text, self.pos
        pos = start + 1 if text.startswith("-", start) else start
        # ASCII digits only: str.isdigit also accepts superscripts, which int() refuses
        while pos < len(text) and "0" <= text[pos] <= "9":
            pos += 1
        self.pos = pos
        if pos == start or text[start:pos] == "-":
            self.error("expected integer")
        self.skip_ws()
        return int(text[start:pos])

    def int_tuple(self) -> tuple[int, ...]:
        self.eat("(")
        vals = [self.integer()]
        while self.peek() == ",":
            self.eat(",")
            vals.append(self.integer())
        self.eat(")")
        return tuple(vals)

    def parse(self):
        e = self.sum_expr()
        if self.pos != len(self.text):
            self.error(f"trailing input {self.text[self.pos:]!r}")
        return e

    def sum_expr(self):
        # a + chain goes to the builder once, as all of its summands
        terms = [self.tensor_expr()]
        while self.peek() == "+":
            self.eat("+")
            terms.append(self.tensor_expr())
        return self.build.sum(*terms) if len(terms) > 1 else terms[0]

    def tensor_expr(self):
        e = self.factor()
        while self.peek() == "*":
            self.eat("*")
            e = self.build.tensor(e, self.factor())
        return e

    def argument(self):
        self.eat("(")
        e = self.sum_expr()
        self.eat(")")
        return e

    def factor(self):
        text, pos, build = self.text, self.pos, self.build
        if text.startswith("(", pos):
            return self.argument()
        for kw in ("wedge^", "sym^"):
            if text.startswith(kw, pos):
                self.eat(kw)
                power = self.integer()
                arg = self.argument()
                return build.wedge(arg, power) if kw == "wedge^" else build.sym(arg, power)
        for kw in ("twist", "tw"):
            if text.startswith(kw, pos):
                self.eat(kw)
                shift = self.int_tuple()
                return build.twist(self.argument(), shift)
        if text.startswith("dual", pos):
            self.eat("dual")
            return build.dual(self.argument())
        if text.startswith("F", pos):
            self.eat("F")
            return build.irreducible(self.int_tuple())
        for name in ("g/b", "b", "n", "g"):
            if text.startswith(name, pos):
                self.eat(name)
                return build.atom(name)
        self.error("expected an atom or operator")


def parse_rep(text: str, builder):
    """What builder makes of text.  The parser calls builder.atom(name),
    builder.irreducible(highest), builder.tensor(x, y), builder.sum(x, y,
    ...) (once per + chain, with all of its summands), builder.wedge(x, j),
    builder.sym(x, k), builder.dual(x) and builder.twist(x, shift) as soon as
    their operands are read, so an error that a construction raises comes
    before a syntax error later in the text."""
    parser = _Parser(text, builder)
    try:
        return parser.parse()
    except RecursionError:
        raise RepParseError("expression nested too deeply", parser.pos) from None


# -- atoms and characters --------------------------------------------------------


def _atom_table(datum: RootDatum) -> dict[str, WeightMultiset]:
    # n has the negative roots, b adds the torus, g/b has the positive roots
    pos = list(datum.simple_roots) + ([datum.rho] if datum.rank == 2 else [])
    neg = [datum.neg(r) for r in pos]
    torus = [(0,) * datum.rank] * datum.rank
    return {"n": WeightMultiset(neg), "b": WeightMultiset(neg + torus),
            "g/b": WeightMultiset(pos), "g": WeightMultiset(neg + pos + torus)}


# built once per rank and shared by every expression: a multiset is immutable
_ATOMS = {datum.rank: _atom_table(datum) for datum in (A1, A2)}


def irreducible_multiset(highest: Weight, datum: RootDatum) -> WeightMultiset:
    """Weight multiset of V(highest), by counting Gelfand-Tsetlin patterns
    (Gelfand and Tsetlin, Dokl. Akad. Nauk SSSR 71, 1950).

    In rank 1, V(a) has the weights a, a-2, ..., -a, each once.  In rank 2,
    V(a,b) is the GL3 module of the partition (a+b, b, 0).  Its basis is the
    patterns with that top row, a middle row (p, q) and a bottom entry r,
    interlacing: a+b >= p >= b >= q >= 0 and p >= r >= q.  A pattern has
    epsilon-weight (r, s-r, a+2b-s) with s = p + q, so fundamental
    coordinates (2r - s, 2s - r - a - 2b).  For fixed (r, s), q = s - p, and
    the conditions on p read max(b, s-b, r, s-r) <= p <= min(a+b, s), which
    counts the multiplicity.
    """
    if len(highest) != datum.rank:
        raise ValueError(f"weight {highest} has wrong rank for this datum")
    if not datum.dominant(highest):
        raise ValueError(f"F({highest}): highest weight must be dominant")
    if datum.rank == 1:
        (a,) = highest
        return WeightMultiset({(a - 2 * k,): 1 for k in range(a + 1)})
    a, b = highest
    top, size = a + b, a + 2 * b
    acc: dict[Weight, int] = {}
    for s in range(b, size + 1):
        lo, hi = max(b, s - b), min(top, s)
        for r in range(s - hi, hi + 1):
            mult = hi - max(lo, r, s - r) + 1
            if mult > 0:
                acc[(2 * r - s, 2 * s - r - size)] = mult
    return WeightMultiset(acc)


# the most texts the store holds
STORE_CAP = 256

# (text, datum rank) -> weight multiset, filled by build_rep
store: dict[tuple[str, int], WeightMultiset] = {}


def build_rep(text: str, datum: RootDatum = A2) -> WeightMultiset:
    """The weight multiset of a rep text, from the store, or else built and
    stored.  A full store is cleared first.  A text that fails raises before
    it is stored."""
    key = (text, datum.rank)
    rep = store.get(key)
    if rep is None:
        rep = parse_rep(text, _Characters(datum))
        if len(store) >= STORE_CAP:
            store.clear()
        store[key] = rep
    return rep


class _Characters:
    """The builder of weight multisets over a root datum."""

    def __init__(self, datum: RootDatum):
        self.datum = datum

    def atom(self, name: str) -> WeightMultiset:
        return _ATOMS[self.datum.rank][name]

    def irreducible(self, highest: Weight) -> WeightMultiset:
        return irreducible_multiset(highest, self.datum)

    tensor = staticmethod(WeightMultiset.tensor)
    sum = staticmethod(WeightMultiset.add)
    dual = staticmethod(WeightMultiset.dual)

    # a zeroth power is trivial, also of a zero multiset, whose rank the
    # multiset cannot tell
    def wedge(self, x: WeightMultiset, j: int) -> WeightMultiset:
        return x.wedge(j) if j else WeightMultiset({(0,) * self.datum.rank: 1})

    def sym(self, x: WeightMultiset, k: int) -> WeightMultiset:
        return x.sym(k) if k else WeightMultiset({(0,) * self.datum.rank: 1})

    def twist(self, x: WeightMultiset, shift: Weight) -> WeightMultiset:
        if len(shift) != self.datum.rank:
            raise ValueError(f"twist {shift} has wrong rank for this datum")
        return x.twist(shift)
