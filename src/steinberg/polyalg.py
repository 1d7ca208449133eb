"""Exact multivariate polynomial algebra: Buchberger, Hilbert data, SNF.

Monomials are exponent tuples ordered by degrevlex.  Polynomials are sparse
{monomial: coefficient} dicts over Q or a prime field, which `PolyRing`
adds, subtracts and scales by the vector helpers of `fieldops`.

Groebner input is homogeneous; `groebner` raises TruncationError on anything
else.  The driver is degree-stratified: S-pairs are processed degree by
degree, pairs above the truncation bound are never built (sound for
homogeneous ideals: the basis is exact through its bound, and complete
only when built with bound None), and the input generators surviving
reduction at each degree are counted, which yields the graded minimal
generator counts of the ideal as a byproduct.
Everything is deterministic for a fixed input order.
The one inhomogeneous ideal the certifier reduces by, (q*r - 1) for the
Laurent ring of a chart, is built with its Groebner data by `unit_basis`,
and `normal_form` reduces by it like any other basis: the reference
reducer takes its terms by degree first.

Inside the Groebner worker every monomial is one Python int (`_Packing`):
7-bit fields, each with a guard bit above it, hold the exponents of the
variables, and the top field holds the total degree.  A product is one
addition, a divisibility test one subtraction and a guard-bit mask, an lcm
a few word operations, and the int with its exponent fields complemented
compares as degrevlex.  Every polynomial the worker reduces is homogeneous,
and within one degree the smallest packed int is the degrevlex maximum, so
the reduction heap holds the packed ints themselves.  An exponent or degree
above 127 raises
InvariantError instead of wrapping.  Generators are packed once on entry,
and the reduced basis is unpacked once on exit, into `IdealBasis.gb` and
`gb_lead`; outside the worker monomials are tuples.

Each basis element is kept in an integer form (monic residues over GF(p);
over Q the primitive integer polynomial with positive leading coefficient),
and reduction is fraction-free: the input's denominators are cleared once,
every step runs on Python ints, and the remainder is rescaled only when a
reducer's leading coefficient is not 1.  Over Q the exact remainder is the
integer one divided by the tracked scale, once, at the end.

Each degree is interreduced at its end, before the pairs of the next
degree start from its forms, so the run ends with the reduced basis.

Each degree's S-pairs are first selected, then reduced.  `select` pops
them in heap order, marks each treated, and keeps those the coprime and
chain criteria leave; it needs no remainder, since an element entered in
degree d has no pair of lcm degree d.  The kept pairs t = 0, 1, ... are
then reduced in order, each by the basis and the remainders before it.
Let v_t be pair t's S-polynomial reduced by the elements of lower degree
alone, each monomial by its first divisor: a linear map.  Pair t adds an
element exactly when v_t is not in the span of v_0, ..., v_{t-1}, and the
element's lm is the one lm that span gains.

From `_SPLIT_PAIRS` kept pairs on, when `helper.forked` forks a child, the
child reduces the second half of them: each pair by the basis and the
child's remainders before it, which enter as reducers of their own lms
only.  It sends back the basis forms of its nonzero remainders, and its
record.  The parent reduces the first half as one process would, then each
child form, in order, by the basis as it stands, and adds those that do
not reduce to zero.  The form of pair t is v_t minus a combination of the
earlier v_s of the child's half, and the basis spans v_0, ..., v_{t-1}: so
the form reduces to zero exactly when pair t would have, and otherwise to
an element with the same lm.  The elements enter in the same order with
the same lms, the interreduction gives the same forms, and the next degree
starts from the same state.  So `gb`, `gb_lead`, `mingens` and the work
counters are those of one process.  A process that is one side of a split,
as `verify_all`'s two are, forks no child (see `helper`).

A run over Q records the integers it divided by (`IdealBasis.divisors`, as
their lcm): the content `_basis_form` divides out and the leading
coefficient it keeps, each time an element is entered and each time its
degree is interreduced.  Every other multiplier of the run, in an S-pair
or a reduction step, divides a leading coefficient so recorded.  Let l
divide none of these integers (a lucky prime: Traverso, ISSAC 1988;
Arnold, JSC 35, 2003).  Then every multiplier of the run over Q is an
l-unit, so at every step the state of the unguided run over GF(l), on the
generators reduced mod l, is a unit times the state of the run over Q mod
l: a coefficient that is 0 mod l is a step the GF(l) run skips, a
reduction to zero stays one, and a nonzero remainder stays nonzero mod l
with the same leading monomial.  So the whole run over GF(l) is the run
over Q mod l step for step, with the same pairs skipped and reduced, and
its basis is the basis over Q mod l, each element made monic.  A split
degree keeps this: over Q the record is the lcm of both processes'
records, every multiplier in either divides a leading coefficient one of
them recorded, so a run over GF(l) split the same way mirrors the run over
Q step for step, and the reduced basis over GF(l) does not depend on
whether its run was split.

A generator g over Q that vanishes mod l is no exception.  The run
reduces s*g, where s, the lcm of g's denominators, is an l-unit, so every
coefficient of s*g is divisible by l.  Each reduction step multiplies by
a/gcd(a, c) and subtracts (c/gcd(a, c)) * x^k * g_k, where a is a recorded
leading coefficient and so an l-unit: the polynomial stays divisible by l.
A nonzero remainder would put l into the record, through the content
`_basis_form` divides out; so g reduces to zero.  A generator that reduces
to zero changes neither the run's state nor its minimal-generator counts,
and the run over GF(l) never sees g at all.

A run over GF(l) may be guided by a basis over Q, with the run's bound, of
the ideal whose generators reduce mod l to its own (an l-integral list).
When l divides nothing that run recorded, the basis is read off the guide
with no worker built; otherwise the guide is set aside and the run is
unguided.

The lift trusts the guide: a basis over Q missing an element of degree d
is read off as it is, and the Hilbert function of the basis read off
agrees with the faulty one.  So agreement of HF over Q, F5 and F7
certifies flatness only together with a check of the Q side against an
independent count, as the Hilbert cross check against the character side
does.

Module-level `normal_form` reduces by `gb_lead` on exponent tuples, with its
own small reducer that shares no logic with the packed kernel.  The tests
read every certificate back through it, so a kernel fault cannot hide
behind its own reader.

Graded data come from the leading staircase, the minimal (leading monomial,
support mask) pairs of the basis, through the numerator N(t) of the Hilbert
series N(t) / (1 - t)^n of S/LT(I), computed by Bigatti's pivot recursion.
S/I has the same series: HF is read off N, and the Krull dimension is the
order of the pole at t = 1.
"""

from __future__ import annotations

import heapq
import operator
from contextlib import nullcontext
from fractions import Fraction
from itertools import accumulate
from math import comb, gcd, lcm

from .fieldops import (ZZ, Echelon, Frozen, InvariantError, Record, field_of, set_field,
                       vec_iadd_scaled, vec_scale, vec_sub)
from .helper import forked

Monomial = tuple[int, ...]
Poly = dict


class PolyRing:
    """Ordered variable list over Q or a prime field; degrevlex throughout."""

    def __init__(self, names, domain=0):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be unique")
        self.n = len(self.names)
        self.domain = field_of(domain)
        self._index = {nm: i for i, nm in enumerate(self.names)}

    def __repr__(self):
        return f"PolyRing({self.domain!r}, {','.join(self.names)})"

    # -- element constructors ------------------------------------------------

    def zero(self) -> Poly:
        return {}

    def const(self, c) -> Poly:
        c = self.domain.of(c)
        return {} if c == self.domain.zero else {(0,) * self.n: c}

    def var(self, name) -> Poly:
        e = [0] * self.n
        e[self._index[name]] = 1
        return {tuple(e): self.domain.one}

    def monomial(self, exps, c=1) -> Poly:
        c = self.domain.of(c)
        return {} if c == self.domain.zero else {tuple(exps): c}

    # -- arithmetic ------------------------------------------------------------

    def add(self, a: Poly, b: Poly) -> Poly:
        out = dict(a)
        vec_iadd_scaled(self.domain, out, b, self.domain.one)
        return out

    def sub(self, a: Poly, b: Poly) -> Poly:
        return vec_sub(self.domain, a, b)

    def scale(self, a: Poly, c) -> Poly:
        return vec_scale(self.domain, a, self.domain.of(c))

    def mul(self, a: Poly, b: Poly) -> Poly:
        d = self.domain
        if len(a) > len(b):
            a, b = b, a
        out: Poly = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = tuple(map(operator.add, ma, mb))
                s = d.add(out.get(m, d.zero), d.mul(ca, cb))
                if s == d.zero:
                    out.pop(m, None)
                else:
                    out[m] = s
        return out

    def mul_term(self, a: Poly, m: Monomial, c) -> Poly:
        d = self.domain
        return {tuple(map(operator.add, ma, m)): d.mul(c, ca) for ma, ca in a.items()}

    def pow(self, a: Poly, k: int) -> Poly:
        out = self.const(1)
        for _ in range(k):
            out = self.mul(out, a)
        return out

    def substitute(self, a: Poly, table: dict, dst: "PolyRing") -> Poly:
        """Push a into dst: table maps a variable name to its image in dst;
        a variable missing from table goes to dst's variable of that name."""
        out = dst.zero()
        for m, c in a.items():
            term = dst.const(c)
            for nm, e in zip(self.names, m):
                if e:
                    img = table[nm] if nm in table else dst.var(nm)
                    for _ in range(e):
                        term = dst.mul(term, img)
            out = dst.add(out, term)
        return out

    # -- degrees and leading data ----------------------------------------------

    def degree(self, a: Poly) -> int:
        return max((sum(m) for m in a), default=-1)

    def is_homogeneous(self, a: Poly) -> bool:
        degs = {sum(m) for m in a}
        return len(degs) <= 1

    def lm(self, a: Poly) -> Monomial:
        return max(a, key=_drl_key)

    def homogeneous_components(self, a: Poly) -> dict[int, Poly]:
        out: dict[int, Poly] = {}
        for m, c in a.items():
            out.setdefault(sum(m), {})[m] = c
        return out

    # -- text form ---------------------------------------------------------------

    def to_text(self, a: Poly) -> str:
        if not a:
            return "0"
        parts = []
        for m in sorted(a, key=_drl_key, reverse=True):
            c = a[m]
            factors = [str(c)]
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(self.names[i])
                elif e > 1:
                    factors.append(f"{self.names[i]}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")

    def from_text(self, text: str) -> Poly:
        text = text.replace("-", "+-").replace(" ", "")
        out = self.zero()
        for tok in text.split("+"):
            if not tok:
                continue
            neg = tok.startswith("-")
            if neg:
                tok = tok[1:]
            coeff = self.domain.one
            exps = [0] * self.n
            for fac in tok.split("*"):
                if not fac:
                    raise ValueError(f"bad term {tok!r}")
                if fac[0].isdigit() or fac[0] == "/":
                    coeff = self.domain.mul(coeff, self.domain.of(Fraction(fac)))
                else:
                    name, _, p = fac.partition("^")
                    if name not in self._index:
                        raise ValueError(f"unknown variable {name!r}")
                    exps[self._index[name]] += int(p) if p else 1
            term = self.monomial(exps, self.domain.neg(coeff) if neg else coeff)
            out = self.add(out, term)
        return out


def _drl_key(m: Monomial):
    return (sum(m), tuple(-e for e in reversed(m)))


def _mask(m: Monomial) -> int:
    """Support of m as a bitmask: bit i is set when variable i occurs.  A
    divisor's support lies inside the support of what it divides."""
    out = 0
    for i, e in enumerate(m):
        if e:
            out |= 1 << i
    return out


def _integral(ring: "PolyRing", p: Poly) -> tuple[Poly, int]:
    """(h, s) with h = s * p an integer polynomial: over Q, s is the lcm of
    the denominators; over GF(p), h is p's residues and s = 1."""
    if ring.domain.characteristic:
        return dict(p), 1
    s = lcm(*(c.denominator for c in p.values()))
    return {m: c.numerator * (s // c.denominator) for m, c in p.items()}, s


def _basis_form(modulus: int, h: Poly, lm: Monomial) -> Poly:
    """The integer form a basis element is kept in, from any nonzero integer
    multiple h of it: over GF(modulus) the monic residues, over Q
    (modulus 0) the primitive polynomial with positive leading coefficient."""
    a = h[lm]
    if modulus:
        if a == 1:
            return h
        inv = pow(a, -1, modulus)
        return {m: c * inv % modulus for m, c in h.items()}
    g = gcd(*h.values())
    if a < 0:
        g = -g
    return h if g == 1 else {m: c // g for m, c in h.items()}


def _field_form(modulus: int, g: Poly, lm: Monomial) -> Poly:
    """The monic polynomial over the coefficient field that the basis form g
    stands for: over Q, g divided by its leading coefficient, each quotient
    an int where it is integral (see `fieldops`)."""
    a = g[lm]
    if modulus or a == 1:
        return g
    return {m: c // a if c % a == 0 else Fraction(c, a) for m, c in g.items()}


def _divides(a: Monomial, b: Monomial) -> bool:
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _msub(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(operator.sub, a, b))


class TruncationError(ValueError):
    """Operation needs Groebner data beyond the computed bound."""


class GroebnerStats(Record):
    """Work counters of one `groebner` run: S-pairs popped, those skipped by
    the coprime criterion and by the chain criterion, and those whose
    S-polynomial reduced to zero.  Pairs are counted, not reduction steps,
    so the counts cost nothing inside the reduction loop.  A basis read off
    its guide treated no pair: every counter is 0.  split_degrees counts the
    degrees whose pairs were reduced on two processes; it takes no part in
    equality or repr, since the split leaves the other counters as they
    are."""

    __slots__ = ("pairs", "coprime_skips", "chain_skips", "zero_reductions", "split_degrees")
    _shown = __slots__[:4]
    def __init__(self, pairs: int, coprime_skips: int, chain_skips: int, zero_reductions: int):
        self.pairs, self.coprime_skips = pairs, coprime_skips
        self.chain_skips, self.zero_reductions = chain_skips, zero_reductions
        self.split_degrees = 0


class IdealBasis(Record):
    """Generators plus (optionally) Groebner data and minimal generator counts.

    gb_bound is None for a complete basis and an integer when S-pairs above
    that degree were never built: the basis is then exact through that
    degree only, even when no pair was left out.  gb holds monic
    polynomials.  gb_lead holds (leading monomial, support mask, basis form)
    for each element of gb, in gb's order, where the basis form is the
    element's integer form: over GF(p) its monic residues, over Q the
    primitive integer polynomial with positive leading coefficient.  stats
    holds the work counters of the `groebner` run that built the basis; no
    report reads them.  divisors is, over Q, the lcm of the integers the run
    divided by: a run over GF(l) reads its basis off this one when l does
    not divide it (see the module docstring).  It is None over GF(p).
    gb_lead, stats and divisors take no part in equality or repr.
    """

    __slots__ = ("ring", "gens", "gb", "gb_bound", "mingens", "gb_lead", "stats", "divisors")
    _shown = __slots__[:5]
    def __init__(self, ring: PolyRing, gens: list, gb: list | None = None,
                 gb_bound: int | None = None, mingens: dict | None = None,
                 gb_lead: list | None = None, stats: GroebnerStats | None = None,
                 divisors: int | None = None):
        self.ring, self.gens, self.gb, self.gb_bound = ring, gens, gb, gb_bound
        self.mingens, self.gb_lead, self.stats, self.divisors = mingens, gb_lead, stats, divisors

    def require_gb(self):
        if self.gb is None:
            raise TruncationError("no Groebner data attached; call groebner() first")
        return self.gb


# -- the Groebner worker's kernel: packed monomials ------------------------------

# Bits per field.  A field and its guard bit fill one byte, so a monomial
# packs and unpacks as the little-endian bytes (e_0, ..., e_{n-1}, degree):
# on 16 variables unpack took 0.6 us against 2.7 us with 8-bit fields and a
# shift per field, and pack 1.6 us against 3.1 us.  On the complete n3-z
# basis over GF(5), 16-bit fields had run as fast as 8-bit ones.  The largest
# leading monomial of any basis the certifier builds has degree 8, far below
# the cap of 127.
_W = 7
_CAP = (1 << _W) - 1  # the largest exponent and the largest degree
_F = _W + 1  # a field and its guard bit: one byte


class _Packing:
    """Monomials in n variables packed into one non-negative int.

    Field i (bits i*F .. i*F + W - 1) holds the exponent of variable i, and
    field n holds the total degree; the bit above each field is a guard bit,
    0 in every packed monomial.  With fields no larger than the cap:
    - the product of monomials is the sum of their ints;
    - a divides b iff (b - a) & guards == 0: a field that would go negative
      borrows through its guard bit;
    - x ^ exps (every exponent field complemented) compares as degrevlex:
      degree first, then the smaller exponent of the last variable wins;
    - x itself compares as (degree, e_{n-1}, ..., e_0), the order in which
      S-pairs are treated;
    - the lcm of a and b, the fieldwise maximum, takes a's field where
      (a | guards) - b keeps the field's guard bit (a_i >= b_i) and b's
      elsewhere, and the degree field is the sum of the exponent fields.
      `_GBWorker.add_element` computes it inline, once per S-pair.
    """

    def __init__(self, n: int):
        self.n = n
        self.top = n * _F  # offset of the degree field
        self.exp_guards = sum(1 << (i * _F + _W) for i in range(n))
        self.guards = self.exp_guards | 1 << (self.top + _W)
        self.exps = sum(_CAP << (i * _F) for i in range(n))
        self.ones = sum(1 << (i * _F) for i in range(n))

    def pack(self, m: Monomial) -> int:
        d = sum(m)
        if d > _CAP or min(m, default=0) < 0:
            raise InvariantError(f"monomial {m} is outside the packed range: "
                                 f"exponents and degree must lie in 0..{_CAP}")
        return int.from_bytes(bytes((*m, d)), "little")

    def unpack(self, x: int) -> Monomial:
        return tuple(x.to_bytes(self.n + 1, "little")[:self.n])


# The fewest kept pairs of one degree that are split between two processes.
# A fork and join of a no-op take 1.5 to 2.1 ms in a process holding the
# n3-z bases (2-core x86_64, Python 3.11).  In the complete n3-x run over Q
# (medians of two batches), degree 6 keeps 32 pairs: 8.1 and 6.1 ms
# unsplit, 6.5 and 5.6 ms split; degree 3 keeps 22: 1.7 and 1.3 ms
# unsplit, 4.3 and 3.9 ms split.
_SPLIT_PAIRS = 32


class _GBWorker:
    """Buchberger's algorithm on packed monomials.

    Polynomials are {packed monomial: int} in the integer form of
    `_basis_form`; `lms[k]` is basis element k's leading monomial and
    `lead[lms[k]]` its form.  Leading monomials are pairwise distinct, since
    an element is added only after full reduction.  `tails[lm]` holds the
    same element as a reducer: its leading coefficient and the pairs
    (m - lm, c) of its other terms, built when it is entered and again when
    its degree is interreduced.

    A lm divides a monomial of its own degree only when the two are equal,
    and never one of lower degree.  So the divisor search for a degree-d
    monomial scans the lms of degree below d (`lms_below`) and then looks the
    monomial itself up in `tails`.  The scan's answer is memoized per degree
    beside its list, and both are discarded together when a lm of lower
    degree is entered, so the memo is exact."""

    def __init__(self, ring: PolyRing, bound: int | None = None):
        self.ring = ring
        self.modulus = ring.domain.characteristic  # 0 over Q
        self.pk = _Packing(ring.n)
        self.lms: list[int] = []
        self.lead: dict[int, Poly] = {}
        self.tails: dict[int, tuple[int, list]] = {}  # lm -> (lead coefficient, tail pairs)
        # d -> (lms of degree < d in index order, {m: first of them dividing m, else m})
        self.below: dict[int, tuple[list[int], dict[int, int]]] = {}
        self.pairs: list = []  # heap of (lcm, i, j)
        # the packed ints of degree <= bound, and <= the cap, lie below limit
        cap = _CAP if bound is None else min(bound, _CAP)
        self.limit = (cap + 1) << self.pk.top
        self.treated: list[set[int]] = []  # [i]: the j whose pair with i is treated
        self.stats = GroebnerStats(0, 0, 0, 0)
        self.divisors = 1  # over Q, see IdealBasis.divisors; 1 over GF(p)

    def record(self, *ints: int) -> None:
        """Over Q, take ints into the run's record."""
        if not self.modulus:
            self.divisors = lcm(self.divisors, *ints)

    def pack(self, p: Poly) -> Poly:
        """The packed integer multiple of the homogeneous p that reduction
        starts from."""
        pack = self.pk.pack
        h, _ = _integral(self.ring, p)
        return {pack(m): c for m, c in h.items()}

    def basis_form(self, h: Poly, lm: int) -> Poly:
        """`_basis_form` of h, recording the content it divides out and its
        leading coefficient."""
        g = _basis_form(self.modulus, h, lm)
        self.record(h[lm] // g[lm], g[lm])
        return g

    def lms_below(self, d: int) -> tuple[list[int], dict[int, int]]:
        low = self.below.get(d)
        if low is None:
            limit = d << self.pk.top  # the packed ints of degree < d lie below it
            low = self.below[d] = ([lm for lm in self.lms if lm < limit], {})
        return low

    def reduce(self, h: Poly) -> Poly:
        """Fraction-free reduction of the packed homogeneous integer
        polynomial h, which is consumed.  Returns a positive integer multiple
        of the remainder of h; over GF(p), its residues.

        The largest monomial c*x^m of h is reduced by the first basis element
        g, in index order, whose lm has lower degree and divides it, else by
        the element whose lm is m, as h <- a*h - c*x^(m - lm)*g, where a is
        g's leading coefficient and a, c are first divided by their gcd: h
        and the remainder are rescaled only when a != 1, which never happens
        over GF(p).  So the result is a multiple of the remainder of the
        computation over the field, step by step.  As lms are added in
        nondecreasing degree, that element is the first divisor in index
        order.  Every monomial of h has one degree d and exactly one heap
        entry, the packed int itself: within one degree the smallest int is
        the degrevlex maximum, so the heap's minimum is the next monomial to
        treat, and the lms of degree < d are read once.  Coefficients that
        cancel stay in h as zeros until they are popped."""
        if not h:
            return {}
        p, tails, guards = self.modulus, self.tails, self.pk.guards
        heappop, heappush = heapq.heappop, heapq.heappush
        heap = list(h)
        heapq.heapify(heap)
        low, first = self.lms_below(heap[0] >> self.pk.top)
        out: Poly = {}
        while heap:
            m = heappop(heap)
            c = h.pop(m)
            if p:
                c %= p
            if not c:
                continue
            lm = first.get(m)
            if lm is None:
                for lm in low:
                    if not (m - lm) & guards:
                        break
                else:
                    lm = m
                first[m] = lm
            reducer = tails.get(lm)
            if reducer is None:  # no lm of lower degree divides m, and m is no lm
                out[m] = c
                continue
            a, tail = reducer
            if a != 1:
                gd = gcd(a, c)
                a //= gd
                c //= gd
                if a != 1:
                    for k in h:
                        h[k] *= a
                    for k in out:
                        out[k] *= a
            for step, cg in tail:
                key = m + step
                cur = h.get(key)
                if cur is None:
                    h[key] = -c * cg
                    heappush(heap, key)
                else:
                    h[key] = cur - c * cg
        return out

    def enter(self, lm: int, form: Poly) -> None:
        """Make the element with leading monomial lm and basis form `form` a
        reducer of the monomial lm itself, outside the divisor scan and
        without S-pairs."""
        self.lead[lm] = form
        self.tails[lm] = (form[lm], [(mg - lm, cg) for mg, cg in form.items() if mg != lm])

    def interreduce(self, new: list[int]) -> None:
        """Tail-reduce the elements of one degree, with lms `new`, in
        increasing lm order, each by the reduced forms of those before it.
        Each was fully reduced when it entered, so a tail monomial that is a
        lm is a smaller one of its own degree, which `reduce` looks up in
        `tails`; the element itself is taken out of `tails` meanwhile.  The
        new form's content and leading coefficient are recorded."""
        tails = self.tails
        for lm in sorted(new, reverse=True):  # within one degree, increasing lm
            h = self.lead[lm]
            if any(m in tails for m in h if m != lm):
                del tails[lm]
                self.enter(lm, self.basis_form(self.reduce(dict(h)), lm))

    def add_element(self, h: Poly) -> None:
        """Append the element with the nonzero homogeneous integer multiple
        h: a reducer in the divisor scan, with its S-pairs of lcm degree up
        to the bound.  A pair above the bound is never built.  An lcm of
        degree above the cap raises InvariantError.
        Each lcm is computed inline as `_Packing` describes: a method call
        per pair took about 1.5 us against 0.9 us inline."""
        lm = min(h)  # the degrevlex maximum of one degree
        k = len(self.lms)
        pk, limit, pairs, push = self.pk, self.limit, self.pairs, heapq.heappush
        high, exp_guards, exps, ones = lm | pk.guards, pk.exp_guards, pk.exps, pk.ones
        top = pk.top
        # field n-1 of e * ones is sum(e_i); every partial sum is at most
        # 2 * cap = 254 < 2^F, so no carry crosses a field
        shift = max(pk.n - 1, 0) * _F
        for i, lmi in enumerate(self.lms):
            ge = (high - lmi) & exp_guards  # guard i set iff lm_i >= lmi_i
            take = ge - (ge >> _W)  # all ones in the fields where lm_i >= lmi_i
            e = (lm & take) | (lmi & (exps ^ take))
            l = e | ((e * ones) >> shift & 0xFF) << top
            if l < limit:
                push(pairs, (l, i, k))
            elif l >> top > _CAP:
                raise InvariantError(f"an S-pair lcm of degree {l >> top} is outside the "
                                     f"packed range 0..{_CAP}")
        self.enter(lm, self.basis_form(h, lm))
        self.lms.append(lm)
        self.treated.append(set())
        d = lm >> self.pk.top
        self.below = {e: low for e, low in self.below.items() if e <= d}

    def select(self, d: int) -> list:
        """Pop the pairs of lcm degree d in heap order, marking each treated,
        and return those that Buchberger's coprime and chain criteria leave
        to reduce.  A pair of degree d is never built while degree d runs,
        so the selection needs no remainder."""
        limit = (d + 1) << self.pk.top
        pairs, lms, treated, stats = self.pairs, self.lms, self.treated, self.stats
        kept = []
        while pairs and pairs[0][0] < limit:
            l, i, j = heapq.heappop(pairs)
            treated[i].add(j)
            treated[j].add(i)
            stats.pairs += 1
            if l == lms[i] + lms[j]:
                stats.coprime_skips += 1
            elif self.chain_skip(i, j, l):
                stats.chain_skips += 1
            else:
                kept.append((l, i, j))
        return kept

    def reduce_pairs(self, pairs: list) -> None:
        """Add the nonzero remainder of each pair's S-polynomial, in order,
        each reduced by the basis with the ones before it.  From
        `_SPLIT_PAIRS` pairs on, a forked child reduces the second half (see
        the module docstring)."""
        half = len(pairs) // 2 if len(pairs) >= _SPLIT_PAIRS else 0
        sent = None
        with forked(lambda: self.side(pairs[half:])) if half else nullcontext() as join:
            if join:
                for l, i, j in pairs[:half]:
                    self.add_remainder(self.spoly(i, j, l))
                sent = join()
        if sent is None:  # no child, or it died: the rest is reduced here
            for l, i, j in pairs[half if join else 0:]:
                self.add_remainder(self.spoly(i, j, l))
            return
        forms, divisors = sent
        self.record(divisors)
        self.stats.split_degrees += 1
        self.stats.zero_reductions += len(pairs) - half - len(forms)
        # no lm of lower degree divides a monomial of a remainder
        first = self.lms_below(pairs[0][0] >> self.pk.top)[1]
        for form in forms:
            first.update(zip(form, form))
        for form in forms:
            self.add_remainder(form)

    def side(self, pairs: list) -> tuple[list, int]:
        """A forked child's half of a split: the basis form of each pair's
        nonzero remainder by the basis and the forms before it, which enter
        as reducers of their own lms only; and the run's record."""
        forms = []
        for l, i, j in pairs:
            r = self.reduce(self.spoly(i, j, l))
            if r:
                lm = min(r)
                self.enter(lm, self.basis_form(r, lm))
                forms.append(self.lead[lm])
        return forms, self.divisors

    def add_remainder(self, h: Poly) -> None:
        """Reduce h, which is consumed, and add the remainder when nonzero."""
        r = self.reduce(h)
        if r:
            self.add_element(r)
        else:
            self.stats.zero_reductions += 1

    def spoly(self, i: int, j: int, l: int) -> Poly:
        """An integer multiple of the S-polynomial of elements i and j; its
        cancelled leading term stays in as a zero."""
        lmi, lmj = self.lms[i], self.lms[j]
        gi, gj = self.lead[lmi], self.lead[lmj]
        ai, aj = gi[lmi], gj[lmj]
        d = gcd(ai, aj)
        bi, bj = aj // d, ai // d
        si, sj = l - lmi, l - lmj
        out = {m + si: bi * c for m, c in gi.items()}
        for m, c in gj.items():
            key = m + sj
            out[key] = out.get(key, 0) - bj * c
        return out

    def chain_skip(self, i: int, j: int, l: int) -> bool:
        """Whether some other element k with lm_k | l has both of its pairs
        with i and j treated."""
        guards, lms = self.pk.guards, self.lms
        return any(not (l - lms[k]) & guards for k in self.treated[i] & self.treated[j])


def groebner(ideal: IdealBasis, bound=None, guide: IdealBasis | None = None) -> IdealBasis:
    """Reduced Groebner basis, complete up to `bound` (None = complete).

    The generators must be homogeneous; they are processed degree by degree,
    each degree interreduced at its end, and the returned IdealBasis carries
    the graded minimal-generator counts.

    `guide`, for an ideal over GF(l), is a basis over Q with the run's bound
    of the ideal whose generators reduce mod l to this ideal's (see the
    module docstring).  When l divides none of the guide's divisors, the
    basis is read off the guide; otherwise the guide is set aside and the
    run is unguided.  The guide changes the work, never the result; an
    unsuitable guide raises ValueError.
    """
    ring = ideal.ring
    gens = [g for g in ideal.gens if g]
    if not all(ring.is_homogeneous(g) for g in gens):
        raise TruncationError("degree truncation requires homogeneous generators")
    if guide is not None:
        read = _lift(ideal, bound, guide)
        if read is not None:
            return read
    worker = _GBWorker(ring, bound)
    top, exps = worker.pk.top, worker.pk.exps
    by_degree: dict[int, list] = {}
    # in degrevlex order of its lm, min(h) ^ exps
    for h in sorted(map(worker.pack, gens), key=lambda h: min(h) ^ exps):
        by_degree.setdefault(min(h) >> top, []).append(h)
    mingens: dict[int, int] = {}
    degrees = sorted(by_degree) or [0]  # no generators: one empty pass at degree 0
    d = degrees[0]
    while True:
        if bound is not None and d > bound:
            break
        start = len(worker.lms)
        # S-pairs of this degree first: they never contribute minimal generators
        worker.reduce_pairs(worker.select(d))
        for h in by_degree.get(d, ()):
            r = worker.reduce(h)
            if r:
                if max(r) >> top != d:  # the degree field of r's largest int
                    raise InvariantError(f"a degree-{d} generator reduced to degree "
                                         f"{max(r) >> top}")
                mingens[d] = mingens.get(d, 0) + 1
                worker.add_element(r)
        worker.interreduce(worker.lms[start:])
        d += 1
        if bound is None and d > degrees[-1] and not worker.pairs:
            break
    lead = _reduced_basis(worker)
    gb = [_field_form(worker.modulus, g, lm) for lm, _, g in lead]
    return IdealBasis(ring, list(ideal.gens), gb=gb, gb_bound=bound,
                      mingens=mingens, gb_lead=lead, stats=worker.stats,
                      divisors=None if worker.modulus else worker.divisors)


def _lift(ideal: IdealBasis, bound, guide: IdealBasis) -> IdealBasis | None:
    """The basis over GF(l) of ideal read off its guide, a basis over Q with
    the run's bound (see the module docstring), or None when l divides the
    guide's divisors.  Each element is its basis form's residues times the
    inverse of its leading coefficient, zeros omitted.  Raises ValueError
    when the guide is unsuitable: not a basis over Q in the same variables
    with the run's bound, not l-integral, or with generators that do not
    reduce mod l, zeros omitted, to the ideal's."""
    ring, qring = ideal.ring, guide.ring
    l = ring.domain.characteristic
    if qring.domain.characteristic or not l or qring.names != ring.names:
        raise ValueError("a guide is a basis over Q of an ideal over GF(l) "
                         "in the same variables")
    if guide.gb is None or guide.divisors is None or guide.gb_bound != bound:
        raise ValueError("the guide must be a recorded Groebner basis with the run's bound")
    of = ring.domain.of
    try:
        reduced = [{m: r for m, c in g.items() if (r := of(c))} for g in guide.gens]
    except ZeroDivisionError:
        raise ValueError(f"the guide's generators are not {l}-integral") from None
    if [g for g in reduced if g] != [dict(g) for g in ideal.gens if g]:
        raise ValueError(f"the ideal's generators are not the guide's reduced mod {l}")
    if guide.divisors % l == 0:
        return None
    lead = []
    for lm, mask, g in guide.gb_lead:
        inv = pow(g[lm], -1, l)
        lead.append((lm, mask, {m: r for m, c in g.items() if (r := c * inv % l)}))
    return IdealBasis(ring, list(ideal.gens), gb=[g for _, _, g in lead], gb_bound=bound,
                      mingens=dict(guide.mingens), gb_lead=lead,
                      stats=GroebnerStats(0, 0, 0, 0))


def _reduced_basis(worker: _GBWorker) -> list:
    """The reduced basis as gb_lead triples (lm, mask, basis form) in tuple
    form, sorted by lm.  Each degree was interreduced at its end, and a lm
    never divides a monomial of lower degree, so the worker's forms are
    already reduced."""
    pk = worker.pk
    lms = sorted(worker.lms, key=lambda lm: lm ^ pk.exps)
    return [(m, _mask(m), {pk.unpack(x): c for x, c in worker.lead[lm].items()})
            for lm, m in zip(lms, map(pk.unpack, lms))]


class _ReferenceReducer:
    """Reduction by a gb_lead basis on exponent tuples: the reference for
    the packed kernel, which shares none of this loop.  Module-level
    `normal_form` answers through it."""

    def __init__(self, ring: PolyRing, basis: list):
        self.ring = ring
        self.modulus = ring.domain.characteristic  # 0 over Q
        self.basis = basis  # (lm, mask of lm, basis form), as in gb_lead

    def reducer_index(self, m: Monomial):
        outside = ~_mask(m)
        for idx, (lm, mask, _) in enumerate(self.basis):
            if not mask & outside and _divides(lm, m):
                return idx
        return None

    def reduce(self, h: Poly) -> tuple[Poly, int]:
        """Fraction-free reduction of the integer polynomial h, which is
        consumed, by the steps of `_GBWorker.reduce`.  Returns (r, s): r = s *
        (the remainder of h), s a positive int; over GF(p), s = 1."""
        p, basis, reducer_index = self.modulus, self.basis, self.reducer_index
        heappop, heappush, add = heapq.heappop, heapq.heappush, operator.add
        heap = [(-sum(m), m[::-1], m) for m in h]
        heapq.heapify(heap)
        out: Poly = {}
        scale = 1
        while heap:
            m = heappop(heap)[2]
            c = h.pop(m)
            if p:
                c %= p
            if not c:
                continue
            idx = reducer_index(m)
            if idx is None:
                out[m] = c
                continue
            lm, _, g = basis[idx]
            a = g[lm]
            if a != 1:
                d = gcd(a, c)
                a //= d
                c //= d
                if a != 1:
                    scale *= a
                    for k in h:
                        h[k] *= a
                    for k in out:
                        out[k] *= a
            shift = _msub(m, lm)
            for mg, cg in g.items():
                if mg == lm:
                    continue
                key = tuple(map(add, mg, shift))
                cur = h.get(key)
                if cur is None:
                    h[key] = -c * cg
                    heappush(heap, (-sum(key), key[::-1], key))
                else:
                    h[key] = cur - c * cg
        return out, scale

    def normal_form(self, p: Poly) -> Poly:
        """The remainder of p, with coefficients in the ring's domain."""
        h, scale = _integral(self.ring, p)
        r, s = self.reduce(h)
        if self.modulus:
            return r
        scale *= s
        return {m: Fraction(c, scale) for m, c in r.items()}


def normal_form(p: Poly, ideal: IdealBasis) -> Poly:
    """Unique reduced remainder of p against the attached Groebner basis."""
    ring = ideal.ring
    ideal.require_gb()
    if ideal.gb_bound is not None and ring.degree(p) > ideal.gb_bound:
        raise TruncationError(
            f"degree {ring.degree(p)} exceeds the truncation bound {ideal.gb_bound}"
        )
    w = _ReferenceReducer(ring, ideal.gb_lead)
    return w.normal_form(p)


def unit_basis(ring: PolyRing) -> IdealBasis:
    """(q*r - 1), the ideal of the Laurent ring of a chart, with its Groebner
    data: the one generator is its own basis, with degrevlex leading term
    q*r, so `normal_form` by it turns each q^a r^b into q^(a-k) r^(b-k),
    k = min(a, b).  The generator is monic with integer coefficients (over
    GF(p), residues), so it is its own basis form."""
    g = ring.sub(ring.mul(ring.var("q"), ring.var("r")), ring.const(1))
    lm = ring.lm(g)
    return IdealBasis(ring, [g], gb=[g], gb_lead=[(lm, _mask(lm), g)])


# -- graded dimension data -----------------------------------------------------


class GradedDims(Frozen):
    """Degree-indexed dimensions d_0 .. d_D."""

    __slots__ = ("dims",)
    def __init__(self, dims: tuple[int, ...]):
        if any(d < 0 for d in dims):
            raise ValueError("negative graded dimension")
        set_field(self, "dims", dims)

    def __getitem__(self, k: int) -> int:
        return self.dims[k]

    def __str__(self):
        return "[" + ", ".join(str(d) for d in self.dims) + "]"


def _minimal_masked(masked) -> list[tuple[Monomial, int]]:
    """The minimal generators of the monomial ideal generated by the
    distinct (monomial, support mask) pairs `masked`, as pairs, ordered by
    degree and then by exponent tuple."""
    out: list[tuple[Monomial, int]] = []
    for m, mask in sorted(masked, key=lambda t: (sum(t[0]), t[0])):
        if not any(not omask & ~mask and _divides(o, m) for o, omask in out):
            out.append((m, mask))
    return out


def _masked_numerator(masked: list[tuple[Monomial, int]], top: int) -> list[int]:
    """Coefficients N_0 .. N_top of the numerator N(t) of the Hilbert series
    N(t) / (1 - t)^n of S/J, J generated by the minimal (monomial, support
    mask) pairs `masked`.  Bigatti's pivot recursion (JPAA 119, 1997): for a
    pivot x^e, N(J) = N(J + (x^e)) + t^e N(J : x^e).  Generators above degree
    top change N only above degree top, so they are left out on the way
    down.  Each monomial's mask is computed once, where it is made."""
    out = [0] * (top + 1)
    if top < 0:
        return out
    masked = [(m, mask) for m, mask in masked if sum(m) <= top]
    while True:
        seen = 0
        for _, mask in masked:
            if mask & seen:
                break
            seen |= mask
        else:
            # pairwise coprime generators: N = prod (1 - t^deg)
            base = [1] + [0] * top
            for m, _ in masked:
                d = sum(m)
                for i in range(top, d - 1, -1):
                    base[i] -= base[i - d]
            return [a + b for a, b in zip(out, base)]
        # pivot on the most frequent variable x, to the least exponent e it
        # occurs with: J + (x^e) keeps the generators free of x
        n = len(masked[0][0])
        counts = [0] * n
        for _, mask in masked:
            while mask:
                low = mask & -mask
                counts[low.bit_length() - 1] += 1
                mask ^= low
        x = max(range(n), key=counts.__getitem__)
        bit = 1 << x
        e = min(m[x] for m, mask in masked if mask & bit)
        colon = {(m[:x] + (m[x] - e,) + m[x + 1:], mask if m[x] > e else mask ^ bit)
                 if mask & bit else (m, mask) for m, mask in masked}
        for i, c in enumerate(_masked_numerator(_minimal_masked(colon), top - e)):
            out[i + e] += c
        masked = [(m, mask) for m, mask in masked if not mask & bit]
        masked.append((tuple(e if i == x else 0 for i in range(n)), bit))


def leading_staircase(ideal: IdealBasis, bound: int | None) -> tuple[tuple[Monomial, int], ...]:
    """The minimal (leading monomial, support mask) pairs of degree <= bound
    of the basis, ordered by degree and then by exponent tuple: all that
    HF(k <= bound) depends on.  They are the basis's own pairs, since no
    leading monomial of a reduced basis divides another.  bound None asks
    for the whole staircase, which only a complete basis (gb_bound None) has."""
    ideal.require_gb()
    if ideal.gb_bound is not None and (bound is None or bound > ideal.gb_bound):
        raise TruncationError(f"bound {bound} exceeds Groebner truncation {ideal.gb_bound}")
    return tuple(sorted(((lm, mask) for lm, mask, _ in ideal.gb_lead
                         if bound is None or sum(lm) <= bound),
                        key=lambda t: (sum(t[0]), t[0])))


def hilbert_function(ideal: IdealBasis, bound: int) -> GradedDims:
    """Dimensions of (S/I)_k for k <= bound, read off the Hilbert series of
    the leading-term ideal: HF(k) = sum_i N_i C(n - 1 + k - i, n - 1).  Only
    leading terms of degree <= k enter HF(k), so a basis truncated at the
    bound gives the exact values."""
    num = _masked_numerator(list(leading_staircase(ideal, bound)), bound)
    n = ideal.ring.n
    return GradedDims(tuple(sum(num[i] * comb(n - 1 + k - i, n - 1) for i in range(k + 1))
                            for k in range(bound + 1)))


def min_gen_degrees(ideal: IdealBasis, bound: int) -> GradedDims:
    """dim (I / S_+ I)_k for k <= bound, counted by the stratified Groebner
    run that built the attached basis."""
    ideal.require_gb()
    if ideal.gb_bound is not None and bound > ideal.gb_bound:
        raise TruncationError(f"bound {bound} exceeds Groebner truncation {ideal.gb_bound}")
    return GradedDims(tuple(ideal.mingens.get(k, 0) for k in range(bound + 1)))


def krull_dim(ideal: IdealBasis) -> int:
    """Krull dimension of S/I from the staircase of a complete basis (else
    TruncationError): the order of the pole at t = 1 of HS(S/I) = N(t) /
    (1 - t)^n (Bruns-Herzog, Cohen-Macaulay Rings, 4.1), n minus the
    multiplicity of the root t = 1 of N.  N is computed through the degree of
    the staircase's lcm, which bounds its degree, and divided by 1 - t while
    N(1) = 0.  N = 0 only for the unit ideal, whose dimension is -1."""
    staircase = leading_staircase(ideal, None)
    n = ideal.ring.n
    top = sum(max((m[i] for m, _ in staircase), default=0) for i in range(n))
    num = _masked_numerator(list(staircase), top)
    order = n
    while any(num):
        if sum(num):
            return order
        # N = (1 - t) Q, and Q's coefficients are the partial sums of N's
        num = list(accumulate(num))[:-1]
        order -= 1
    return -1


def homogenize_by_elimination(ring: PolyRing, gens: list) -> list:
    """Equivalent homogeneous generating set, by constant-coefficient moves.

    Subtracting field multiples of other generators' homogeneous components
    preserves the ideal.  The nonzero generators are sorted, stably, by top
    degree, the homogeneous ones of each degree first, and walked once: each
    lower component must lie in the span of the top components stored for
    its degree, and then the generator's top component is stored and
    emitted.  Raises ValueError when a lower component does not (the
    specialized gl-case lists pass).

    One pass is enough.  A lower component has lower degree than its
    generator's top, and the pieces of a degree are the top components of
    the generators with that top degree, which all come earlier in the
    order.  So every piece a lower component can lie in is stored when its
    generator is reached, and no later piece could rescue a failure.
    """
    ech: dict[int, Echelon] = {}  # per degree, keyed by monomials
    out = []
    for g in sorted((g for g in gens if g),
                    key=lambda g: (ring.degree(g), not ring.is_homogeneous(g))):
        comps = ring.homogeneous_components(g)
        top = max(comps)
        for deg, comp in comps.items():
            if deg != top and (deg not in ech or ech[deg].reduce(comp)):
                raise ValueError("generators do not homogenize by constant elimination")
        ech.setdefault(top, Echelon(ring.domain)).insert(comps[top])
        out.append(comps[top])
    return out


# -- integer matrices: Smith/Hermite normal forms --------------------------------


def int_rows(text: str) -> list[list[int]]:
    """Rows of an integer matrix written one a line, blank lines and lines
    starting with # skipped; ValueError on a non-integer or ragged row."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            rows.append([int(tok) for tok in line.split()])
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    return rows


def snf(rows: list[list[int]]) -> list[int]:
    """Invariant factors d_1 | d_2 | ... (positive, divisibility chain).

    Runs on sparse rows {column: nonzero entry}.  Each pivot is an entry of
    least absolute value among the nonzeros.  Row operations clear its
    column; as the column is then zero off the pivot, a column operation
    changes the pivot row only, and clearing that row leaves the pivot
    alone in its row and column.  A nonzero remainder is smaller than the
    pivot, so the search restarts from it.  The diagonal this leaves is
    brought into divisibility order by diag(a, b) ~ diag(gcd, lcm)."""
    live = [r for r in ({j: x for j, x in enumerate(row) if x} for row in rows) if r]
    diagonal = []
    while live:
        least = None
        for r in live:
            for j, x in r.items():
                if least is None or abs(x) < least:
                    least, prow, c = abs(x), r, j
            if least == 1:
                break
        p = prow[c]
        rest = []
        restart = False
        for r in live:
            if r is prow:
                continue
            x = r.get(c)
            if x is not None:
                vec_iadd_scaled(ZZ, r, prow, -(x // p))
                restart = restart or c in r
            if r:
                rest.append(r)
        if not restart:
            for j in [j for j in prow if j != c]:
                z = prow[j] % p
                if z:
                    prow[j] = z
                    restart = True
                else:
                    del prow[j]
        if restart:
            rest.append(prow)
        else:
            diagonal.append(least)
        live = rest
    for i in range(len(diagonal)):
        for j in range(i + 1, len(diagonal)):
            g = gcd(diagonal[i], diagonal[j])
            diagonal[i], diagonal[j] = g, diagonal[i] // g * diagonal[j]
    return diagonal


def hnf_rowspace(rows: list[list[int]]) -> list[list[int]]:
    """Echelon basis of the integer row space (strictly increasing pivots)."""
    a = [list(r) for r in rows if any(r)]
    if not a:
        return []
    n = len(a[0])
    out: list[list[int]] = []
    for col in range(n):
        live = [r for r in a if r[col] != 0]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            p = live[0]
            for r in live[1:]:
                q = r[col] // p[col]
                if q:
                    for j in range(col, n):
                        r[j] -= q * p[j]
            live = [r for r in live if r[col] != 0]
        pivot = live[0]
        if pivot[col] < 0:
            for j in range(n):
                pivot[j] = -pivot[j]
        out.append(pivot)
        a = [r for r in a if r is not pivot and any(r)]
    return out


def quotient_invariant_factors(gens: list[list[int]], sub: list[list[int]]) -> tuple[int, list[int]]:
    """Structure of (rowspace(gens + sub) / rowspace(sub)) as an abelian group.

    Returns (free_rank, torsion invariant factors > 1).
    """
    big = hnf_rowspace([list(r) for r in gens] + [list(r) for r in sub])
    basis = [[(j, x) for j, x in enumerate(b) if x] for b in big]
    coords = []
    for row in sub:
        c = _int_coords(row, basis)
        if c is None:
            raise InvariantError("sub not inside the big lattice")
        coords.append(c)
    invs = snf(coords)
    return (len(big) - len(invs), [d for d in invs if d > 1])


def _int_coords(row: list[int], basis: list[list[tuple[int, int]]]):
    """Integer coordinates of row in an echelon integer basis, or None.  Each
    basis row is given by its nonzero (column, entry) pairs, lead first."""
    rem = list(row)
    coords = []
    for support in basis:
        lead, a = support[0]
        q, r = divmod(rem[lead], a)
        if r:
            return None
        coords.append(q)
        if q:
            for j, x in support:
                rem[j] -= q * x
    if any(rem):
        return None
    return coords
