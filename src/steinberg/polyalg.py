"""Exact multivariate polynomial algebra: Buchberger, Hilbert data, SNF.

Monomials are exponent tuples ordered by degrevlex.  Polynomials are sparse
{monomial: coefficient} dicts over Q or a prime field.

Groebner input is homogeneous; `groebner` raises TruncationError on anything
else.  The driver is degree-stratified: S-pairs are processed degree by
degree, pairs above the truncation bound are never built (sound for
homogeneous ideals; one left unbuilt marks the basis incomplete), and the
input generators surviving reduction at each degree are counted, which
yields the graded minimal generator counts of the ideal as a byproduct.
Everything is deterministic for a fixed input order.
The one inhomogeneous ideal the certifier reduces by, (x*y - 1) for the
Laurent ring of a chart, has `normal_form_mod_unit` as its direct rule.

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

Every run records its trace: per degree, the leading-monomial pairs of the
S-pairs whose remainder entered the basis.  A run over GF(l) may be guided
by a basis over Q of the ideal whose generators reduce mod l to its own (an
l-integral list), complete through the run's bound.  Let I_Z be the ideal
over Z_(l) those generators span and I_l its image mod l.  Each (S/I_Z)_d
is a finitely generated Z_(l)-module, so HF_l(d) >= HF_Q(d) and
dim (I_l)_d <= target(d) = dim S_d - HF_Q(d).  In a degree d above the top
generator degree, LT(G)_d lies in LT(I_l)_d at every point of the run.  So
once |LT(G)_d| = target(d), G is a Groebner basis in degree d and every
remaining pair of that degree reduces to zero: the guided run drops them,
marked treated for the chain criterion.  |LT(G)_d| is what the lms of lower
degree span plus the elements added in degree d.  The run counts it only
when those lms are the guide's own: they then span target(d) less the
guide's lms of degree d, so degree d stops once it has added as many
elements as the guide has lms of that degree.  Pairs in the guide's trace
are reduced first.  The pair order changes only which intermediate elements
appear: the lms added in each degree are the minimal generators of LT(I_l)
in that degree, so the returned basis is the unguided one.  When the lms of
lower degree are not the guide's, they stay so in every later degree, and
the run treats the rest unguided.  A run that never stops is the unguided
run, so a faulty guide whose lms differ yields an honestly computed basis.
If the count never reaches the target, nothing is dropped: HF_l > HF_Q in
that degree, and a comparison of the Hilbert functions fails as it should.

A run over Q records its divisors (`IdealBasis.divisors`): for each
generator the lcm of its denominators and the leading coefficient of its
integer form, and for each element entered, during the run and in the
interreduction, the content `_basis_form` divides out and the leading
coefficient it keeps.  Every other multiplier of the run, in an S-pair or a
reduction step, divides a recorded leading coefficient.  Let l divide no
recorded integer: l is then a lucky prime for the run (trace lifting:
Traverso, ISSAC 1988; Arnold, JSC 35, 2003).  Every multiplier is an l-unit,
so at every step the state of the unguided run over GF(l) is a unit times
the state of the run over Q mod l: a coefficient that is 0 mod l is a step
the GF(l) run skips, and a nonzero remainder stays nonzero mod l with the
same leading monomial, as l divides neither its content nor its leading
coefficient.  So the two runs have the same leading monomials, skip and
reduce the same pairs, and count the same minimal generators and the same
trace, and each element over GF(l) is the basis form over Q times the
inverse of its leading coefficient mod l.  A guided run whose guide has the
run's bound and such an l returns that basis, read off the guide with no
pair treated; any other guided run stops as described above.

The stop and the lift trust the guide: a basis over Q missing an element of
degree d lowers target(d) by one, the guided runs stop one element short or
read the faulty basis off, and their Hilbert functions agree with the faulty
one.  So agreement of HF over Q, F5 and F7 certifies flatness only together
with a check of the Q side against an independent count, as the Hilbert
cross check against the character side does.

Module-level `normal_form` reduces by `gb_lead` on exponent tuples, with its
own small reducer that shares no logic with the packed kernel.  The tests
read every certificate back through it, so a kernel fault cannot hide
behind its own reader.

Hilbert functions come from the Hilbert series of the leading-term ideal,
whose numerator is computed by Bigatti's pivot recursion truncated at the
requested degree, each monomial carried down it with its support mask.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd, lcm

from .fieldops import Echelon, InvariantError, field_of

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
        d = self.domain
        out = dict(a)
        for m, c in b.items():
            s = d.add(out.get(m, d.zero), c)
            if s == d.zero:
                out.pop(m, None)
            else:
                out[m] = s
        return out

    def sub(self, a: Poly, b: Poly) -> Poly:
        d = self.domain
        out = dict(a)
        for m, c in b.items():
            s = d.sub(out.get(m, d.zero), c)
            if s == d.zero:
                out.pop(m, None)
            else:
                out[m] = s
        return out

    def scale(self, a: Poly, c) -> Poly:
        d = self.domain
        c = d.of(c)
        if c == d.zero:
            return {}
        return {m: d.mul(c, x) for m, x in a.items()}

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
    stands for: over Q, Fraction coefficients."""
    if modulus:
        return g
    a = g[lm]
    return {m: Fraction(c, a) for m, c in g.items()}


def _divides(a: Monomial, b: Monomial) -> bool:
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _msub(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(operator.sub, a, b))


class TruncationError(ValueError):
    """Operation needs Groebner data beyond the computed bound."""


@dataclass
class GroebnerStats:
    """Work counters of one `groebner` run: S-pairs popped, those skipped by
    the coprime criterion and by the chain criterion, those whose
    S-polynomial reduced to zero, the returned basis's element count per
    degree, and, in a guided run, the pairs dropped untreated by the Hilbert
    stop (which `pairs` does not count).  Pairs are counted, not reduction
    steps, so the counts cost nothing inside the reduction loop.  A basis
    read off its guide treated no pair and has only the counts per degree."""

    pairs: int = 0
    coprime_skips: int = 0
    chain_skips: int = 0
    zero_reductions: int = 0
    per_degree: dict = field(default_factory=dict)
    stop_drops: int = 0


@dataclass
class IdealBasis:
    """Generators plus (optionally) Groebner data and minimal generator counts.

    gb_bound is None for a complete basis and an integer when S-pairs above
    that degree were discarded.  gb holds monic polynomials.  gb_lead holds
    (leading monomial, support mask, basis form) for each element of gb, in
    gb's order, where the basis form is the element's integer form: over
    GF(p) its monic residues, over Q the primitive integer polynomial with
    positive leading coefficient.  stats holds the work counters of the
    `groebner` run that built the basis, and trace its productive S-pairs:
    for each lcm degree, the set of (lm_i, lm_j), as packed ints with
    lm_i < lm_j, of the pairs whose remainder entered the basis.  No report
    reads either.  divisors is, over Q, the set of integers > 1 that the run
    needed to be units mod l for the run over GF(l) to be its image (see the
    module docstring), and None over GF(p).
    """

    ring: PolyRing
    gens: list
    gb: list | None = None
    gb_bound: int | None = None
    mingens: dict | None = None
    gb_complete: bool = False
    gb_lead: list | None = field(default=None, repr=False, compare=False)
    stats: GroebnerStats | None = field(default=None, repr=False, compare=False)
    trace: dict | None = field(default=None, repr=False, compare=False)
    divisors: frozenset | None = field(default=None, repr=False, compare=False)

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


class _GBWorker:
    """Buchberger's algorithm on packed monomials.

    Polynomials are {packed monomial: int} in the integer form of
    `_basis_form`; `lms[k]` is basis element k's leading monomial and
    `lead[lms[k]]` its form.  Leading monomials are pairwise distinct, since
    an element is added only after full reduction.  `tails[lm]` holds the
    same element as a reducer: its leading coefficient and the pairs
    (m - lm, c) of its other terms, built once, when it is entered.

    A lm divides a monomial of its own degree only when the two are equal,
    and never one of lower degree.  So the divisor search for a degree-d
    monomial scans the lms of degree below d (`lms_below`) and then looks the
    monomial itself up in `tails`.  The scan's answer is memoized per degree
    beside its list, and both are dropped together when a lm of lower degree
    is entered, so the memo is exact."""

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
        self.dropped = False  # whether a pair above the bound went unbuilt
        self.treated: set[tuple[int, int]] = set()
        self.stats = GroebnerStats()
        self.trace: dict[int, set[tuple[int, int]]] = {}  # see IdealBasis.trace
        self.divisors: set[int] | None = None if self.modulus else set()  # see IdealBasis

    def record(self, *ints: int) -> None:
        """Over Q, add each |x| > 1 of ints to the divisors."""
        if self.divisors is not None:
            self.divisors.update(a for x in ints if (a := abs(x)) > 1)

    def pack(self, p: Poly) -> Poly:
        """The packed integer multiple of the homogeneous p that reduction
        starts from.  Records the lcm of p's denominators and the leading
        coefficient of the multiple."""
        pack = self.pk.pack
        h, s = _integral(self.ring, p)
        out = {pack(m): c for m, c in h.items()}
        self.record(s, out[min(out)])
        return out

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

    def add_element(self, h: Poly) -> None:
        """Append the element with the nonzero homogeneous integer multiple
        h: a reducer in the divisor scan, with its S-pairs of lcm degree up
        to the bound.  A pair above the bound is never built; it sets
        `dropped`.  An lcm of degree above the cap raises InvariantError.
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
            else:
                self.dropped = True
        self.enter(lm, self.basis_form(h, lm))
        self.lms.append(lm)
        d = lm >> self.pk.top
        self.below = {e: low for e, low in self.below.items() if e <= d}

    def pop_pairs_up_to(self, dmax):
        """Yield pairs of lcm degree <= dmax in deterministic order."""
        limit = (dmax + 1) << self.pk.top
        while self.pairs and self.pairs[0][0] < limit:
            yield heapq.heappop(self.pairs)

    def treat(self, l: int, i: int, j: int, criteria: bool = True) -> None:
        """Skip the pair (i, j) with lcm l by Buchberger's coprime or chain
        criterion, or add the remainder of its S-polynomial when nonzero.
        With criteria=False the pair is reduced unconditionally."""
        self.treated.add((i, j))
        stats = self.stats
        stats.pairs += 1
        if criteria and l == self.lms[i] + self.lms[j]:
            stats.coprime_skips += 1
        elif criteria and self.chain_skip(i, j, l):
            stats.chain_skips += 1
        else:
            r = self.reduce(self.spoly(i, j, l))
            if r:
                self.trace.setdefault(l >> self.pk.top, set()).add(self.pair_key(i, j))
                self.add_element(r)
            else:
                stats.zero_reductions += 1

    def pair_key(self, i: int, j: int) -> tuple[int, int]:
        a, b = self.lms[i], self.lms[j]
        return (a, b) if a < b else (b, a)

    def treat_guided(self, d: int, guide: "_Guide") -> None:
        """Treat the pairs of degree d, first those in the guide's trace,
        reduced without the criteria, then the others as `treat` does, each
        batch in lcm order.  Once degree d has added the guide's quota of
        elements, the remaining pairs are dropped and marked treated.  Without
        a quota the pairs are left to the caller, which treats them all.
        Sound only above the top generator degree: see the module docstring."""
        unpack = self.pk.unpack
        quota = guide.quota(d, {unpack(lm) for lm in self.lms_below(d)[0]})
        if quota is None:
            return
        pairs = list(self.pop_pairs_up_to(d))
        traced = guide.trace.get(d, ())
        first, rest = [], []
        for p in pairs:
            (first if self.pair_key(p[1], p[2]) in traced else rest).append(p)
        lms = self.lms
        for criteria, batch in ((False, first), (True, rest)):
            for l, i, j in batch:
                if not quota:
                    self.treated.add((i, j))
                    self.stats.stop_drops += 1
                    continue
                k = len(lms)
                self.treat(l, i, j, criteria)
                quota -= len(lms) - k

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
        guards, treated = self.pk.guards, self.treated
        for k, lmk in enumerate(self.lms):
            if (l - lmk) & guards or k == i or k == j:
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a in treated and b in treated:
                return True
        return False


def groebner(ideal: IdealBasis, bound=None, guide: IdealBasis | None = None) -> IdealBasis:
    """Reduced Groebner basis, complete up to `bound` (None = complete).

    The generators must be homogeneous; they are processed degree by degree,
    and the returned IdealBasis carries the graded minimal-generator counts.

    `guide`, for an ideal over GF(l), is a basis over Q, complete through the
    bound, of the ideal whose generators reduce mod l to this ideal's: see
    the module docstring.  When it has the run's bound and l divides none of
    its divisors, the basis is read off it.  It changes the work, never the
    result; an unsuitable guide raises ValueError.
    """
    ring = ideal.ring
    gens = [g for g in ideal.gens if g]
    if not all(ring.is_homogeneous(g) for g in gens):
        raise TruncationError("degree truncation requires homogeneous generators")
    if guide is not None:
        guide = _Guide(ideal, bound, guide)
        lifted = guide.lift(ideal, bound)
        if lifted is not None:
            return lifted
    worker = _GBWorker(ring, bound)
    top, exps = worker.pk.top, worker.pk.exps
    by_degree: dict[int, list] = {}
    # every generator is packed, and so recorded, even above the bound; in
    # degrevlex order of its lm, min(h) ^ exps
    for h in sorted(map(worker.pack, gens), key=lambda h: min(h) ^ exps):
        by_degree.setdefault(min(h) >> top, []).append(h)
    mingens: dict[int, int] = {}
    degrees = sorted(by_degree)
    if not degrees:
        return IdealBasis(ring, list(ideal.gens), gb=[], gb_bound=bound, mingens={},
                          gb_complete=True, gb_lead=[], stats=worker.stats, trace={},
                          divisors=_frozen(worker.divisors))
    d = degrees[0]
    while True:
        if bound is not None and d > bound:
            break
        # S-pairs of this degree first: they never contribute minimal generators
        if guide is not None and d > degrees[-1]:
            worker.treat_guided(d, guide)
        for l, i, j in worker.pop_pairs_up_to(d):
            worker.treat(l, i, j)
        for h in by_degree.get(d, ()):
            r = worker.reduce(h)
            if r:
                if max(r) >> top != d:  # the degree field of r's largest int
                    raise InvariantError(f"a degree-{d} generator reduced to degree "
                                         f"{max(r) >> top}")
                mingens[d] = mingens.get(d, 0) + 1
                worker.add_element(r)
        d += 1
        if bound is None and d > degrees[-1] and not worker.pairs:
            break
    lead = _interreduce(worker)
    complete = bound is None or (not worker.dropped and degrees[-1] <= bound)
    return IdealBasis(ring, list(ideal.gens), gb=_field_forms(worker, lead), gb_bound=bound,
                      mingens=mingens, gb_complete=complete, gb_lead=lead, stats=worker.stats,
                      trace=worker.trace, divisors=_frozen(worker.divisors))


def _frozen(divisors: set | None) -> frozenset | None:
    return None if divisors is None else frozenset(divisors)


class _Guide:
    """What a run over GF(l) reads from its guide, a basis over Q complete
    through the run's bound (see the module docstring): the basis itself
    when l is lucky for it, else the trace, and per degree d the quota,
    the number of elements degree d adds before the leading monomials span
    target(d) = dim S_d - HF_Q(d) monomials of degree d, when the lms of
    lower degree are the guide's.  Raises ValueError when the guide is
    unsuitable."""

    def __init__(self, ideal: IdealBasis, bound, guide: IdealBasis):
        ring, qring = ideal.ring, guide.ring
        l = ring.domain.characteristic
        if qring.domain.characteristic or not l or qring.names != ring.names:
            raise ValueError("a guide is a basis over Q of an ideal over GF(l) "
                             "in the same variables")
        if guide.gb is None or guide.trace is None or not (
                guide.gb_complete or bound is not None and guide.gb_bound is not None
                and guide.gb_bound >= bound):
            raise ValueError("the guide must be a traced Groebner basis complete through "
                             "the bound")
        try:
            reduced = [{m: r for m, c in g.items() if (r := ring.domain.of(c))}
                       for g in guide.gens]
        except ZeroDivisionError:
            raise ValueError(f"the guide's generators are not {l}-integral") from None
        if reduced != [dict(g) for g in ideal.gens]:
            raise ValueError(f"the ideal's generators are not the guide's reduced mod {l}")
        self.basis = guide
        self.trace = guide.trace
        self.lts = _minimal_lts(guide, bound)

    def lift(self, ideal: IdealBasis, bound) -> IdealBasis | None:
        """The run's basis read off the guide, or None unless the guide has
        the run's bound and l divides none of its divisors: then the run is
        the guide's run mod l step for step (see the module docstring).
        Each basis form becomes its residues times the inverse of its
        leading coefficient, zeros dropped."""
        q, l = self.basis, ideal.ring.domain.characteristic
        if q.gb_bound != bound or q.divisors is None or any(x % l == 0 for x in q.divisors):
            return None
        lead = []
        for lm, mask, g in q.gb_lead:
            inv = pow(g[lm], -1, l)
            lead.append((lm, mask, {m: r for m, c in g.items() if (r := c * inv % l)}))
        return IdealBasis(ideal.ring, list(ideal.gens), gb=[g for _, _, g in lead],
                          gb_bound=bound, mingens=dict(q.mingens), gb_complete=q.gb_complete,
                          gb_lead=lead, stats=GroebnerStats(per_degree=dict(q.stats.per_degree)),
                          trace=q.trace)

    def quota(self, d: int, low: set) -> int | None:
        """The quota of degree d for a run whose lms of degree < d are `low`,
        or None when they are not the guide's own.  The guide's lms span
        target(d) monomials of degree d, and its lms of degree d are the
        minimal generators of LT(I_Q) in that degree: the quota is their
        number."""
        same = [m for m in self.lts if sum(m) < d]
        if len(same) != len(low) or not low.issuperset(same):
            return None
        return sum(sum(m) == d for m in self.lts)


def _field_forms(worker: _GBWorker, lead: list) -> list:
    return [_field_form(worker.modulus, g, lm) for lm, _, g in lead]


def _interreduce(worker: _GBWorker) -> list:
    """The reduced basis as gb_lead triples (lm, mask, basis form) in tuple
    form, sorted by lm, with the worker's element count per degree recorded
    in its stats.

    The run went degree by degree, so each element was reduced, when it was
    added, by every element of lower degree and every earlier one of its own
    degree.  So no lm divides another, and a tail monomial can be divisible
    only by a lm of its own degree, that is, equal to it.  The elements are
    tail-reduced in increasing lm order, each by the reduced forms of those
    before it, entered as reducers of their lm alone: no divisor scan, only
    the lookup of `tails`.  Tail reduction leaves each leading term in
    place, so the lms are computed once.  Each reduced form's content and
    leading coefficient go to the worker's divisors."""
    pk = worker.pk
    w = _GBWorker(worker.ring)
    out = []
    for lm in sorted(worker.lms, key=lambda lm: lm ^ pk.exps):
        g = worker.basis_form(w.reduce(dict(worker.lead[lm])), lm)
        w.enter(lm, g)
        m = pk.unpack(lm)
        out.append((m, _mask(m), {pk.unpack(x): c for x, c in g.items()}))
    per_degree: dict[int, int] = {}
    for m, _, _ in out:
        per_degree[sum(m)] = per_degree.get(sum(m), 0) + 1
    worker.stats.per_degree = per_degree
    return out


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


def normal_form_mod_unit(ring: PolyRing, p: Poly, x: str, y: str) -> Poly:
    """The remainder of p modulo x*y - 1.  The single generator is its own
    Groebner basis with degrevlex leading term x*y, so the remainder is the
    sum over the terms of p with each x^a y^b turned into x^(a-k) y^(b-k),
    k = min(a, b)."""
    i, j = ring.names.index(x), ring.names.index(y)
    d = ring.domain
    out: Poly = {}
    for m, c in p.items():
        k = min(m[i], m[j])
        m = tuple(e - k if v in (i, j) else e for v, e in enumerate(m))
        s = d.add(out.get(m, d.zero), c)
        if s == d.zero:
            out.pop(m, None)
        else:
            out[m] = s
    return out


# -- graded dimension data -----------------------------------------------------


@dataclass(frozen=True)
class GradedDims:
    """Degree-indexed dimensions d_0 .. d_D."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if any(d < 0 for d in self.dims):
            raise ValueError("negative graded dimension")

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


def _minimal_lts(ideal: IdealBasis, bound: int | None = None) -> list[Monomial]:
    """Minimal leading monomials of the attached basis (of degree <= bound)."""
    return [m for m, _ in _minimal_masked({(lm, mask) for lm, mask, _ in ideal.gb_lead
                                           if bound is None or sum(lm) <= bound})]


def _series_numerator(monos: list[Monomial], top: int) -> list[int]:
    """Coefficients N_0 .. N_top of the numerator of the Hilbert series
    HS(S/J) = N(t) / (1 - t)^n, for J generated by the minimal monomials
    `monos`: see `_masked_numerator`."""
    return _masked_numerator([(m, _mask(m)) for m in monos], top)


def _masked_numerator(masked: list[tuple[Monomial, int]], top: int) -> list[int]:
    """`_series_numerator` on (monomial, support mask) pairs.  Bigatti's
    pivot recursion (JPAA 119, 1997): for a pivot x^e,
    N(J) = N(J + (x^e)) + t^e N(J : x^e).  Generators above degree top change
    N only above degree top, so they are dropped on the way down.  Each
    monomial's mask is computed once, where the monomial is made."""
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


def hilbert_function(ideal: IdealBasis, bound: int) -> GradedDims:
    """Dimensions of (S/I)_k for k <= bound, read off the Hilbert series of
    the leading-term ideal: HF(k) = sum_i N_i C(n - 1 + k - i, n - 1).  Only
    leading terms of degree <= k enter HF(k), so a basis truncated at the
    bound gives the exact values."""
    ring = ideal.ring
    ideal.require_gb()
    if ideal.gb_bound is not None and bound > ideal.gb_bound:
        raise TruncationError(f"bound {bound} exceeds Groebner truncation {ideal.gb_bound}")
    num = _series_numerator(_minimal_lts(ideal, bound), bound)
    return GradedDims(tuple(_numerator_value(num, ring.n, k) for k in range(bound + 1)))


def _numerator_value(num: list[int], n: int, k: int) -> int:
    """HF(k) = sum_i N_i C(n - 1 + k - i, n - 1) from the numerator N_0, N_1,
    ... of a Hilbert series over n variables, given at least through degree
    k or in full."""
    return sum(num[i] * comb(n - 1 + k - i, n - 1) for i in range(min(k + 1, len(num))))


def min_gen_degrees(ideal: IdealBasis, bound: int) -> GradedDims:
    """dim (I / S_+ I)_k for k <= bound, counted by the stratified Groebner
    run that built the attached basis."""
    ideal.require_gb()
    if ideal.gb_bound is not None and bound > ideal.gb_bound:
        raise TruncationError(f"bound {bound} exceeds Groebner truncation {ideal.gb_bound}")
    return GradedDims(tuple(ideal.mingens.get(k, 0) for k in range(bound + 1)))


def krull_dim(ideal: IdealBasis) -> int:
    """Krull dimension of S/I from the staircase of a complete basis."""
    ring = ideal.ring
    gb = ideal.require_gb()
    if not ideal.gb_complete:
        raise TruncationError("krull_dim needs an untruncated Groebner basis")
    if gb and any(ring.degree(g) == 0 for g in gb):
        return -1  # unit ideal
    supports = []
    for m in _minimal_lts(ideal):
        supports.append(frozenset(i for i, e in enumerate(m) if e))
    supports = [s for s in supports if s]

    # dim = max size of a variable set containing no staircase support, i.e.
    # n - (minimum hitting set of the supports)
    def min_cover(idx: int, chosen: frozenset, best_so_far: int) -> int:
        if len(chosen) >= best_so_far:
            return best_so_far
        while idx < len(supports) and supports[idx] & chosen:
            idx += 1
        if idx == len(supports):
            return len(chosen)
        best_local = best_so_far
        for v in sorted(supports[idx]):
            best_local = min(best_local, min_cover(idx + 1, chosen | {v}, best_local))
        return best_local

    cover = min_cover(0, frozenset(), ring.n + 1) if supports else 0
    return ring.n - cover


def homogenize_by_elimination(ring: PolyRing, gens: list) -> list:
    """Equivalent homogeneous generating set, by constant-coefficient moves.

    Subtracting field multiples of other generators' homogeneous components
    preserves the ideal; the routine succeeds when the lower components of
    every inhomogeneous generator already lie in the span of homogeneous ones
    (true for the specialized gl-case lists).  Raises otherwise.
    """
    homog: dict[int, list] = {}
    ech: dict[int, Echelon] = {}  # per degree, keyed by monomials

    def insert_homog(p):
        deg = ring.degree(p)
        homog.setdefault(deg, []).append(p)
        ech.setdefault(deg, Echelon(ring.domain)).insert(p)

    pending = [g for g in gens if g]
    for g in list(pending):
        if ring.is_homogeneous(g):
            insert_homog(g)
            pending.remove(g)
    progress = True
    while pending and progress:
        progress = False
        for g in sorted(pending, key=ring.degree):
            comps = ring.homogeneous_components(g)
            top = max(comps)
            reduced = dict(g)
            ok = True
            for deg in sorted(comps):
                if deg == top:
                    break
                rem = ech.get(deg)
                comp = {m: c for m, c in reduced.items() if sum(m) == deg}
                if not comp:
                    continue
                rest = rem.reduce(comp) if rem else comp
                if rest:
                    ok = False
                    break
                # comp is a combination of stored degree-deg pieces; drop it
                reduced = {m: c for m, c in reduced.items() if sum(m) != deg}
            if ok:
                if reduced:
                    insert_homog(reduced)
                pending.remove(g)
                progress = True
    if pending:
        raise ValueError("generators do not homogenize by constant elimination")
    return [p for deg in sorted(homog) for p in homog[deg]]


# -- integer matrices: Smith/Hermite normal forms --------------------------------


@dataclass
class IntMatrix:
    rows: list[list[int]]

    @classmethod
    def from_text(cls, text: str) -> "IntMatrix":
        rows = []
        for line in text.strip().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([int(tok) for tok in line.split()])
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged matrix")
        return cls(rows)


def snf(matrix: IntMatrix | list) -> list[int]:
    """Invariant factors d_1 | d_2 | ... (positive, divisibility chain).

    Runs on sparse rows {column: nonzero entry}.  Each pivot is an entry of
    least absolute value among the nonzeros.  Row operations clear its
    column; as the column is then zero off the pivot, a column operation
    changes the pivot row only, and clearing that row leaves the pivot
    alone in its row and column.  A nonzero remainder is smaller than the
    pivot, so the search restarts from it.  The diagonal this leaves is
    brought into divisibility order by diag(a, b) ~ diag(gcd, lcm)."""
    rows = matrix.rows if isinstance(matrix, IntMatrix) else matrix
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
                q = x // p
                for j, y in prow.items():
                    z = r.get(j, 0) - q * y
                    if z:
                        r[j] = z
                    else:
                        del r[j]
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
    if not big:
        return (0, [])
    basis = [[(j, x) for j, x in enumerate(b) if x] for b in big]
    coords = []
    for row in sub:
        c = _int_coords(row, basis)
        if c is None:
            raise InvariantError("sub not inside the big lattice")
        coords.append(c)
    r = len(big)
    if not coords:
        return (r, [])
    invs = snf(coords)
    torsion = [d for d in invs if d > 1]
    free = r - len(invs)
    return (free, torsion)


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
