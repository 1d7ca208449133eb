"""Exact multivariate polynomial algebra: Buchberger, Hilbert data, SNF.

Monomials are exponent tuples ordered by degrevlex.  Polynomials are sparse
{monomial: coefficient} dicts over Q, a prime field, or Z (Z admits ring
arithmetic only; Groebner computations require a field).

The Groebner driver is degree-stratified for homogeneous input: S-pairs are
processed degree by degree, pairs above the truncation bound are discarded
(sound for homogeneous ideals), and the input generators surviving reduction
at each degree are counted, which yields the graded minimal generator counts
of the ideal as a byproduct.  Everything is deterministic for a fixed input
order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .fieldops import Echelon, field_of

Monomial = tuple[int, ...]
Poly = dict


class ZZDomain:
    """The integers: ring ops for construction, no inverses."""

    name = "ZZ"
    characteristic = 0
    zero = 0
    one = 1

    @staticmethod
    def of(n):
        if isinstance(n, Fraction):
            if n.denominator != 1:
                raise ValueError("not an integer")
            return n.numerator
        return int(n)

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
        raise ZeroDivisionError("no inverses over ZZ")

    def __repr__(self):
        return "ZZ"


ZZ = ZZDomain()


def domain_of(spec):
    if spec == "ZZ" or spec is ZZ:
        return ZZ
    return field_of(spec)


class PolyRing:
    """Ordered variable list over an exact domain; degrevlex throughout."""

    def __init__(self, names, domain=0):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be unique")
        self.n = len(self.names)
        self.domain = domain_of(domain)
        self._index = {nm: i for i, nm in enumerate(self.names)}

    def __repr__(self):
        return f"PolyRing({self.domain!r}, {','.join(self.names)})"

    @property
    def is_field(self) -> bool:
        return self.domain is not ZZ

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

    def neg(self, a: Poly) -> Poly:
        d = self.domain
        return {m: d.neg(c) for m, c in a.items()}

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
                m = tuple(x + y for x, y in zip(ma, mb))
                s = d.add(out.get(m, d.zero), d.mul(ca, cb))
                if s == d.zero:
                    out.pop(m, None)
                else:
                    out[m] = s
        return out

    def mul_term(self, a: Poly, m: Monomial, c) -> Poly:
        d = self.domain
        return {tuple(x + y for x, y in zip(ma, m)): d.mul(c, ca) for ma, ca in a.items()}

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

    @staticmethod
    def mdeg(m: Monomial) -> int:
        return sum(m)

    def degree(self, a: Poly) -> int:
        return max((sum(m) for m in a), default=-1)

    def is_homogeneous(self, a: Poly) -> bool:
        degs = {sum(m) for m in a}
        return len(degs) <= 1

    def lm(self, a: Poly) -> Monomial:
        return max(a, key=_drl_key)

    def lc(self, a: Poly):
        return a[self.lm(a)]

    def monic(self, a: Poly) -> Poly:
        if not a:
            return a
        inv = self.domain.inv(self.lc(a))
        return {m: self.domain.mul(inv, c) for m, c in a.items()}

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


def _divides(a: Monomial, b: Monomial) -> bool:
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _mlcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x if x > y else y for x, y in zip(a, b))


def _msub(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def _coprime(a: Monomial, b: Monomial) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


class TruncationError(ValueError):
    """Operation needs Groebner data beyond the computed bound."""


class DomainError(TypeError):
    """Operation not available over this coefficient domain."""


@dataclass
class IdealBasis:
    """Generators plus (optionally) Groebner data and minimal generator counts.

    gb_bound is None for a complete basis and an integer when S-pairs above
    that degree were discarded.
    """

    ring: PolyRing
    gens: list
    gb: list | None = None
    gb_bound: int | None = None
    mingens: dict | None = None
    gb_complete: bool = False

    def require_gb(self):
        if self.gb is None:
            raise TruncationError("no Groebner data attached; call groebner() first")
        return self.gb


class _GBWorker:
    def __init__(self, ring: PolyRing):
        self.ring = ring
        self.basis: list[tuple[Monomial, Poly]] = []  # (lm, monic poly)
        self.pairs: list = []  # heap of (deg, lcm_key, i, j, lcm)
        self.treated: set[tuple[int, int]] = set()

    def reducer_index(self, m: Monomial):
        for idx, (lm, _) in enumerate(self.basis):
            if _divides(lm, m):
                return idx
        return None

    def normal_form(self, p: Poly) -> Poly:
        # heap-driven reduction, largest monomial first; stale entries are
        # skipped, and every fresh insertion below the current maximum gets
        # exactly one pending heap entry
        d = self.ring.domain
        h = dict(p)
        heap = [(-sum(m), tuple(reversed(m)), m) for m in h]
        heapq.heapify(heap)
        out: Poly = {}
        while heap:
            _, _, m = heapq.heappop(heap)
            c = h.pop(m, None)
            if c is None:
                continue
            idx = self.reducer_index(m)
            if idx is None:
                out[m] = c
                continue
            lm, g = self.basis[idx]
            shift = _msub(m, lm)
            negc = d.neg(c)
            for mg, cg in g.items():
                if mg == lm:
                    continue
                key = tuple(x + y for x, y in zip(mg, shift))
                cur = h.get(key)
                if cur is None:
                    val = d.mul(negc, cg)
                    if val != d.zero:
                        h[key] = val
                        heapq.heappush(heap, (-sum(key), tuple(reversed(key)), key))
                else:
                    s = d.add(cur, d.mul(negc, cg))
                    if s == d.zero:
                        del h[key]
                    else:
                        h[key] = s
        return out

    def add_element(self, p: Poly) -> None:
        ring = self.ring
        p = ring.monic(p)
        lm = ring.lm(p)
        k = len(self.basis)
        self.basis.append((lm, p))
        for i in range(k):
            lmi = self.basis[i][0]
            l = _mlcm(lmi, lm)
            heapq.heappush(self.pairs, (sum(l), tuple(reversed(l)), i, k, l))

    def pop_pairs_up_to(self, dmax):
        """Yield pairs of lcm degree <= dmax in deterministic order."""
        while self.pairs and self.pairs[0][0] <= dmax:
            yield heapq.heappop(self.pairs)

    def spoly(self, i: int, j: int, l: Monomial) -> Poly:
        ring = self.ring
        lmi, gi = self.basis[i]
        lmj, gj = self.basis[j]
        a = ring.mul_term(gi, _msub(l, lmi), ring.domain.one)
        b = ring.mul_term(gj, _msub(l, lmj), ring.domain.one)
        return ring.sub(a, b)

    def chain_skip(self, i: int, j: int, l: Monomial) -> bool:
        lmi = self.basis[i][0]
        lmj = self.basis[j][0]
        if _coprime(lmi, lmj):
            return True
        for k, (lmk, _) in enumerate(self.basis):
            if k in (i, j) or not _divides(lmk, l):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a in self.treated and b in self.treated:
                return True
        return False


def groebner(ideal: IdealBasis, bound=None) -> IdealBasis:
    """Reduced Groebner basis, complete up to `bound` (None = complete).

    Homogeneous input is processed degree by degree; the returned IdealBasis
    carries the graded minimal-generator counts.  Inhomogeneous input is
    accepted only without a bound.
    """
    ring = ideal.ring
    if not ring.is_field:
        raise DomainError("groebner needs field coefficients, not ZZ")
    gens = [g for g in ideal.gens if g]
    homogeneous = all(ring.is_homogeneous(g) for g in gens)
    if not homogeneous:
        if bound is not None:
            raise TruncationError("degree truncation requires homogeneous generators")
        return _groebner_plain(ideal, gens)

    worker = _GBWorker(ring)
    by_degree: dict[int, list] = {}
    for g in sorted(gens, key=lambda g: (ring.degree(g), _drl_key(ring.lm(g)))):
        by_degree.setdefault(ring.degree(g), []).append(g)
    mingens: dict[int, int] = {}
    degrees = sorted(by_degree)
    if not degrees:
        return IdealBasis(ring, [], gb=[], gb_bound=bound, mingens={}, gb_complete=True)
    d = degrees[0]
    while True:
        if bound is not None and d > bound:
            break
        # S-pairs of this degree first: they never contribute minimal generators
        for _, _, i, j, l in worker.pop_pairs_up_to(d):
            key = (min(i, j), max(i, j))
            if worker.chain_skip(i, j, l):
                worker.treated.add(key)
                continue
            worker.treated.add(key)
            r = worker.normal_form(worker.spoly(i, j, l))
            if r:
                worker.add_element(r)
        for g in by_degree.get(d, ()):
            r = worker.normal_form(g)
            if r:
                assert ring.degree(r) == d
                mingens[d] = mingens.get(d, 0) + 1
                worker.add_element(r)
        d += 1
        if bound is None and d > degrees[-1] and not worker.pairs:
            break
    gb = _interreduce(ring, [g for _, g in worker.basis])
    complete = bound is None or (not worker.pairs and degrees[-1] <= bound)
    return IdealBasis(ring, list(ideal.gens), gb=gb, gb_bound=bound,
                      mingens=mingens, gb_complete=complete)


def _groebner_plain(ideal: IdealBasis, gens) -> IdealBasis:
    ring = ideal.ring
    worker = _GBWorker(ring)
    for g in sorted(gens, key=lambda g: (ring.degree(g), _drl_key(ring.lm(g)))):
        r = worker.normal_form(g)
        if r:
            worker.add_element(r)
    while worker.pairs:
        deg, _, i, j, l = heapq.heappop(worker.pairs)
        key = (min(i, j), max(i, j))
        if worker.chain_skip(i, j, l):
            worker.treated.add(key)
            continue
        worker.treated.add(key)
        r = worker.normal_form(worker.spoly(i, j, l))
        if r:
            worker.add_element(r)
    gb = _interreduce(ring, [g for _, g in worker.basis])
    return IdealBasis(ring, list(ideal.gens), gb=gb, gb_bound=None,
                      mingens=None, gb_complete=True)


def _interreduce(ring: PolyRing, polys) -> list:
    # standard reduced-GB cleanup: drop redundant leads, tail-reduce, monic
    polys = [p for p in polys if p]
    lms = [ring.lm(p) for p in polys]
    keep = []
    for i, p in enumerate(polys):
        if any(j != i and _divides(lms[j], lms[i]) and
               (not _divides(lms[i], lms[j]) or j < i) for j in range(len(polys))):
            continue
        keep.append(p)
    w = _GBWorker(ring)
    out = []
    for i, p in enumerate(keep):
        w.basis = [(ring.lm(q), q) for j, q in enumerate(keep) if j != i]
        out.append(ring.monic(w.normal_form(p)))
    out.sort(key=lambda p: _drl_key(ring.lm(p)))
    return out


def normal_form(p: Poly, ideal: IdealBasis) -> Poly:
    """Unique reduced remainder of p against the attached Groebner basis."""
    ring = ideal.ring
    gb = ideal.require_gb()
    if ideal.gb_bound is not None and ring.degree(p) > ideal.gb_bound:
        raise TruncationError(
            f"degree {ring.degree(p)} exceeds the truncation bound {ideal.gb_bound}"
        )
    w = _GBWorker(ring)
    w.basis = [(ring.lm(g), g) for g in gb]
    return w.normal_form(p)


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

    def __len__(self):
        return len(self.dims)

    def __str__(self):
        return "[" + ", ".join(str(d) for d in self.dims) + "]"


def _iter_monomials(n: int, k: int):
    if n == 1:
        yield (k,)
        return
    for first in range(k, -1, -1):
        for rest in _iter_monomials(n - 1, k - first):
            yield (first,) + rest


def _minimal_lts(ring: PolyRing, gb) -> list[Monomial]:
    lms = sorted({ring.lm(g) for g in gb if g}, key=_drl_key)
    out = []
    for m in lms:
        if not any(_divides(o, m) for o in out if o != m):
            out.append(m)
    return out


def hilbert_function(ideal: IdealBasis, bound: int) -> GradedDims:
    """Dimensions of (S/I)_k for k <= bound by standard-monomial counting."""
    ring = ideal.ring
    gb = ideal.require_gb()
    if ideal.gb_bound is not None and bound > ideal.gb_bound:
        raise TruncationError(f"bound {bound} exceeds Groebner truncation {ideal.gb_bound}")
    lts = _minimal_lts(ring, gb)
    dims = []
    for k in range(bound + 1):
        cnt = 0
        relevant = [m for m in lts if sum(m) <= k]
        for mono in _iter_monomials(ring.n, k):
            if not any(_divides(l, mono) for l in relevant):
                cnt += 1
        dims.append(cnt)
    return GradedDims(tuple(dims))


def min_gen_degrees(ideal: IdealBasis, bound: int) -> GradedDims:
    """dim (I / S_+ I)_k for k <= bound, from the stratified Groebner run."""
    data = ideal
    if data.mingens is None or (data.gb_bound is not None and data.gb_bound < bound):
        data = groebner(ideal, bound)
    if data.mingens is None:
        raise TruncationError("minimal generators need homogeneous input")
    return GradedDims(tuple(data.mingens.get(k, 0) for k in range(bound + 1)))


def krull_dim(ideal: IdealBasis) -> int:
    """Krull dimension of S/I from the staircase of a complete basis."""
    ring = ideal.ring
    gb = ideal.require_gb()
    if not ideal.gb_complete:
        raise TruncationError("krull_dim needs an untruncated Groebner basis")
    if gb and any(ring.degree(g) == 0 for g in gb):
        return -1  # unit ideal
    supports = []
    for m in _minimal_lts(ring, gb):
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

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

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

    def to_text(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self.rows) + "\n"


def snf(matrix: IntMatrix | list) -> list[int]:
    """Invariant factors d_1 | d_2 | ... (positive, divisibility chain)."""
    rows = matrix.rows if isinstance(matrix, IntMatrix) else matrix
    a = [list(r) for r in rows]
    if not a or not a[0]:
        return []
    m, n = len(a), len(a[0])
    invariants = []
    top = 0
    left = 0
    while top < m and left < n:
        # smallest nonzero pivot to limit growth
        piv = None
        for i in range(top, m):
            for j in range(left, n):
                if a[i][j] != 0 and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        a[top], a[i0] = a[i0], a[top]
        for r in a:
            r[left], r[j0] = r[j0], r[left]
        while True:
            dirty = False
            for i in range(top + 1, m):
                if a[i][left]:
                    q = a[i][left] // a[top][left]
                    for j in range(left, n):
                        a[i][j] -= q * a[top][j]
                    if a[i][left]:
                        a[top], a[i] = a[i], a[top]
                        dirty = True
            for j in range(left + 1, n):
                if a[top][j]:
                    q = a[top][j] // a[top][left]
                    if q:
                        for i in range(top, m):
                            a[i][j] -= q * a[i][left]
                    if a[top][j]:
                        for i in range(top, m):
                            a[i][left], a[i][j] = a[i][j], a[i][left]
                        dirty = True
            if not dirty:
                break
        # ensure pivot divides the remaining block
        p = abs(a[top][left])
        fixed = True
        for i in range(top + 1, m):
            for j in range(left + 1, n):
                if a[i][j] % p:
                    for jj in range(left, n):
                        a[top][jj] += a[i][jj]
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        invariants.append(p)
        top += 1
        left += 1
    return invariants


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
    coords = []
    for row in [list(r) for r in sub]:
        c = _int_coords(row, big)
        assert c is not None, "sub not inside the big lattice"
        coords.append(c)
    r = len(big)
    if not coords:
        return (r, [])
    invs = snf(coords)
    torsion = [d for d in invs if d > 1]
    free = r - len(invs)
    return (free, torsion)


def _int_coords(row: list[int], basis: list[list[int]]):
    """Integer coordinates of row in an echelon integer basis, or None."""
    rem = list(row)
    coords = []
    n = len(row)
    for b in basis:
        lead = next(j for j in range(n) if b[j] != 0)
        if rem[lead] % b[lead] != 0:
            return None
        q = rem[lead] // b[lead]
        coords.append(q)
        for j in range(n):
            rem[j] -= q * b[j]
    if any(rem):
        return None
    return coords
