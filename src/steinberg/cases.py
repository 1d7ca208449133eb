"""The named ideals of the Steinberg-component computations and their checks.

Six cases are modelled.  The ambient rings use degrevlex with the entries of
M row-major first, then the entries of N row-major (traceless ambients drop
the last diagonal entry of each matrix and write it as minus the others).

    n2      pairs of traceless 2x2 matrices; generators det M, det N,
            tr(MN), entries of MN - NM.
    n3-z    pairs of traceless 3x3 matrices; generators tr M^2, tr MN,
            tr N^2, tr M^3, tr N^3 and all entries of M^2N, N^2M, NM^2, MN^2.
    n3-x    full 3x3 pairs; the n3-z traces plus tr M, tr N and the entries
            of MN - NM, with only M^2N and MN^2 among the cubic products.
    gl-n2   (Phi, Sigma) in GL2 x GL2 with inverse-determinant variables u, v:
            commutation with Sigma^q expanded through (Sigma-I)^2 = 0, the
            two characteristic polynomials, and tr(Phi(Sigma-I)).
    gl-n3   the 3x3 analogue, with Sigma^q = I + q(Sigma-I) + C(q,2)(Sigma-I)^2
            and the two extra cubic matrix relations.
    cnil    the commuting-nilpotent chart equation (see liealg).

In the gl and cnil cases q is a variable of the ring, the first one; a
check that needs a value of q substitutes it (q = 1 in
gl_specialization_check, a random q in each parametrized point).

The verification campaigns pair the Groebner side against independent
oracles: pseudorandom parametrized points (Schwartz-Zippel bounded), the
character-level section counts of the flag-variety bundles, and integer
invariant factors for the degree-3 span.

Cases, the cnil reduction, bases, Hilbert functions, points reports and
span lattices are memoized in one per-run store, `_memo`, keyed by
(function name, *positional arguments); `clear_case_memo` empties it at the
end of a `verify_all`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps

from . import breps, bwb
from .fieldops import (ZZ, field_of, mat_add, mat_det, mat_mul, mat_sub, mat_trace,
                       span_rank)
from .polyalg import (GradedDims, IdealBasis, PolyRing, groebner, hilbert_function,
                      homogenize_by_elimination, normal_form, normal_form_mod_unit,
                      quotient_invariant_factors, snf)
from .weights import A1, A2, Weight

CASE_TAGS = ("n2", "n3-z", "n3-x", "gl-n2", "gl-n3", "cnil")

EVAL_PRIME = 2**31 - 1  # fixed prime for randomized point evaluation


class UnsupportedCase(ValueError):
    pass


@dataclass(frozen=True)
class IdealCase:
    """Descriptor: which named ideal, over which characteristic."""

    tag: str
    char: int = 0

    def __post_init__(self):
        if self.tag not in CASE_TAGS:
            raise UnsupportedCase(f"unknown case tag {self.tag!r}")
        if self.tag.startswith("gl") and self.char in (2, 3):
            raise UnsupportedCase("gl cases need characteristic 0 or l > 3")


# -- the per-run store ----------------------------------------------------------------

# (function name, *positional arguments) -> result of a memoized function.
# A call that raises stores nothing, so it raises again when repeated.
_memo: dict = {}


def _memoized(fn):
    """fn computed once per tuple of positional arguments, in _memo.  The
    result is shared between callers: do not mutate it."""
    name = fn.__name__

    @wraps(fn)
    def memoized(*args):
        key = (name, *args)
        if key not in _memo:
            _memo[key] = fn(*args)
        return _memo[key]

    return memoized


def clear_case_memo() -> None:
    """Drop every memoized case, cnil reduction, basis, Hilbert function,
    points report and span lattice."""
    _memo.clear()


# -- polynomial matrices ----------------------------------------------------------


def _zeros(ring, n):
    return [[ring.zero() for _ in range(n)] for _ in range(n)]


def mat_e2(ring, a):
    """Second elementary symmetric function of the eigenvalues (n = 3)."""
    acc = ring.zero()
    for i in range(3):
        for j in range(i + 1, 3):
            minor = ring.sub(ring.mul(a[i][i], a[j][j]), ring.mul(a[i][j], a[j][i]))
            acc = ring.add(acc, minor)
    return acc


def _matrix_names(prefix: str, n: int, traceless: bool) -> list[str]:
    names = [f"{prefix}{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    if traceless:
        names.remove(f"{prefix}{n}{n}")
    return names


def _var_matrix(ring, prefix: str, n: int, traceless: bool):
    m = _zeros(ring, n)
    for i in range(n):
        for j in range(n):
            if traceless and i == j == n - 1:
                acc = ring.zero()
                for k in range(n - 1):
                    acc = ring.sub(acc, ring.var(f"{prefix}{k + 1}{k + 1}"))
                m[i][j] = acc
            else:
                m[i][j] = ring.var(f"{prefix}{i + 1}{j + 1}")
    return m


@dataclass
class CaseData:
    ring: PolyRing
    gens: list
    mats: dict

    def ideal(self) -> IdealBasis:
        return IdealBasis(self.ring, list(self.gens))


@_memoized
def build_case(case: IdealCase) -> CaseData:
    """Ring, generators and matrices of the named case, built once per case."""
    tag = case.tag
    if tag == "cnil":
        rep = case_cn_reduction(case)
        return CaseData(rep.ring, [e for _, e in rep.entries], {})
    if tag == "n2":
        ring = PolyRing(_matrix_names("m", 2, True) + _matrix_names("n", 2, True), case.char)
        M = _var_matrix(ring, "m", 2, True)
        N = _var_matrix(ring, "n", 2, True)
        comm = mat_sub(ring, mat_mul(ring, M, N), mat_mul(ring, N, M))
        gens = [mat_det(ring, M), mat_det(ring, N), mat_trace(ring, mat_mul(ring, M, N))]
        gens += [comm[i][j] for i in range(2) for j in range(2) if comm[i][j]]
        return CaseData(ring, gens, {"M": M, "N": N})
    if tag == "n3-z":
        ring = PolyRing(_matrix_names("m", 3, True) + _matrix_names("n", 3, True), case.char)
        M = _var_matrix(ring, "m", 3, True)
        N = _var_matrix(ring, "n", 3, True)
        M2, N2 = mat_mul(ring, M, M), mat_mul(ring, N, N)
        gens = [mat_trace(ring, M2), mat_trace(ring, mat_mul(ring, M, N)), mat_trace(ring, N2),
                mat_trace(ring, mat_mul(ring, M2, M)), mat_trace(ring, mat_mul(ring, N2, N))]
        for prod in (mat_mul(ring, M2, N), mat_mul(ring, N2, M),
                     mat_mul(ring, N, M2), mat_mul(ring, M, N2)):
            gens += [prod[i][j] for i in range(3) for j in range(3)]
        return CaseData(ring, gens, {"M": M, "N": N})
    if tag == "n3-x":
        ring = PolyRing(_matrix_names("m", 3, False) + _matrix_names("n", 3, False), case.char)
        M = _var_matrix(ring, "m", 3, False)
        N = _var_matrix(ring, "n", 3, False)
        M2, N2 = mat_mul(ring, M, M), mat_mul(ring, N, N)
        comm = mat_sub(ring, mat_mul(ring, M, N), mat_mul(ring, N, M))
        gens = [mat_trace(ring, M), mat_trace(ring, N),
                mat_trace(ring, M2), mat_trace(ring, mat_mul(ring, M, N)), mat_trace(ring, N2)]
        gens += [comm[i][j] for i in range(3) for j in range(3)]
        gens += [mat_trace(ring, mat_mul(ring, M2, M)), mat_trace(ring, mat_mul(ring, N2, N))]
        for prod in (mat_mul(ring, M2, N), mat_mul(ring, M, N2)):
            gens += [prod[i][j] for i in range(3) for j in range(3)]
        return CaseData(ring, gens, {"M": M, "N": N})
    if tag in ("gl-n2", "gl-n3"):
        n = 2 if tag == "gl-n2" else 3
        names = ["q"] + _matrix_names("f", n, False) + _matrix_names("s", n, False) + ["u", "v"]
        ring = PolyRing(names, case.char)
        Phi = _var_matrix(ring, "f", n, False)
        Sigma = _var_matrix(ring, "s", n, False)

        def qp(k):
            return ring.pow(ring.var("q"), k)

        qpoly = qp(1)
        one = mat_identity_poly(ring, n, ring.const(1))
        Nmat = mat_sub(ring, Sigma, one)
        gens = []
        if n == 2:
            sigma_q = mat_add(ring, one, mat_scale_poly(ring, Nmat, qpoly))
            comm = mat_sub(ring, mat_mul(ring, Phi, Sigma), mat_mul(ring, sigma_q, Phi))
            gens += [comm[i][j] for i in range(n) for j in range(n)]
            gens.append(ring.sub(mat_trace(ring, Phi), ring.add(ring.const(1), qp(1))))
            gens.append(ring.sub(mat_det(ring, Phi), qp(1)))
            gens.append(ring.sub(mat_trace(ring, Sigma), ring.const(2)))
            gens.append(ring.sub(mat_det(ring, Sigma), ring.const(1)))
            gens.append(mat_trace(ring, mat_mul(ring, Phi, Nmat)))
        else:
            # Sigma^q = I + q(Sigma - I) + C(q,2)(Sigma - I)^2; needs 1/2
            N2 = mat_mul(ring, Nmat, Nmat)
            cq2 = ring.scale(ring.mul(qpoly, ring.sub(qpoly, ring.const(1))), Fraction(1, 2))
            sigma_q = mat_add(ring, one, mat_add(ring, mat_scale_poly(ring, Nmat, qpoly),
                                                 mat_scale_poly(ring, N2, cq2)))
            comm = mat_sub(ring, mat_mul(ring, Phi, Sigma), mat_mul(ring, sigma_q, Phi))
            gens += [comm[i][j] for i in range(n) for j in range(n)]
            gens.append(ring.sub(mat_trace(ring, Phi),
                                 ring.add(ring.add(ring.const(1), qp(1)), qp(2))))
            gens.append(ring.sub(mat_e2(ring, Phi),
                                 ring.add(ring.add(qp(1), qp(2)), qp(3))))
            gens.append(ring.sub(mat_det(ring, Phi), qp(3)))
            gens.append(ring.sub(mat_trace(ring, Sigma), ring.const(3)))
            gens.append(ring.sub(mat_e2(ring, Sigma), ring.const(3)))
            gens.append(ring.sub(mat_det(ring, Sigma), ring.const(1)))
            gens.append(mat_trace(ring, mat_mul(ring, Phi, Nmat)))
            phi_q2 = mat_sub(ring, Phi, mat_identity_poly(ring, n, qp(2)))
            phi_q1 = mat_sub(ring, Phi, mat_identity_poly(ring, n, qp(1)))
            rel1 = mat_mul(ring, phi_q2, N2)
            rel2 = mat_mul(ring, mat_mul(ring, phi_q2, phi_q1), Nmat)
            gens += [rel1[i][j] for i in range(n) for j in range(n)]
            gens += [rel2[i][j] for i in range(n) for j in range(n)]
        gens.append(ring.sub(ring.mul(ring.var("u"), mat_det(ring, Phi)), ring.const(1)))
        gens.append(ring.sub(ring.mul(ring.var("v"), mat_det(ring, Sigma)), ring.const(1)))
        return CaseData(ring, gens, {})
    raise UnsupportedCase(case.tag)


def mat_scale_poly(ring, a, p):
    return [[ring.mul(x, p) for x in row] for row in a]


def mat_identity_poly(ring, n, p):
    out = _zeros(ring, n)
    for i in range(n):
        out[i][i] = dict(p)
    return out


def make_ideal(case: IdealCase) -> IdealBasis:
    """The literal generator list of the named case, in ambient coordinates."""
    return build_case(case).ideal()


@_memoized
def case_cn_reduction(case: IdealCase):
    """The symbolic cn_ideal_reduction(None, 3, case.char) of a cnil case,
    computed once per case: the cnil generators and the symbolic check read
    the same report."""
    from .liealg import cn_ideal_reduction

    return cn_ideal_reduction(None, 3, case.char)


# The cases whose generator list over GF(l) is the char-0 list reduced mod l.
_GUIDED_TAGS = ("n2", "n3-z", "n3-x")


@_memoized
def case_basis(case: IdealCase, bound: int | None) -> IdealBasis:
    """Groebner basis of the named case up to `bound`, computed once per
    (case, bound).  A basis over GF(l) is guided (see polyalg.groebner) by
    the char-0 basis of the same (tag, bound) only when the store already
    holds it, so no basis over Q is built just to guide."""
    guide = None
    if case.char and case.tag in _GUIDED_TAGS:
        guide = _memo.get(("case_basis", IdealCase(case.tag), bound))
    return groebner(make_ideal(case), bound, guide=guide)


@_memoized
def case_hilbert(case: IdealCase, bound: int) -> GradedDims:
    """dim (S/I)_k for k <= bound of the named case, computed once per (case, bound)."""
    return hilbert_function(case_basis(case, bound), bound)


# -- randomized parametrization containment ------------------------------------------


@dataclass
class ParamReport:
    trials: int
    seed: int
    failures: list
    control_detected: bool
    bound_exponent: int  # failure probability <= 10^-bound_exponent

    @property
    def passed(self) -> bool:
        return not self.failures and self.control_detected

    @property
    def bound_text(self) -> str:
        return f"<= 10^-{self.bound_exponent}"


class _Compiled:
    """Polynomials over Q compiled for evaluation mod p at many points.

    Each polynomial becomes [(coefficient mod p, (slot, ...))], with Fraction
    coefficients inverted once.  A slot indexes the power table of a point:
    the tables of x_0, x_1, ..., each up to the largest exponent its variable
    has in the polynomials, laid end to end, so a term's value is its
    coefficient times the table entries of its slots."""

    def __init__(self, polys, n: int):
        self.p = p = EVAL_PRIME
        self.top = [max((m[i] for poly in polys for m in poly), default=0) for i in range(n)]
        offset = [0]
        for e in self.top:
            offset.append(offset[-1] + e + 1)
        self.polys = []
        for poly in polys:
            terms = []
            for mono, c in poly.items():
                if isinstance(c, Fraction):
                    c = c.numerator * pow(c.denominator, -1, p)
                terms.append((c % p, tuple(offset[i] + e for i, e in enumerate(mono) if e)))
            self.polys.append(terms)

    def values(self, point) -> list[int]:
        """Every compiled polynomial's value at point, mod p."""
        p = self.p
        table = []
        for x, top in zip(point, self.top):
            power = 1
            table.append(power)
            for _ in range(top):
                power = power * x % p
                table.append(power)
        out = []
        for terms in self.polys:
            total = 0
            for c, slots in terms:
                for j in slots:
                    c *= table[j]
                total += c
            out.append(total % p)
        return out


def _rand_matrix(rng, n):
    return [[rng.randrange(EVAL_PRIME) for _ in range(n)] for _ in range(n)]


def _inv_mod(a):
    n, p = len(a), EVAL_PRIME
    dinv = pow(mat_det(ZZ, a), -1, p)
    if n == 2:
        adj = [[a[1][1], -a[0][1]], [-a[1][0], a[0][0]]]
    else:
        adj = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                r = [k for k in range(3) if k != j]
                c = [k for k in range(3) if k != i]
                minor = a[r[0]][c[0]] * a[r[1]][c[1]] - a[r[0]][c[1]] * a[r[1]][c[0]]
                adj[i][j] = (-1) ** (i + j) * minor
    return [[adj[i][j] * dinv % p for j in range(n)] for i in range(n)]


def _mod(a):
    return [[x % EVAL_PRIME for x in row] for row in a]


def _conj(g, ginv, m):
    """g m ginv mod p: products over the integers, one reduction per entry."""
    return _mod(mat_mul(ZZ, mat_mul(ZZ, g, m), ginv))


def _rand_invertible(rng, n):
    while True:
        g = _rand_matrix(rng, n)
        if mat_det(ZZ, g) % EVAL_PRIME:
            return g


def _point_for_case(case: IdealCase, rng, ring) -> list[int]:
    p = EVAL_PRIME
    tag = case.tag
    if tag == "cnil":
        # chart point of the commuting-nilpotent hypersurface at a generic q
        q = rng.randrange(2, p - 1)
        a, b, c, d, f = (rng.randrange(p) for _ in range(5))
        e = (q * d * c - a * f) % p * pow(q * q - q, -1, p) % p
        vals = {"a": a, "b": b, "c": c, "d": d, "e": e, "f": f, "q": q,
                "r": pow(q, -1, p)}
        return [vals[nm] for nm in ring.names]
    if tag in ("n2", "n3-z", "n3-x"):
        n = 2 if tag == "n2" else 3
        g = _rand_invertible(rng, n)
        ginv = _inv_mod(g)
        if tag == "n3-x":
            # commuting pair: upper-triangular (a, b, c=t*a) and (d, e, f=t*d)
            a, d, t, b, e = (rng.randrange(p) for _ in range(5))
            m = [[0, a, b], [0, 0, t * a % p], [0, 0, 0]]
            nn = [[0, d, e], [0, 0, t * d % p], [0, 0, 0]]
        else:
            m = [[0] * n for _ in range(n)]
            nn = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    m[i][j] = rng.randrange(p)
                    nn[i][j] = rng.randrange(p)
        M = _conj(g, ginv, m)
        N = _conj(g, ginv, nn)
        vals = {}
        for prefix, mat in (("m", M), ("n", N)):
            for i in range(n):
                for j in range(n):
                    vals[f"{prefix}{i + 1}{j + 1}"] = mat[i][j]
        return [vals[nm] for nm in ring.names]
    if tag in ("gl-n2", "gl-n3"):
        n = 2 if tag == "gl-n2" else 3
        q = rng.randrange(2, p - 1)
        g = _rand_invertible(rng, n)
        ginv = _inv_mod(g)
        diag = [[pow(q, n - 1 - i, p) if i == j else 0 for j in range(n)] for i in range(n)]
        phi = _conj(g, ginv, diag)
        if n == 2:
            nil = [[0, rng.randrange(p)], [0, 0]]
        else:
            nil = [[0, rng.randrange(p), 0], [0, 0, rng.randrange(p)], [0, 0, 0]]
        N = _conj(g, ginv, nil)
        inv2 = pow(2, -1, p)
        N2 = mat_mul(ZZ, N, N)
        sigma = [[(int(i == j) + N[i][j] + (N2[i][j] * inv2 if n == 3 else 0)) % p
                  for j in range(n)] for i in range(n)]
        vals = {"q": q, "u": pow(q, -(n * (n - 1) // 2), p), "v": 1}
        for prefix, mat in (("f", phi), ("s", sigma)):
            for i in range(n):
                for j in range(n):
                    vals[f"{prefix}{i + 1}{j + 1}"] = mat[i][j]
        return [vals[nm] for nm in ring.names]
    raise UnsupportedCase(tag)


def parametrization_check(case: IdealCase, trials: int = 200, seed: int = 0) -> ParamReport:
    """Evaluate every generator at `trials` pseudorandom parametrized points.

    All generators must vanish identically on the parametrization; a
    deliberately non-member control polynomial must be detected.  The
    reported bound is the Schwartz-Zippel probability that a nonzero
    polynomial of (conservative) degree 100 vanishes at every trial.

    The generators and the control are compiled once (`_Compiled`):
    coefficients reduced mod EVAL_PRIME, Fraction coefficients inverted
    once.  Each trial point then gets one power table per variable, up to
    that variable's largest exponent, and every term is a product of table
    entries.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    data = build_case(case)
    rng = random.Random(seed)
    failures = []
    control = None
    if data.ring.n >= 2:
        control = data.ring.add(
            data.ring.mul(data.ring.var(data.ring.names[0]), data.ring.var(data.ring.names[1])),
            data.ring.const(1))
    control_hit = False
    compiled = _Compiled(data.gens + ([control] if control is not None else []), data.ring.n)
    k_gens = len(data.gens)
    for t in range(trials):
        values = compiled.values(_point_for_case(case, rng, data.ring))
        failures += [(t, k) for k, v in enumerate(values[:k_gens]) if v]
        if control is not None and values[k_gens]:
            control_hit = True
    # (100 / EVAL_PRIME)^trials <= 10^-exponent
    exponent = len(str((EVAL_PRIME // 100) ** trials)) - 1
    return ParamReport(trials, seed, failures, control_hit, exponent)


@_memoized
def case_points(case: IdealCase, trials: int, seed: int) -> ParamReport:
    """parametrization_check of the named case, run once per (case, trials,
    seed)."""
    return parametrization_check(case, trials, seed)


# -- Hilbert-function bridge to the character side ------------------------------------


@dataclass
class HilbertCross:
    bound: int
    groebner_dims: GradedDims
    character_dims: GradedDims

    @property
    def passed(self) -> bool:
        return self.groebner_dims.dims == self.character_dims.dims


def character_section_dims(tag: str, bound: int, twist: Weight | None = None) -> GradedDims:
    """Degree-k section counts of the relevant bundle on the flag variety, by
    Euler characteristics of sym^k((g/b) + (g/b)) (optionally twisted)."""
    datum = A1 if tag == "n2" else A2
    dims = []
    for k in range(bound + 1):
        rep = breps.build_rep(f"sym^{k}(g/b + g/b)", datum)
        if twist is not None:
            rep = rep.twist(twist)
        dims.append(bwb.euler_char(rep, datum).dimension(datum))
    return GradedDims(tuple(dims))


def hilbert_cross_check(case: IdealCase, bound: int) -> HilbertCross:
    """dim (S/I)_k from the truncated Groebner basis versus the character side."""
    if case.tag not in ("n2", "n3-z"):
        raise UnsupportedCase("hilbert cross check covers n2 and n3-z")
    if case.char not in (0,) and case.char < 5:
        raise UnsupportedCase("needs characteristic 0 or l >= 5")
    return HilbertCross(bound, case_hilbert(case, bound),
                        character_section_dims(case.tag, bound))


# -- the degree-3 span and its integer invariant factors -------------------------------


@dataclass
class Span17Report:
    ambient: str
    char: int
    rank: int
    quotient_free_rank: int
    quotient_torsion: list
    snf_primes: set

    @property
    def passed(self) -> bool:
        all_primes = self.snf_primes | _prime_divisors(self.quotient_torsion)
        return self.quotient_free_rank == 17 and all_primes <= {2} and self.rank == 17


def _prime_divisors(factors) -> set:
    primes = set()
    for d in factors:
        dd = abs(d)
        f = 2
        while f * f <= dd:
            if dd % f == 0:
                primes.add(f)
                while dd % f == 0:
                    dd //= f
            f += 1
        if dd > 1:
            primes.add(dd)
    return primes


def _degree3_rows(ring, polys):
    monos = sorted({m for p in polys for m in p}, key=lambda m: (sum(m), m))
    if any(sum(m) != 3 for m in monos):
        raise ValueError("degree-3 rows need homogeneous cubic polynomials")
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for p in polys:
        row = [0] * len(monos)
        for m, c in p.items():
            if Fraction(c).denominator != 1:
                raise ValueError(f"non-integral coefficient {c} in a degree-3 row")
            row[index[m]] = int(c)
        rows.append(row)
    return rows


def _field_rank(char, int_rows) -> int:
    fld = field_of(char)
    of, zero = fld.of, fld.zero
    return span_rank(fld, ({i: y for i, x in enumerate(row) if x and (y := of(x)) != zero}
                           for row in int_rows))


# The char-0 case whose ring and matrices each span17_check ambient uses.
_SPAN_CASES = {"traceless": IdealCase("n3-z"), "full-matrix": IdealCase("n3-x")}


@_memoized
def span_lattice(ambient: str):
    """The integer side of span17_check in one ambient, built once per
    ambient: it does not depend on the characteristic.  The polynomials are
    built over Q from the matrices of the ambient's case, whose coefficients
    are integers.  Returns the degree-3 rows of the span entries and of the
    reducers, the free rank and torsion of the quotient lattice, and the
    invariant factors of all rows, as tuples."""
    data = build_case(_SPAN_CASES[ambient])
    ring, M, N = data.ring, data.mats["M"], data.mats["N"]
    M2 = mat_mul(ring, M, M)
    span_polys = []
    for prod in (mat_mul(ring, M2, N), mat_mul(ring, N, M2)):
        span_polys += [prod[i][j] for i in range(3) for j in range(3)]
    trmn = mat_trace(ring, mat_mul(ring, M, N))
    trm2 = mat_trace(ring, M2)
    reducers = []
    reducers += [ring.mul(M[i][j], trmn) for i in range(3) for j in range(3) if M[i][j]]
    reducers += [ring.mul(N[i][j], trm2) for i in range(3) for j in range(3) if N[i][j]]
    if ambient == "full-matrix":
        trm_sq = ring.mul(mat_trace(ring, M), mat_trace(ring, M))
        reducers += [ring.mul(N[i][j], trm_sq) for i in range(3) for j in range(3) if N[i][j]]
    arow = _degree3_rows(ring, span_polys + reducers)
    a_part = arow[: len(span_polys)]
    b_part = arow[len(span_polys):]
    free, torsion = quotient_invariant_factors(a_part, b_part)
    factors = snf(arow)
    return (tuple(map(tuple, a_part)), tuple(map(tuple, b_part)), free, tuple(torsion),
            tuple(factors))


def span17_check(char: int = 0) -> dict:
    """Rank of the span of the M^2N and NM^2 entries modulo the listed
    degree-3 reducers, in both ambients, plus the invariant factors of the
    integer quotient lattice."""
    out = {}
    for ambient in ("traceless", "full-matrix"):
        a_part, b_part, free, torsion, factors = span_lattice(ambient)
        rk_all = _field_rank(char, a_part + b_part)
        rk_red = _field_rank(char, b_part)
        out[ambient] = Span17Report(ambient, char, rk_all - rk_red, free, list(torsion),
                                    _prime_divisors(factors))
    return out


# -- multiplicities of the self-dual divisorial sheaves --------------------------------

MULTIPLICITY_WEIGHTS: dict[Weight, str] = {
    (1, 0): "L1",
    (0, 1): "-L3",
    (2, -1): "2L1+L3",
    (1, 1): "L1-L3",
}


def multiplicity(lam: Weight) -> int:
    """Fibre dimension at the origin of the divisorial sheaf attached to lam.

    The three dominant-side cases are the dimensions of the corresponding
    irreducibles placed in degree 0; the remaining case 2L1+L3 = alpha
    contributes two copies of the adjoint representation in degree 1.
    """
    if lam not in MULTIPLICITY_WEIGHTS:
        raise UnsupportedCase(f"multiplicity not verified for weight {lam}")
    if lam == (2, -1):
        return 2 * bwb.weyl_dim((1, 1))
    return bwb.weyl_dim(lam)


# -- gl-case cross checks ----------------------------------------------------------


@dataclass
class SpecializationReport:
    tag: str
    char: int
    forward_ok: bool  # specialized gl generators lie in the target ideal
    backward_ok: bool  # target generators lie in the specialized gl ideal

    @property
    def passed(self) -> bool:
        return self.forward_ok and self.backward_ok


def gl_specialization_check(tag: str, char: int = 5) -> SpecializationReport:
    """At q = 1 the gl-case ideal, written with Phi = I + M, Sigma = I + N and
    the inverse variables set to 1, coincides with the nilpotent-side ideal
    (n2 with trace generators, resp. n3-x).  Both containments are certified
    by mutual normal-form reduction against degree-complete bases."""
    if tag not in ("gl-n2", "gl-n3"):
        raise UnsupportedCase(tag)
    n = 2 if tag == "gl-n2" else 3
    gl = build_case(IdealCase(tag, char))
    if n == 2:
        target_ring = PolyRing(_matrix_names("m", 2, False) + _matrix_names("n", 2, False), char)
        M = _var_matrix(target_ring, "m", 2, False)
        N = _var_matrix(target_ring, "n", 2, False)
        comm = mat_sub(target_ring, mat_mul(target_ring, M, N), mat_mul(target_ring, N, M))
        target_gens = [mat_trace(target_ring, M), mat_trace(target_ring, N),
                       mat_det(target_ring, M), mat_det(target_ring, N),
                       mat_trace(target_ring, mat_mul(target_ring, M, N))]
        target_gens += [comm[i][j] for i in range(2) for j in range(2) if comm[i][j]]
    else:
        target = build_case(IdealCase("n3-x", char))
        target_ring, target_gens = target.ring, target.gens
    # substitute q = 1, f_ij -> delta_ij + m_ij, s_ij -> delta_ij + n_ij, u = v = 1
    images = {nm: target_ring.const(1) for nm in ("q", "u", "v")}
    for i in range(n):
        for j in range(n):
            delta = target_ring.const(1 if i == j else 0)
            images[f"f{i + 1}{j + 1}"] = target_ring.add(delta, target_ring.var(f"m{i + 1}{j + 1}"))
            images[f"s{i + 1}{j + 1}"] = target_ring.add(delta, target_ring.var(f"n{i + 1}{j + 1}"))
    specialized = [gl.ring.substitute(g, images, target_ring) for g in gl.gens]
    specialized = [g for g in specialized if g]
    bound = max(max((target_ring.degree(g) for g in specialized), default=0),
                max((target_ring.degree(g) for g in target_gens), default=0))
    spec_homog = homogenize_by_elimination(target_ring, specialized)
    g_spec = groebner(IdealBasis(target_ring, spec_homog), bound)
    g_target = (groebner(IdealBasis(target_ring, list(target_gens)), bound) if n == 2
                else case_basis(IdealCase("n3-x", char), bound))
    forward = all(not normal_form(g, g_target) for g in specialized)
    backward = all(not normal_form(g, g_spec) for g in target_gens)
    return SpecializationReport(tag, char, forward, backward)


@dataclass
class ChartReport:
    tag: str
    checked: int
    nonvanishing: list

    @property
    def passed(self) -> bool:
        return not self.nonvanishing


def chart_symbolic_check(tag: str) -> ChartReport:
    """Fully expanded verification on the standard chart.

    For gl-n2 / gl-n3: Phi = diag(q^{n-1}, ..., 1) exactly and N the free
    allowed-position nilpotent (x E12 [+ y E23]), Sigma the truncated
    exponential, u = r^{n(n-1)/2}, v = 1, inside Q[q, r, params]/(qr - 1).
    Every generator must reduce to zero; conjugation covariance of the
    generator list transports the identity off the chart.
    """
    if tag not in ("gl-n2", "gl-n3"):
        raise UnsupportedCase(tag)
    n = 2 if tag == "gl-n2" else 3
    gl = build_case(IdealCase(tag, 0))
    names = ("q", "r", "x", "y")[: 2 + (n - 1)]
    chart = PolyRing(names, 0)
    q = chart.var("q")
    r = chart.var("r")
    nil = _zeros(chart, n)
    nil[0][1] = chart.var("x")
    if n == 3:
        nil[1][2] = chart.var("y")
    nil2 = mat_mul(chart, nil, nil)
    sigma = mat_add(chart, mat_identity_poly(chart, n, chart.const(1)), nil)
    if n == 3:
        sigma = mat_add(chart, sigma, mat_scale_poly(chart, nil2, chart.const(Fraction(1, 2))))
    images = {"q": q, "u": chart.pow(r, n * (n - 1) // 2), "v": chart.const(1)}
    for i in range(n):
        for j in range(n):
            images[f"f{i + 1}{j + 1}"] = chart.pow(q, n - 1 - i) if i == j else chart.zero()
            images[f"s{i + 1}{j + 1}"] = sigma[i][j]
    bad = []
    for k, g in enumerate(gl.gens):
        val = gl.ring.substitute(g, images, chart)
        if normal_form_mod_unit(chart, val, "q", "r"):
            bad.append(k)
    return ChartReport(tag, len(gl.gens), bad)


# -- the commutator layer over the nilpotent-pair ring ---------------------------------


@dataclass
class CommutatorLayerReport:
    char: int
    bound: int
    new_generators_degree2: int
    hf_quotient: GradedDims
    character_dims: tuple

    @property
    def passed(self) -> bool:
        return (self.new_generators_degree2 == 8
                and tuple(self.hf_quotient.dims) == self.character_dims)


def commutator_layer_check(char: int = 5, bound: int = 5) -> CommutatorLayerReport:
    """The ideal of the reduced fibre over the nilpotent-pair ring.

    Degreewise, dim (S/J)_k must equal the section count of the structure
    sheaf minus that of its rho-twist shifted by two (the ideal sheaf of the
    commuting locus is the rho-twist, generated in degree 2); the degree-2
    difference counts the commutator entries, 8 new generators.
    """
    gJ = case_basis(IdealCase("n3-x", char), bound)
    hfJ = hilbert_function(gJ, bound)
    base = character_section_dims("n3-z", bound)
    tw = character_section_dims("n3-z", bound, twist=(1, 1))
    expected = tuple(base[k] - (tw[k - 2] if k >= 2 else 0) for k in range(bound + 1))
    new2 = base[2] - expected[2] if len(expected) > 2 else 0
    return CommutatorLayerReport(char, bound, new2, hfJ, expected)
