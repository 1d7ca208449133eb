"""The named ideals of the Steinberg-component computations and their checks.

Six cases are modelled.  n2, n3-z and n3-x are built on one matrix pair
(`_matrix_pair`, `_pair_gens`), whose ring uses degrevlex with the entries
of M row-major first, then the entries of N row-major (traceless ambients
drop the last diagonal entry of each matrix and write it as minus the others).

    n2      pairs of traceless 2x2 matrices; generators det M, det N,
            tr(MN), entries of MN - NM.
    n3-z    pairs of traceless 3x3 matrices; generators tr M^2, tr MN,
            tr N^2, tr M^3, tr N^3 and all entries of M^2N, N^2M, NM^2, MN^2.
    n3-x    full 3x3 pairs; the n3-z traces plus tr M, tr N and the entries
            of MN - NM, with only M^2N and MN^2 among the cubic products.
    gl-n2   (Phi, Sigma) in GLn x GLn, n = 2 or 3, with inverse-determinant
    gl-n3   variables u, v, from one construction: Phi Sigma = Sigma^q Phi with
            Sigma^q = sum_{k<n} C(q,k)(Sigma-I)^k, the characteristic
            polynomials e_k(Phi) = e_k(1, q, ..., q^(n-1)) and e_k(Sigma) =
            C(n,k), tr(Phi(Sigma-I)), and for n = 3 two extra cubic relations.
    cnil    the commuting-nilpotent chart equation (see cn_ideal_reduction).

In the gl and cnil cases q is a variable of the ring, the first one; a
check that needs a value of q substitutes it (q = 1 in
gl_specialization_check, a random q in each parametrized point).

The verification campaigns pair the Groebner side against independent
oracles: pseudorandom parametrized points (Schwartz-Zippel bounded), the
character-level section counts of the flag-variety bundles, and integer
invariant factors for the degree-3 span.  A check behind one report entry
returns (passed, expected, actual), the texts the campaign adds as they are.

Cases, the cnil reduction, bases, Hilbert functions (per case and per
staircase), points reports and span lattices are memoized in one per-run
store, `_memo`, keyed by (function name, *positional arguments);
`clear_case_memo` empties it at the end of a `verify_all`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import wraps
from math import comb

from . import breps, bwb
from .fieldops import (ZZ, Frozen, Record, field_of, mat_add, mat_det, mat_mul, mat_sub,
                       mat_trace, set_field, span_rank)
from .polyalg import (GradedDims, IdealBasis, PolyRing, groebner, hilbert_function,
                      homogenize_by_elimination, leading_staircase, normal_form,
                      quotient_invariant_factors, snf, unit_basis)
from .weights import A1, A2, Weight

CASE_TAGS = ("n2", "n3-z", "n3-x", "gl-n2", "gl-n3", "cnil")

EVAL_PRIME = 2**31 - 1  # fixed prime for randomized point evaluation


class UnsupportedCase(ValueError):
    pass


class IdealCase(Frozen):
    """Descriptor: which named ideal, over which characteristic."""

    __slots__ = ("tag", "char")
    def __init__(self, tag: str, char: int = 0):
        if tag not in CASE_TAGS:
            raise UnsupportedCase(f"unknown case tag {tag!r}")
        if tag.startswith("gl") and char in (2, 3):
            raise UnsupportedCase("gl cases need characteristic 0 or l > 3")
        set_field(self, "tag", tag)
        set_field(self, "char", char)


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
    """Drop every memoized case, cnil reduction, basis, Hilbert function
    (per case and per staircase), points report and span lattice."""
    _memo.clear()


# -- polynomial matrices ----------------------------------------------------------


def _zeros(ring, n):
    return [[ring.zero() for _ in range(n)] for _ in range(n)]


def mat_e2(ring, a):
    """Second elementary symmetric function of the eigenvalues,
    (tr(a)^2 - tr(a^2)) / 2; needs 1/2."""
    tr = mat_trace(ring, a)
    return ring.scale(ring.sub(ring.mul(tr, tr), mat_trace(ring, mat_mul(ring, a, a))),
                      Fraction(1, 2))


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


def _entries(*mats) -> list:
    """The nonzero entries of the matrices, row-major, one matrix after another."""
    return [x for a in mats for row in a for x in row if x]


def _matrix_pair(n: int, traceless: bool, char: int):
    """(ring, M, N): the ring of a pair of n x n matrices, traceless or full,
    and the two matrices of its variables."""
    ring = PolyRing(_matrix_names("m", n, traceless) + _matrix_names("n", n, traceless), char)
    return ring, _var_matrix(ring, "m", n, traceless), _var_matrix(ring, "n", n, traceless)


def _pair_gens(tag: str, ring, M, N) -> list:
    """The generator list of the pair case n2, n3-z or n3-x in M and N."""
    def tr(a):
        return mat_trace(ring, a)

    def comm():  # the entries of MN - NM; n3-z has none
        return _entries(mat_sub(ring, MN, mat_mul(ring, N, M)))

    MN = mat_mul(ring, M, N)
    if tag == "n2":
        return [mat_det(ring, M), mat_det(ring, N), tr(MN)] + comm()
    M2, N2 = mat_mul(ring, M, M), mat_mul(ring, N, N)
    traces = [tr(M2), tr(MN), tr(N2)]
    cubics = [tr(mat_mul(ring, M2, M)), tr(mat_mul(ring, N2, N))]
    if tag == "n3-z":
        return traces + cubics + _entries(mat_mul(ring, M2, N), mat_mul(ring, N2, M),
                                          mat_mul(ring, N, M2), mat_mul(ring, M, N2))
    return ([tr(M), tr(N)] + traces + comm() + cubics
            + _entries(mat_mul(ring, M2, N), mat_mul(ring, M, N2)))


class CaseData(Record):
    __slots__ = ("ring", "gens", "mats")
    def __init__(self, ring: PolyRing, gens: list, mats: dict):
        self.ring, self.gens, self.mats = ring, gens, mats


@_memoized
def build_case(case: IdealCase) -> CaseData:
    """Ring, generators and matrices of the named case, built once per case."""
    tag = case.tag
    if tag == "cnil":
        rep = case_cn_reduction(case)
        return CaseData(rep.ring, [e for _, e in rep.entries], {})
    if tag in ("n2", "n3-z", "n3-x"):
        ring, M, N = _matrix_pair(2 if tag == "n2" else 3, tag != "n3-x", case.char)
        return CaseData(ring, _pair_gens(tag, ring, M, N), {"M": M, "N": N})
    if tag in ("gl-n2", "gl-n3"):
        n = int(tag[-1])
        names = ["q"] + _matrix_names("f", n, False) + _matrix_names("s", n, False) + ["u", "v"]
        ring = PolyRing(names, case.char)
        Phi = _var_matrix(ring, "f", n, False)
        Sigma = _var_matrix(ring, "s", n, False)
        q = ring.var("q")
        one = mat_identity_poly(ring, n, ring.const(1))
        Nmat = mat_sub(ring, Sigma, one)
        # Sigma^q = sum_{k<n} C(q, k) (Sigma - I)^k, as (Sigma - I)^n = 0;
        # C(q, k) = C(q, k-1) (q - k + 1) / k needs 1/k
        binom, power, sigma_q = ring.const(1), one, one
        for k in range(1, n):
            binom = ring.scale(ring.mul(binom, ring.sub(q, ring.const(k - 1))), Fraction(1, k))
            power = mat_mul(ring, power, Nmat)
            sigma_q = mat_add(ring, sigma_q, mat_scale_poly(ring, power, binom))
        comm = mat_sub(ring, mat_mul(ring, Phi, Sigma), mat_mul(ring, sigma_q, Phi))
        gens = _entries(comm)
        # e_k(Phi) = e_k(1, q, ..., q^(n-1)), the t^k coefficient of
        # prod_{i<n} (1 + q^i t), and e_k(Sigma) = C(n, k)
        eq = [ring.const(1)]
        for i in range(n):
            eq = [ring.add(a, ring.mul(b, ring.pow(q, i))) for a, b in zip(eq + [{}], [{}] + eq)]
        elementary = [mat_trace, mat_e2][:n - 1] + [mat_det]
        for mat, rhs in ((Phi, eq), (Sigma, [ring.const(comb(n, k)) for k in range(n + 1)])):
            gens += [ring.sub(e(ring, mat), rhs[k]) for k, e in enumerate(elementary, 1)]
        gens.append(mat_trace(ring, mat_mul(ring, Phi, Nmat)))
        if n == 3:  # (Phi - q^2)(Sigma - I)^2 = 0 = (Phi - q^2)(Phi - q)(Sigma - I)
            phi_q2 = mat_sub(ring, Phi, mat_identity_poly(ring, n, ring.pow(q, 2)))
            phi_q1 = mat_sub(ring, Phi, mat_identity_poly(ring, n, q))
            gens += _entries(mat_mul(ring, phi_q2, power),
                             mat_mul(ring, mat_mul(ring, phi_q2, phi_q1), Nmat))
        gens.append(ring.sub(ring.mul(ring.var("u"), mat_det(ring, Phi)), ring.const(1)))
        gens.append(ring.sub(ring.mul(ring.var("v"), mat_det(ring, Sigma)), ring.const(1)))
        # sums and products of Fractions stay Fractions when integral (see
        # fieldops): each integral coefficient goes back to its int, once
        gens = [{m: c.numerator if type(c) is Fraction and c.denominator == 1 else c
                 for m, c in g.items()} for g in gens]
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
    data = build_case(case)
    return IdealBasis(data.ring, list(data.gens))


@_memoized
def case_basis(case: IdealCase, bound: int | None) -> IdealBasis:
    """Groebner basis of the named case up to `bound`, computed once per
    (case, bound).  A basis over GF(l), l >= 5, is guided by the char-0
    basis of the same (tag, bound), which is built first when the store
    lacks it: the run reads its basis off that one when l divides nothing it
    recorded, and runs unguided otherwise (see polyalg.groebner).  So the
    order of the campaigns asking for bases does not change the work.  At
    l = 2 and 3 no guide is built: the Q runs of n3-z and n3-x record 24."""
    guide = case_basis(IdealCase(case.tag), bound) if case.char >= 5 else None
    return groebner(make_ideal(case), bound, guide=guide)


@_memoized
def case_hilbert(case: IdealCase, bound: int) -> GradedDims:
    """dim (S/I)_k for k <= bound of the named case, computed once per (case,
    bound).  HF(k <= bound) depends only on the basis's staircase, so bases
    with the same staircase share one computation, stored under
    ("hilbert_function", number of variables, bound, the minimal (leading
    monomial, support mask) pairs of `leading_staircase`)."""
    basis = case_basis(case, bound)
    key = ("hilbert_function", basis.ring.n, bound, leading_staircase(basis, bound))
    if key not in _memo:
        _memo[key] = hilbert_function(basis, bound)
    return _memo[key]


# -- randomized parametrization containment ------------------------------------------


class ParamReport(Record):
    __slots__ = ("trials", "failures", "control_detected", "bound_exponent")
    def __init__(self, trials: int, failures: list, control_detected: bool, bound_exponent: int):
        self.trials, self.failures = trials, failures
        self.control_detected = control_detected
        self.bound_exponent = bound_exponent  # failure probability <= 10^-bound_exponent

    @property
    def passed(self) -> bool:
        return not self.failures and self.control_detected

    @property
    def bound_text(self) -> str:
        return f"<= 10^-{self.bound_exponent}"


class _Compiled:
    """Polynomials over Q compiled for evaluation mod p at many points.

    Each polynomial becomes [(coefficient mod p, (slot, ...))]; a Fraction
    coefficient has its denominator inverted once.  A slot indexes the power
    table of a point: the tables of x_0, x_1, ..., each up to the largest
    exponent its variable has in the polynomials, laid end to end, so a
    term's value is its coefficient times the table entries of its slots."""

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
    """The inverse mod p of an invertible 2x2 or 3x3 integer matrix: its
    adjugate (a closed-form cofactor table) over its determinant."""
    p = EVAL_PRIME
    if len(a) == 2:
        (a0, a1), (b0, b1) = a
        adj = [[b1, -a1], [-b0, a0]]
    else:
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = a
        adj = [[b1 * c2 - b2 * c1, a2 * c1 - a1 * c2, a1 * b2 - a2 * b1],
               [b2 * c0 - b0 * c2, a0 * c2 - a2 * c0, a2 * b0 - a0 * b2],
               [b0 * c1 - b1 * c0, a1 * c0 - a0 * c1, a0 * b1 - a1 * b0]]
    dinv = pow(mat_det(ZZ, a), -1, p)
    return [[x * dinv % p for x in row] for row in adj]


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


def _point_slots(ring) -> list[tuple[str, int, int]]:
    """Each variable of a case's ring as (matrix name, row, column): m12 is
    ("m", 0, 1), and a scalar such as q is the 1x1 matrix ("q", 0, 0)."""
    return [(nm, 0, 0) if len(nm) == 1 else (nm[0], int(nm[1]) - 1, int(nm[2]) - 1)
            for nm in ring.names]


def _point_for_case(case: IdealCase, rng, slots) -> list[int]:
    """A random point of the case's parametrization, as values of the
    variables in the order of `slots` (from `_point_slots`)."""
    p = EVAL_PRIME
    tag = case.tag
    if tag == "cnil":
        # chart point of the commuting-nilpotent hypersurface at a generic q
        q = rng.randrange(2, p - 1)
        a, b, c, d, f = (rng.randrange(p) for _ in range(5))
        e = (q * d * c - a * f) % p * pow(q * q - q, -1, p) % p
        vals = {k: [[x]] for k, x in zip("abcdefqr", (a, b, c, d, e, f, q, pow(q, -1, p)))}
    elif tag in ("n2", "n3-z", "n3-x"):
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
        vals = {"m": _conj(g, ginv, m), "n": _conj(g, ginv, nn)}
    elif tag in ("gl-n2", "gl-n3"):
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
        vals = {"q": [[q]], "u": [[pow(q, -(n * (n - 1) // 2), p)]], "v": [[1]],
                "f": phi, "s": sigma}
    else:
        raise UnsupportedCase(tag)
    return [vals[k][i][j] for k, i, j in slots]


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
    slots = _point_slots(data.ring)
    for t in range(trials):
        values = compiled.values(_point_for_case(case, rng, slots))
        failures += [(t, k) for k, v in enumerate(values[:k_gens]) if v]
        if control is not None and values[k_gens]:
            control_hit = True
    # (100 / EVAL_PRIME)^trials <= 10^-exponent
    exponent = len(str((EVAL_PRIME // 100) ** trials)) - 1
    return ParamReport(trials, failures, control_hit, exponent)


@_memoized
def case_points(case: IdealCase, trials: int, seed: int) -> ParamReport:
    """parametrization_check of the named case, run once per (case, trials,
    seed)."""
    return parametrization_check(case, trials, seed)


# -- Hilbert-function bridge to the character side ------------------------------------


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


def hilbert_cross_check(case: IdealCase, bound: int) -> tuple[bool, str, str]:
    """(passed, expected, actual): dim (S/I)_k from the truncated Groebner
    basis versus the character side."""
    if case.tag not in ("n2", "n3-z"):
        raise UnsupportedCase("hilbert cross check covers n2 and n3-z")
    if case.char not in (0,) and case.char < 5:
        raise UnsupportedCase("needs characteristic 0 or l >= 5")
    got, want = case_hilbert(case, bound), character_section_dims(case.tag, bound)
    return got.dims == want.dims, f"section counts {want}", str(got)


# -- the degree-3 span and its integer invariant factors -------------------------------


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
    span_polys = _entries(mat_mul(ring, M2, N), mat_mul(ring, N, M2))
    trmn = mat_trace(ring, mat_mul(ring, M, N))
    trm2 = mat_trace(ring, M2)
    reducers = [ring.mul(x, trmn) for x in _entries(M)] + [ring.mul(x, trm2) for x in _entries(N)]
    if ambient == "full-matrix":
        trm_sq = ring.mul(mat_trace(ring, M), mat_trace(ring, M))
        reducers += [ring.mul(x, trm_sq) for x in _entries(N)]
    arow = _degree3_rows(ring, span_polys + reducers)
    a_part = arow[: len(span_polys)]
    b_part = arow[len(span_polys):]
    free, torsion = quotient_invariant_factors(a_part, b_part)
    factors = snf(arow)
    return (tuple(map(tuple, a_part)), tuple(map(tuple, b_part)), free, tuple(torsion),
            tuple(factors))


def span17_check(char: int = 0) -> dict:
    """Per ambient, (passed, expected, actual): rank of the span of the M^2N
    and NM^2 entries modulo the listed degree-3 reducers, plus the invariant
    factors of the integer quotient lattice."""
    out = {}
    for ambient in ("traceless", "full-matrix"):
        a_part, b_part, free, torsion, factors = span_lattice(ambient)
        rank = _field_rank(char, a_part + b_part) - _field_rank(char, b_part)
        primes = _prime_divisors(factors)
        out[ambient] = (free == 17 and primes | _prime_divisors(torsion) <= {2} and rank == 17,
                        "rank 17, invariant-factor primes within {2}",
                        f"rank {rank}, free {free}, torsion {list(torsion)}, "
                        f"snf primes {sorted(primes)}")
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


def gl_specialization_check(tag: str, char: int = 5) -> tuple[bool, str, str]:
    """(passed, expected, actual): at q = 1 the gl-case ideal, written with
    Phi = I + M, Sigma = I + N and the inverse variables set to 1, coincides
    with the nilpotent-side ideal (n2 with trace generators, resp. n3-x).
    Both containments are certified by mutual normal-form reduction against
    bases complete through the generators' degrees; for gl-n3 that is the
    complete n3-x basis, which the commutator layer and the containment
    dictionary read too.  Specialized generators that do not homogenize by
    constant elimination fail the check."""
    if tag not in ("gl-n2", "gl-n3"):
        raise UnsupportedCase(tag)
    n = 2 if tag == "gl-n2" else 3
    gl = build_case(IdealCase(tag, char))
    if n == 2:  # n2's generators on a full pair, after tr M and tr N
        target_ring, M, N = _matrix_pair(2, False, char)
        target_gens = ([mat_trace(target_ring, M), mat_trace(target_ring, N)]
                       + _pair_gens("n2", target_ring, M, N))
    else:
        target = build_case(IdealCase("n3-x", char))
        target_ring, target_gens = target.ring, target.gens
        M, N = target.mats["M"], target.mats["N"]
    # substitute q = u = v = 1, Phi = I + M, Sigma = I + N
    one = mat_identity_poly(target_ring, n, target_ring.const(1))
    images = {nm: target_ring.const(1) for nm in ("q", "u", "v")}
    for prefix, mat in (("f", M), ("s", N)):
        images.update(zip(_matrix_names(prefix, n, False),
                          _entries(mat_add(target_ring, one, mat))))
    specialized = [gl.ring.substitute(g, images, target_ring) for g in gl.gens]
    specialized = [g for g in specialized if g]
    bound = max(max((target_ring.degree(g) for g in specialized), default=0),
                max((target_ring.degree(g) for g in target_gens), default=0))
    expected = "ideal equals the nilpotent-side ideal after Phi = I+M, Sigma = I+N"
    try:
        spec_homog = homogenize_by_elimination(target_ring, specialized)
    except ValueError as e:
        return False, expected, f"does not homogenize: {e}"
    g_spec = groebner(IdealBasis(target_ring, spec_homog), bound)
    g_target = (groebner(IdealBasis(target_ring, list(target_gens)), bound) if n == 2
                else case_basis(IdealCase("n3-x", char), None))
    # forward: the specialized gl generators lie in the target ideal;
    # backward: the target generators lie in the specialized gl ideal
    forward = all(not normal_form(g, g_target) for g in specialized)
    backward = all(not normal_form(g, g_spec) for g in target_gens)
    return forward and backward, expected, f"forward {forward}, backward {backward}"


def chart_symbolic_check(tag: str) -> tuple[bool, str, str]:
    """(passed, expected, actual): fully expanded verification on the
    standard chart.

    For gl-n2 / gl-n3: Phi = diag(q^{n-1}, ..., 1) exactly and N the free
    allowed-position nilpotent (x E12 [+ y E23]), Sigma the truncated
    exponential, u = r^{n(n-1)/2}, v = 1, inside Q[q, r, params]/(qr - 1).
    Every generator must reduce to zero; conjugation covariance of the
    generator list transports the identity off the chart.  That covariance
    is backed by a test oracle (tests/test_cases.py), not yet by a report
    check.
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
    phi = [[chart.pow(q, n - 1 - i) if i == j else chart.zero() for j in range(n)]
           for i in range(n)]
    images = {"q": q, "u": chart.pow(r, n * (n - 1) // 2), "v": chart.const(1)}
    for prefix, mat in (("f", phi), ("s", sigma)):  # zeros too: every name needs an image
        images.update(zip(_matrix_names(prefix, n, False), (x for row in mat for x in row)))
    unit = unit_basis(chart)
    bad = []
    for k, g in enumerate(gl.gens):
        val = gl.ring.substitute(g, images, chart)
        if normal_form(val, unit):
            bad.append(k)
    return (not bad, f"all {len(gl.gens)} generators vanish on the chart",
            f"nonzero at {bad}" if bad else "all reduce to 0")


# -- the commuting-nilpotent chart equation ----------------------------------------


class CnReport(Record):
    """Outcome of expanding (Phi0 + M) N - q N (Phi0 + M) on the chart.

    raw is the single nonzero entry (n = 3); normalized is its form after the
    recorded unit substitution e -> (q+1)/q * e, c -> c/q, which matches the
    usual presentation (q^2-1)e + af - dc.  For n = 2 the entry list is empty.
    The entries are polynomials of ring: q, r = 1/q (symbolic q only), then
    the upper entries a, b, c of M and d, e, f of N.
    """

    __slots__ = ("ring", "entries", "principal", "generator_text", "normalized_text", "passed")
    def __init__(self, ring: object, entries: list, principal: bool, generator_text: str,
                 normalized_text: str, passed: bool):
        self.ring, self.entries, self.principal = ring, entries, principal
        self.generator_text, self.normalized_text = generator_text, normalized_text
        self.passed = passed


def cn_ideal_reduction(q=None, n: int = 3, char=0) -> CnReport:
    if n not in (2, 3):
        raise ValueError("only n = 2 and n = 3 are modelled")
    upper = {2: [("a", 0, 1)], 3: [("a", 0, 1), ("b", 0, 2), ("c", 1, 2)]}[n]
    upper_n = {2: [("d", 0, 1)], 3: [("d", 0, 1), ("e", 0, 2), ("f", 1, 2)]}[n]
    names = [nm for nm, _, _ in upper] + [nm for nm, _, _ in upper_n]
    symbolic = q is None
    ring = PolyRing((["q", "r"] if symbolic else []) + names, char)
    qv = ring.var("q") if symbolic else ring.const(q)

    phi = _zeros(ring, n)
    nm_mat = _zeros(ring, n)
    for i in range(n):
        phi[i][i] = ring.pow(qv, n - 1 - i)
    for nm, i, j in upper:
        phi[i][j] = ring.var(nm)
    for nm, i, j in upper_n:
        nm_mat[i][j] = ring.var(nm)

    pn = mat_mul(ring, phi, nm_mat)
    np_ = mat_mul(ring, nm_mat, phi)
    entries = []
    for i in range(n):
        for j in range(n):
            e = ring.sub(pn[i][j], ring.mul(qv, np_[i][j]))
            if e:
                entries.append(((i, j), e))
    principal = len(entries) <= 1
    if n == 2:
        return CnReport(ring, entries, principal, "0", "0", not entries)
    gen_text = norm_text = ""
    passed = False
    if principal and entries:
        gen = entries[0][1]
        gen_text = ring.to_text(gen)
        if symbolic:
            # normalize by the unit rescaling in the Laurent ring Q[q, r]/(qr - 1)
            subbed = ring.substitute(
                gen,
                {
                    "e": ring.mul(ring.add(ring.var("q"), ring.const(1)),
                                  ring.mul(ring.var("r"), ring.var("e"))),
                    "c": ring.mul(ring.var("r"), ring.var("c")),
                },
                ring,
            )
            norm = normal_form(subbed, unit_basis(ring))
            norm_text = ring.to_text(norm)
            expect = ring.from_text("q^2*e - 1*e + a*f - 1*d*c")
            passed = norm == expect
        else:
            norm_text = gen_text
            # (q^2 - q)e + af - q dc, specialised at the numeric q
            sym = PolyRing(["q"] + names, 0)
            expect = sym.substitute(sym.from_text("q^2*e - 1*q*e + a*f - 1*q*d*c"),
                                    {"q": ring.const(q)}, ring)
            passed = gen == expect
    return CnReport(ring, entries, principal, gen_text, norm_text, passed)


@_memoized
def case_cn_reduction(case: IdealCase):
    """The symbolic cn_ideal_reduction(None, 3, case.char) of a cnil case,
    computed once per case: the cnil generators and the symbolic check read
    the same report."""
    return cn_ideal_reduction(None, 3, case.char)


# -- the commutator layer over the nilpotent-pair ring ---------------------------------


def commutator_layer_check(char: int = 5, bound: int = 5) -> tuple[bool, str, str]:
    """(passed, expected, actual) for the ideal of the reduced fibre over the
    nilpotent-pair ring.

    Degreewise, dim (S/J)_k must equal the section count of the structure
    sheaf minus that of its rho-twist shifted by two (the ideal sheaf of the
    commuting locus is the rho-twist, generated in degree 2); the degree-2
    difference counts the commutator entries, 8 new generators.  The
    Hilbert function is read through `bound` off the complete n3-x basis.
    """
    gJ = case_basis(IdealCase("n3-x", char), None)
    hfJ = hilbert_function(gJ, bound)
    base = character_section_dims("n3-z", bound)
    tw = character_section_dims("n3-z", bound, twist=(1, 1))
    expected = tuple(base[k] - (tw[k - 2] if k >= 2 else 0) for k in range(bound + 1))
    new2 = base[2] - expected[2] if len(expected) > 2 else 0
    return (new2 == 8 and tuple(hfJ.dims) == expected,
            f"8 new degree-2 generators; quotient dimensions {expected}", f"{new2} new; {hfJ}")
