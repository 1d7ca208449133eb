import functools
import hashlib
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinberg import cases, polyalg
from steinberg.cases import IdealCase, build_case, case_basis, clear_case_memo, make_ideal
from steinberg.fieldops import mat_mul
from steinberg.polyalg import (GradedDims, IdealBasis, InvariantError, PolyRing,
                               TruncationError, groebner, hilbert_function,
                               homogenize_by_elimination, hnf_rowspace, int_rows, krull_dim,
                               leading_staircase, min_gen_degrees, normal_form,
                               quotient_invariant_factors, snf)


def ring6(char=0):
    return PolyRing(("a", "b", "c", "d", "e", "f"), char)


def test_groebner_trivial_cases():
    R = PolyRing(("x", "y"), 0)
    g = groebner(IdealBasis(R, [R.var("x"), R.var("y")]), None)
    assert [R.to_text(p) for p in g.gb] == ["1*y", "1*x"]
    R6 = ring6()
    af_cd = R6.from_text("1*a*f - 1*c*d")
    g = groebner(IdealBasis(R6, [af_cd]), None)
    assert len(g.gb) == 1 and g.gb_bound is None
    assert R6.scale(g.gb[0], -1) == af_cd or g.gb[0] == af_cd


def test_groebner_determinism_five_runs():
    texts = set()
    for _ in range(5):
        R = PolyRing(("m11", "m12", "m21", "n11", "n12", "n21"), 0)
        M = [[R.var("m11"), R.var("m12")], [R.var("m21"), R.scale(R.var("m11"), -1)]]
        N = [[R.var("n11"), R.var("n12")], [R.var("n21"), R.scale(R.var("n11"), -1)]]

        def mul(A, B):
            return [[R.add(R.mul(A[i][0], B[0][j]), R.mul(A[i][1], B[1][j]))
                     for j in range(2)] for i in range(2)]

        MN, NM = mul(M, N), mul(N, M)
        gens = [R.sub(R.mul(M[0][0], M[1][1]), R.mul(M[0][1], M[1][0])),
                R.sub(R.mul(N[0][0], N[1][1]), R.mul(N[0][1], N[1][0])),
                R.add(MN[0][0], MN[1][1])]
        gens += [R.sub(MN[i][j], NM[i][j]) for i in range(2) for j in range(2)]
        g = groebner(IdealBasis(R, gens), None)
        texts.add(tuple(R.to_text(p) for p in g.gb))
    assert len(texts) == 1


def test_normal_form_properties():
    R6 = ring6()
    gens = [R6.from_text("1*a*f - 1*c*d"), R6.from_text("1*a*c"), R6.from_text("1*d*f")]
    g = groebner(IdealBasis(R6, gens), None)
    for p in gens:
        assert normal_form(p, g) == {}
    rng = random.Random(4)
    names = R6.names
    for _ in range(20):
        p = {}
        for _ in range(4):
            mono = [0] * 6
            for _ in range(rng.randrange(4)):
                mono[rng.randrange(6)] += 1
            p = R6.add(p, R6.monomial(mono, rng.randrange(-3, 4)))
        q = R6.from_text("1*b^2 - 2*e")
        r_p, r_q = normal_form(p, g), normal_form(q, g)
        # idempotent and linear
        assert normal_form(r_p, g) == r_p
        assert normal_form(R6.add(p, q), g) == R6.add(r_p, r_q)
    assert normal_form(R6.var("b"), g) == R6.var("b")


def test_hilbert_function_examples():
    R6 = ring6()
    g0 = groebner(IdealBasis(R6, []), 3)
    assert hilbert_function(g0, 3).dims == (1, 6, 21, 56)
    g1 = groebner(IdealBasis(R6, [R6.from_text("1*a*f - 1*c*d")]), 3)
    assert hilbert_function(g1, 3).dims == (1, 6, 20, 50)


def test_hilbert_function_rank_oracle():
    # independent oracle: dim I_k as the rank of the monomial-multiple matrix
    R = PolyRing(("x", "y", "z"), 0)
    gens = [R.from_text("1*x*y - 1*z^2"), R.from_text("1*x^2 + 1*y*z")]
    g = groebner(IdealBasis(R, gens), 5)
    hf = hilbert_function(g, 5)
    for k in range(6):
        monos_k = _monomials(3, k)
        rows = []
        for gen in gens:
            d = R.degree(gen)
            if d > k:
                continue
            for m in _monomials(3, k - d):
                prod = R.mul_term(gen, m, Fraction(1))
                rows.append([prod.get(mono, Fraction(0)) for mono in monos_k])
        rank = _rank_q(rows)
        assert hf[k] == len(monos_k) - rank


def _monomials(n, k):
    out = []
    for combo in itertools.combinations_with_replacement(range(n), k):
        mono = [0] * n
        for i in combo:
            mono[i] += 1
        out.append(tuple(mono))
    return out


def _rank_q(rows):
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                k = rows[i][c]
                rows[i] = [x - k * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def test_macaulay_leading_term_agreement():
    # the Hilbert function of the ideal agrees with that of its leading-term
    # (monomial) ideal, recomputed through a fresh Groebner run on the lms
    R = PolyRing(("x", "y", "z", "w"), 5)
    gens = [R.from_text("1*x*y - 1*z*w"), R.from_text("1*y^2*z - 1*x*w^2"),
            R.from_text("1*x^3 - 1*w^3")]
    g = groebner(IdealBasis(R, gens), 6)
    lts = [{R.lm(p): R.domain.one} for p in g.gb]
    g_lt = groebner(IdealBasis(R, lts), 6)
    assert hilbert_function(g, 6).dims == hilbert_function(g_lt, 6).dims


def test_min_gen_degrees():
    R6 = ring6()
    gens = [R6.from_text("1*a*f - 1*c*d"), R6.from_text("1*a^2*f - 1*a*c*d"),
            R6.from_text("1*b^3")]
    g = groebner(IdealBasis(R6, gens), 4)
    # the second generator is a multiple of the first
    assert min_gen_degrees(g, 4).dims == (0, 0, 1, 1, 0)


def test_krull_dim_examples():
    R6 = ring6()
    af_cd = R6.from_text("1*a*f - 1*c*d")
    assert krull_dim(groebner(IdealBasis(R6, [af_cd]), None)) == 5
    g = groebner(IdealBasis(R6, [af_cd, R6.from_text("1*a*c"), R6.from_text("1*d*f")]), None)
    assert krull_dim(g) == 4
    assert krull_dim(groebner(IdealBasis(R6, []), None)) == 6
    with pytest.raises(TruncationError):
        krull_dim(groebner(IdealBasis(R6, [af_cd]), 1))


def test_truncation_errors():
    R6 = ring6()
    g = groebner(IdealBasis(R6, [R6.from_text("1*a*f - 1*c*d")]), 3)
    with pytest.raises(TruncationError):
        normal_form(R6.pow(R6.var("a"), 4), g)
    with pytest.raises(TruncationError):
        hilbert_function(g, 4)
    # minimal generators are read off the run that built the basis, never
    # computed on the side
    with pytest.raises(TruncationError):
        min_gen_degrees(g, 4)
    with pytest.raises(TruncationError):
        min_gen_degrees(IdealBasis(R6, g.gens), 2)
    inhom = IdealBasis(R6, [R6.from_text("1*a^2 - 1*b")])
    with pytest.raises(TruncationError):
        groebner(inhom, 3)


def test_groebner_rejects_inhomogeneous_input():
    R = PolyRing(("q", "r", "x"), 0)
    for gens in (["1*q*r - 1"], ["1*x^2 - 1*q*r", "1*x - 1*q^2"]):
        ideal = IdealBasis(R, [R.from_text(g) for g in gens])
        for bound in (None, 3):
            with pytest.raises(TruncationError, match="requires homogeneous generators"):
                groebner(ideal, bound)


@st.composite
def _laurent_inputs(draw):
    """A field, variable names with q and r at drawn places among one or two
    others, and a polynomial of degree <= 6 in them."""
    char = draw(st.sampled_from([0, 5]))
    names = draw(st.permutations(["q", "r", "x", "y"][:draw(st.integers(3, 4))]))
    n = len(names)
    monos = [m for d in range(7) for m in _monomials(n, d)]
    picked = draw(st.lists(st.sampled_from(monos), min_size=0, max_size=8, unique=True))
    coeffs = [Fraction(a, b) for a in (-3, -1, 1, 2) for b in ((1,) if char else (1, 2, 3))]
    return char, tuple(names), {m: draw(st.sampled_from(coeffs)) for m in picked}


@settings(max_examples=80, deadline=None)
@given(_laurent_inputs())
def test_unit_basis_remainders_match_sympy(data):
    sympy = pytest.importorskip("sympy")
    char, names, terms = data
    R = PolyRing(names, char)
    p = {m: R.domain.of(c) for m, c in terms.items() if R.domain.of(c) != R.domain.zero}
    got = normal_form(p, polyalg.unit_basis(R))
    syms = sympy.symbols(names)
    q, r = syms[names.index("q")], syms[names.index("r")]
    expr = sum(sympy.Rational(c.numerator, c.denominator) *
               sympy.prod(s ** e for s, e in zip(syms, m)) for m, c in terms.items())
    opts = {"modulus": char} if char else {}
    _, rem = sympy.reduced(expr, [q * r - 1], *syms, order="grevlex", **opts)
    want = {}
    for m, c in sympy.Poly(rem, *syms, **opts).terms():
        c = R.domain.of(int(c) if char else Fraction(int(c.p), int(c.q)))
        if c != R.domain.zero:
            want[m] = c
    assert got == want


def _sparse(row):
    """The sparse row {column: nonzero entry} of a dense integer row."""
    return {j: x for j, x in enumerate(row) if x}


def _dense(rows, cols):
    return [[r.get(j, 0) for j in range(cols)] for r in rows]


def test_snf_examples():
    assert snf([{0: 1}, {1: 1}, {2: 1}]) == [1, 1, 1]
    assert snf([{0: 2}, {1: 4}]) == [2, 4]
    assert snf([{}, {}]) == []
    # snf reduces copies: its input rows are left as they were
    rows = [{0: 2, 1: 4, 2: 4}, {0: -6, 1: 6, 2: 12}, {0: 10, 1: 4, 2: 16}]
    kept = [dict(r) for r in rows]
    assert snf(rows) == [2, 2, 156] and rows == kept


def test_snf_divisibility_and_minor_gcd_oracle():
    import math

    rng = random.Random(9)
    for _ in range(40):
        rows = rng.randrange(1, 4)
        cols = rng.randrange(1, 4)
        a = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)]
        invs = snf([_sparse(r) for r in a])
        for x, y in zip(invs, invs[1:]):
            assert y % x == 0
        # product of the first k invariant factors = gcd of all k x k minors
        for k in range(1, min(rows, cols) + 1):
            gcd = 0
            for rsel in itertools.combinations(range(rows), k):
                for csel in itertools.combinations(range(cols), k):
                    gcd = math.gcd(gcd, _det_int([[a[i][j] for j in csel] for i in rsel]))
            prod = 1
            for d in invs[:k]:
                prod *= d
            if len(invs) >= k:
                assert prod == gcd
            else:
                assert gcd == 0


@st.composite
def sparse_wide_matrices(draw):
    """(columns, sparse rows): up to 8 x 16 with at most 30% nonzeros in each
    row, entries in -3..3, zero and duplicate rows allowed: the shape of the
    degree-3 span rows."""
    n = draw(st.integers(1, 16))
    row = st.dictionaries(st.integers(0, n - 1), st.sampled_from((-3, -2, -1, 1, 2, 3)),
                          max_size=3 * n // 10)
    distinct = draw(st.lists(row, min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=8))
    return n, [dict(distinct[i]) for i in picks]


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.integers(1, 5).flatmap(lambda cols: st.lists(
        st.lists(st.integers(-9, 9), min_size=cols, max_size=cols), min_size=1, max_size=5)
        .map(lambda rows: (cols, [_sparse(r) for r in rows]))),
    sparse_wide_matrices()))
def test_snf_matches_sympy(shape):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    cols, rows = shape
    want = smith_normal_form(sympy.Matrix(_dense(rows, cols)), domain=sympy.ZZ)
    diagonal = [abs(int(want[i, i])) for i in range(min(want.shape))]
    assert snf(rows) == [d for d in diagonal if d]


def test_snf_keeps_its_entries_small_on_a_dense_matrix():
    # an elimination that swaps remainders in without restarting from the
    # least nonzero entry grows the entries of this matrix to millions of bits
    rows = [[-6, 0, -9, -9, 0, -3, 0, 0, 5], [0, 2, -2, 0, 0, 0, 8, 0, 0],
            [1, 0, 0, 4, -3, 9, 0, 7, -8], [3, -4, 2, 7, -4, 3, -9, 0, 9],
            [-4, -2, 0, 0, 8, 7, 9, -1, -9], [7, 0, 8, -8, 2, -3, 0, 2, -9],
            [1, -9, 0, 8, -7, 0, 0, 0, -7], [-9, -1, -6, 0, 0, -4, -4, 0, 1]]
    assert snf([_sparse(r) for r in rows]) == [1] * 7 + [2]


def _det_int(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    det = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        det += (-1) ** j * m[0][j] * _det_int(minor)
    return det


def test_hnf_and_quotient_invariants():
    rows = [{0: 2, 1: 4, 2: 4}, {0: -6, 1: 6, 2: 12}, {0: 10, 1: 4, 2: 16}]
    kept = [dict(r) for r in rows]
    basis = hnf_rowspace(rows)
    assert rows == kept
    # echelon with strictly increasing pivots, each positive, spanning the
    # same lattice: every row has integer coordinates, and the invariants agree
    leads = [min(r) for r in basis]
    assert leads == sorted(set(leads)) and all(r[j] > 0 for r, j in zip(basis, leads))
    assert all(polyalg._int_coords(r, basis) is not None for r in rows)
    assert snf(basis) == snf(rows) == [2, 2, 156]
    assert polyalg._int_coords({0: 1}, basis) is None
    free, torsion = quotient_invariant_factors([{0: 1}, {1: 1}], [{0: 2}])
    assert (free, torsion) == (1, [2])
    free, torsion = quotient_invariant_factors([{0: 1}], [])
    assert (free, torsion) == (1, [])
    # empty and all-zero lattices take the general path
    assert quotient_invariant_factors([], []) == (0, [])
    assert quotient_invariant_factors([{}], [{}]) == (0, [])
    assert quotient_invariant_factors([{0: 2, 1: 4}], [{}]) == (1, [])


def test_text_round_trip():
    R6 = ring6()
    p = R6.from_text("2*a^2*f - 3*c*d + 1")
    assert R6.from_text(R6.to_text(p)) == p
    assert R6.to_text(R6.zero()) == "0"
    q = R6.from_text("1/2*a - 1*b")
    assert q[(1, 0, 0, 0, 0, 0)] == Fraction(1, 2)
    with pytest.raises(ValueError):
        R6.from_text("1*zz")


def test_int_matrix_text_round_trip():
    rows = [[1, -2, 3], [0, 5, -6], [0, 0, 0]]
    text = "# a comment\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n\n"
    assert int_rows(text) == [{0: 1, 1: -2, 2: 3}, {1: 5, 2: -6}, {}]
    with pytest.raises(ValueError, match="ragged"):
        int_rows("1 2\n3\n")
    with pytest.raises(ValueError):
        int_rows("1 x\n")


def test_homogenize_by_elimination():
    R = PolyRing(("x", "y"), 0)
    gens = [R.var("x"), R.add(R.scale(R.var("x"), 2), R.from_text("1*y^2"))]
    out = homogenize_by_elimination(R, gens)
    assert all(R.is_homogeneous(p) for p in out)
    assert sorted(R.degree(p) for p in out) == [1, 2]
    with pytest.raises(ValueError):
        homogenize_by_elimination(R, [R.from_text("1*x^2 - 1*y")])


def test_homogenize_chained_generators():
    # x*y + x needs the stored x, and x^3 + x*y needs the top of x*y + x,
    # although both are listed before what they need
    R = PolyRing(("x", "y"), 0)
    gens = [R.from_text("x^3 + x*y"), R.from_text("x*y + x"), R.var("x")]
    assert [R.to_text(p) for p in homogenize_by_elimination(R, gens)] == \
        ["1*x", "1*x*y", "1*x^3"]
    # y^2 lies in no stored piece of degree 2
    gens[0] = R.from_text("x^3 + y^2")
    with pytest.raises(ValueError):
        homogenize_by_elimination(R, gens)


# sha256 of the lines of ring.to_text(p), p in the homogenized specialized
# generators of gl_specialization_check
GL_HOMOGENIZED_SHA256 = {
    ("gl-n2", 5): "cb46d23d7251122d8e565e56c10fac98a402a8b8398da6514a490aba32b8d1af",
    ("gl-n2", 7): "6123574352cb5a6d8d869795e682ce097efc470de7734a4bf3ec053a3516705b",
    ("gl-n3", 5): "1394a7730ec5c06c53dfd5287ab5062f747032ca8af95d0d3816df50973592a7",
    ("gl-n3", 7): "78466ac5f9488511ffb1e4b441b98e11c31b8f88b2acaa8d8fe283c217f96ef9",
}


@pytest.mark.parametrize("tag, char", sorted(GL_HOMOGENIZED_SHA256))
def test_gl_specialization_homogenizes_to_pinned_lists(tag, char, monkeypatch):
    outputs = []

    def recorder(ring, gens):
        out = homogenize_by_elimination(ring, gens)
        outputs.append("\n".join(ring.to_text(p) for p in out))
        return out

    monkeypatch.setattr(cases, "homogenize_by_elimination", recorder)
    assert cases.gl_specialization_check(tag, char)[0]
    assert len(outputs) == 1
    digest = hashlib.sha256(outputs[0].encode()).hexdigest()
    assert digest == GL_HOMOGENIZED_SHA256[tag, char]


@st.composite
def _arith_inputs(draw):
    """(char, a, b, c): a, b over Q or GF(7) in x, y, b often a multiple of
    a so that sums cancel, and a scalar c that is sometimes 0 in the field."""
    char = draw(st.sampled_from([0, 7]))
    R = PolyRing(("x", "y"), char)
    monos = [m for d in range(4) for m in _monomials(2, d)]
    coeffs = [1, -1, 2, 3, 7, Fraction(1, 2), Fraction(-5, 3)]

    def poly():
        terms = draw(st.dictionaries(st.sampled_from(monos), st.sampled_from(coeffs),
                                     max_size=6))
        return {m: R.domain.of(c) for m, c in terms.items() if R.domain.of(c) != R.domain.zero}

    a = poly()
    b = draw(st.one_of(st.builds(poly), st.sampled_from([-1, 1, 2, 6]).map(
        lambda k: R.scale(a, k))))
    return char, a, b, draw(st.sampled_from([0, 1, -1, 2, 7, Fraction(1, 2)]))


@settings(max_examples=150, deadline=None)
@given(_arith_inputs())
def test_polyring_arithmetic_matches_sympy(data):
    sympy = pytest.importorskip("sympy")
    char, a, b, c = data
    R = PolyRing(("x", "y"), char)
    syms = sympy.symbols(R.names)
    opts = {"modulus": char} if char else {"domain": "QQ"}

    def rational(v):
        v = Fraction(v)
        return sympy.Rational(v.numerator, v.denominator)

    def to_sympy(p):
        return sympy.Poly.from_dict({m: rational(v) for m, v in p.items()}, *syms, **opts)

    def from_sympy(P):
        return {m: R.domain.of(int(v) if char else Fraction(int(v.p), int(v.q)))
                for m, v in P.terms() if v != 0}

    A, B = to_sympy(a), to_sympy(b)
    results = {"add": (R.add(a, b), A + B), "sub": (R.sub(a, b), A - B),
               "mul": (R.mul(a, b), A * B),
               "scale": (R.scale(a, c), A * rational(R.domain.of(c)))}
    for name, (got, want) in results.items():
        assert got == from_sympy(want), name
    cancelled = [R.add(a, R.scale(a, -1)), R.sub(a, a), R.scale(a, 0)]
    if char:
        cancelled.append(R.scale(a, char))
    assert all(p == {} for p in cancelled)
    for p in [got for got, _ in results.values()] + cancelled:
        assert all(v != R.domain.zero for v in p.values())


def test_graded_dims_validation():
    with pytest.raises(ValueError):
        GradedDims((1, -1))
    assert str(GradedDims((1, 2, 3))) == "[1, 2, 3]"


# -- oracles for the Hilbert series and for groebner ------------------------------


def _hf_by_enumeration(basis, bound):
    """dim (S/I)_k for k <= bound by counting the monomials of degree k that
    no leading monomial divides."""
    lms = [basis.ring.lm(g) for g in basis.gb]
    return tuple(sum(not any(all(a <= b for a, b in zip(lm, m)) for lm in lms)
                     for m in _monomials(basis.ring.n, k))
                 for k in range(bound + 1))


@st.composite
def monomial_ideals(draw):
    n = draw(st.integers(1, 6))
    # each generator as the list of its 1 to 4 variables, with repetition
    gens = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=4), max_size=6))
    return n, [tuple(g.count(i) for i in range(n)) for g in gens], draw(st.integers(0, 6))


@settings(max_examples=150, deadline=None)
@given(monomial_ideals())
def test_hilbert_series_matches_enumeration_on_monomial_ideals(data):
    n, gens, bound = data
    R = PolyRing([f"x{i}" for i in range(n)], 5)
    basis = groebner(IdealBasis(R, [R.monomial(e) for e in gens]), bound)
    assert hilbert_function(basis, bound).dims == _hf_by_enumeration(basis, bound)


@pytest.mark.parametrize("tag", ["n3-z", "n3-x"])
def test_hilbert_series_matches_enumeration_on_case_bases(tag):
    basis = groebner(make_ideal(IdealCase(tag, 5)), 4)
    assert hilbert_function(basis, 4).dims == _hf_by_enumeration(basis, 4)


def _dim_by_hitting_set(basis):
    """dim S/I of a complete basis from the supports of its leading
    monomials: S/LT(I) has the dimension of S/I, and a coordinate subspace
    lies in V(LT(I)) iff every support meets the variables outside it, so
    dim = n - (the least number of variables meeting every support).  -1
    when a leading monomial is 1.  Exponential, and independent of the
    Hilbert series."""
    ring = basis.ring
    supports = [frozenset(i for i, e in enumerate(ring.lm(g)) if e) for g in basis.gb]
    if frozenset() in supports:
        return -1

    def min_cover(idx, chosen, best):
        if len(chosen) >= best:
            return best
        while idx < len(supports) and supports[idx] & chosen:
            idx += 1
        if idx == len(supports):
            return len(chosen)
        for v in sorted(supports[idx]):
            best = min(best, min_cover(idx + 1, chosen | {v}, best))
        return best

    return ring.n - min_cover(0, frozenset(), ring.n + 1)


def test_krull_dim_matches_the_hitting_set_oracle():
    """The four inputs of dims_campaign, the zero ideal and the unit ideal."""
    R6 = ring6(7)
    af_cd = R6.sub(R6.mul(R6.var("a"), R6.var("f")), R6.mul(R6.var("c"), R6.var("d")))
    nonregular = [af_cd, R6.mul(R6.var("a"), R6.var("c")), R6.mul(R6.var("d"), R6.var("f"))]
    data = build_case(IdealCase("n3-x", 7))
    ring, mats = data.ring, data.mats
    squares = [x for A in (mats["M"], mats["N"]) for row in mat_mul(ring, A, A) for x in row]
    bases = [groebner(IdealBasis(R6, [af_cd]), None),
             groebner(IdealBasis(R6, nonregular), None),
             groebner(make_ideal(IdealCase("n3-x", 7)), None),
             groebner(IdealBasis(ring, list(data.gens) + squares), None),
             groebner(IdealBasis(R6, []), None),
             groebner(IdealBasis(R6, [R6.const(3)]), None)]
    assert [krull_dim(b) for b in bases] == [5, 4, 8, 6, 6, -1]
    assert [_dim_by_hitting_set(b) for b in bases] == [5, 4, 8, 6, 6, -1]


def _reduced_basis_set(polys, char):
    """A basis as a set of term sets, each scaled so that its lexicographically
    largest exponent tuple has coefficient 1; coefficients as Fractions
    (char 0) or residues mod char."""
    out = set()
    for terms in polys:
        lead = max(terms)[1]
        if char:
            inv = pow(int(lead) % char, -1, char)
            out.add(frozenset((m, int(c) * inv % char) for m, c in terms))
        else:
            out.add(frozenset((m, Fraction(c) / Fraction(lead)) for m, c in terms))
    return out


@st.composite
def ideals(draw, coefficients=(-3, -2, -1, 1, 2, 3)):
    """Up to three homogeneous generators in 2 to 4 variables, each with 1
    to 4 terms of one degree <= 3 and coefficients drawn from
    `coefficients`."""
    n = draw(st.integers(2, 4))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        monos = _monomials(n, draw(st.integers(1, 3)))
        picked = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
        gens.append({m: draw(st.sampled_from(coefficients)) for m in picked})
    return n, gens


@settings(max_examples=60, deadline=None)
@given(ideals(), st.sampled_from([0, 5, 7]))
def test_groebner_matches_sympy(data, char):
    sympy = pytest.importorskip("sympy")
    n, gens = data
    R = PolyRing([f"x{i}" for i in range(n)], char)
    got = groebner(IdealBasis(R, [{m: R.domain.of(c) for m, c in g.items()} for g in gens]), None)
    syms = sympy.symbols(R.names)
    exprs = [sum(c * sympy.prod(s ** e for s, e in zip(syms, m)) for m, c in g.items())
             for g in gens]
    opts = {"modulus": char} if char else {}
    want = sympy.groebner(exprs, *syms, order="grevlex", **opts)
    want_terms = [[(m, Fraction(int(c.p), int(c.q))) for m, c in sympy.Poly(g, *syms).terms()]
                  for g in want.exprs]
    assert _reduced_basis_set([list(g.items()) for g in got.gb], char) == \
        _reduced_basis_set(want_terms, char)


@settings(max_examples=60, deadline=None)
@given(ideals(), st.sampled_from([0, 5, 7]))
def test_krull_dim_matches_the_hitting_set_oracle_on_random_ideals(data, char):
    n, gens = data
    R = PolyRing([f"x{i}" for i in range(n)], char)
    basis = groebner(IdealBasis(R, [{m: R.domain.of(c) for m, c in g.items()} for g in gens]),
                     None)
    assert krull_dim(basis) == _dim_by_hitting_set(basis)


def test_quotient_rejects_sub_outside_the_lattice(monkeypatch, run_python):
    # an echelon basis that misses a row of sub must be caught by an error,
    # not by an assert that python -O strips
    def faulty(rows):
        return [{0: 2}, {1: 1}]

    monkeypatch.setattr(polyalg, "hnf_rowspace", faulty)
    with pytest.raises(InvariantError, match="sub not inside the big lattice"):
        quotient_invariant_factors([{0: 1}, {1: 1}], [{0: 1}])
    script = ("from steinberg import polyalg\n"
              "polyalg.hnf_rowspace = lambda rows: [{0: 2}, {1: 1}]\n"
              "try:\n"
              "    polyalg.quotient_invariant_factors([{0: 1}, {1: 1}], [{0: 1}])\n"
              "except polyalg.InvariantError as e:\n"
              "    print(type(e).__name__, e)\n")
    done = run_python("-O", "-c", script)
    assert done.stdout == "InvariantError sub not inside the big lattice\n", done.stderr


# -- normal forms over Q against sympy.reduced ----------------------------------------

RATIONALS = [Fraction(a, b) for a in (-3, -1, 1, 2) for b in (1, 2, 3, 5)]


def _sympy_remainder(sympy, ring, p, basis):
    """The remainder of p on division by the elements of basis.gb, by sympy."""
    syms = sympy.symbols(ring.names)

    def expr(q):
        return sum(sympy.Rational(c.numerator, c.denominator) *
                   sympy.prod(s ** e for s, e in zip(syms, m)) for m, c in q.items())

    _, rem = sympy.reduced(expr(p), [expr(g) for g in basis.gb], *syms, order="grevlex")
    return {m: Fraction(int(c.p), int(c.q))
            for m, c in sympy.Poly(rem, *syms, domain="QQ").terms() if c}


def _check_normal_form_over_q(sympy, ring, p, basis):
    got = normal_form(p, basis)
    assert all(type(c) is Fraction for c in got.values())
    assert got == _sympy_remainder(sympy, ring, p, basis)


@st.composite
def _rational_polys(draw, ring, gens, top):
    """A polynomial of degree <= top over Q: terms with denominators 2, 3, 5,
    plus multiples of gens by monomials, so that reduction has work to do."""
    p = {}
    for m in draw(st.lists(st.sampled_from([m for k in range(top + 1)
                                            for m in _monomials(ring.n, k)]), max_size=4)):
        p = ring.add(p, ring.monomial(m, draw(st.sampled_from(RATIONALS))))
    for _ in range(draw(st.integers(0, 3))):
        g = draw(st.sampled_from(gens))
        if ring.degree(g) > top:
            continue
        shift = draw(st.sampled_from(_monomials(ring.n, top - ring.degree(g))))
        p = ring.add(p, ring.mul_term(g, shift, draw(st.sampled_from(RATIONALS))))
    return p


@st.composite
def _rational_ideals_and_polys(draw):
    n = draw(st.integers(2, 4))
    ring = PolyRing([f"x{i}" for i in range(n)], 0)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        picked = draw(st.lists(st.sampled_from(_monomials(n, draw(st.integers(1, 3)))),
                               min_size=1, max_size=4, unique=True))
        gens.append({m: draw(st.sampled_from(RATIONALS)) for m in picked})
    return ring, gens, draw(_rational_polys(ring, gens, 4))


@settings(max_examples=40, deadline=None)
@given(_rational_ideals_and_polys())
def test_normal_form_over_q_matches_sympy(data):
    sympy = pytest.importorskip("sympy")
    ring, gens, p = data
    _check_normal_form_over_q(sympy, ring, p, groebner(IdealBasis(ring, gens), None))


@functools.lru_cache(maxsize=None)
def _n3z_q_bound3():
    ideal = make_ideal(IdealCase("n3-z", 0))
    basis = groebner(ideal, 3)
    # the integer forms of some elements have leading coefficient 2
    assert {g[lm] for lm, _, g in basis.gb_lead} == {1, 2}
    return ideal, basis


@st.composite
def _n3z_polys(draw):
    ideal, basis = _n3z_q_bound3()
    ring, top = ideal.ring, draw(st.integers(2, 3))
    p = draw(_rational_polys(ring, ideal.gens, top))
    # multiples of leading monomials: each is reduced by a basis element,
    # among them those whose integer form has leading coefficient 2
    lms = [lm for lm, _, _ in basis.gb_lead if sum(lm) <= top]
    for lm in draw(st.lists(st.sampled_from(lms), min_size=1, max_size=3)):
        shift = draw(st.sampled_from(_monomials(ring.n, top - sum(lm))))
        m = tuple(a + b for a, b in zip(lm, shift))
        p = ring.add(p, ring.monomial(m, draw(st.sampled_from(RATIONALS))))
    return p


@settings(max_examples=15, deadline=None)
@given(_n3z_polys())
def test_normal_form_over_q_matches_sympy_on_the_n3z_basis(p):
    sympy = pytest.importorskip("sympy")
    ideal, basis = _n3z_q_bound3()
    _check_normal_form_over_q(sympy, ideal.ring, p, basis)


# -- the packed monomial kernel against its exponent-tuple counterparts ---------------

CAP = polyalg._CAP


@st.composite
def _exponents(draw, n, top=CAP):
    """An exponent vector in n variables of total degree at most top."""
    total = draw(st.integers(0, top))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1)))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))


@st.composite
def _monomial_pairs(draw):
    """(n, a, b) in n variables; about half the time b is a multiple of a."""
    n = draw(st.integers(1, 24))
    a = draw(_exponents(n))
    if draw(st.booleans()):
        c = draw(_exponents(n, CAP - sum(a)))
        return n, a, tuple(x + y for x, y in zip(a, c))
    return n, a, draw(_exponents(n))


def _sign(x, y):
    return (x > y) - (x < y)


def _pair_of(ring, bound, first, second):
    """The S-pair heap of a worker over ring, truncated at bound, after the
    monomials first and then second (packed) are added."""
    worker = polyalg._GBWorker(ring, bound)
    worker.add_element({first: 1})
    worker.add_element({second: 1})
    return worker.pairs


@settings(max_examples=300, deadline=None)
@given(_monomial_pairs())
def test_packed_monomials_match_exponent_tuples(data):
    n, a, b = data
    pk = polyalg._Packing(n)
    pa, pb = pk.pack(a), pk.pack(b)
    assert (pk.unpack(pa), pk.unpack(pb)) == (a, b)
    # x ^ exps orders as degrevlex; x orders as S-pairs are treated
    assert _sign(pa ^ pk.exps, pb ^ pk.exps) == _sign(polyalg._drl_key(a), polyalg._drl_key(b))
    assert _sign(pa, pb) == _sign((sum(a), a[::-1]), (sum(b), b[::-1]))
    # the divisibility test that reduce and chain_skip make inline
    assert (not (pb - pa) & pk.guards) == polyalg._divides(a, b)
    assert (not (pa - pb) & pk.guards) == polyalg._divides(b, a)
    lcm = tuple(map(max, a, b))
    ring = PolyRing([f"x{i}" for i in range(n)], 5)
    for first, second in ((pa, pb), (pb, pa)):
        if sum(lcm) > CAP:
            with pytest.raises(InvariantError):
                _pair_of(ring, None, first, second)
            continue
        # the S-pair add_element builds, with the lcm it computes inline
        assert _pair_of(ring, None, first, second) == [(pk.pack(lcm), 0, 1)]
        # one degree lower the pair is left unbuilt
        assert _pair_of(ring, sum(lcm) - 1, first, second) == []
    product = tuple(x + y for x, y in zip(a, b))
    if sum(product) <= CAP:
        assert pa + pb == pk.pack(product)


def test_monomials_outside_the_packed_range_raise(run_python):
    pk = polyalg._Packing(3)
    for m in ((CAP + 1, 0, 0), (CAP, 1, 0), (0, -1, 0)):
        with pytest.raises(InvariantError, match="outside the packed range"):
            pk.pack(m)
    ring = PolyRing(("x", "y", "z"), 5)
    with pytest.raises(InvariantError, match="outside the packed range"):
        _pair_of(ring, None, pk.pack((CAP, 0, 0)), pk.pack((0, 1, 0)))
    ring = PolyRing(("x", "y"), 5)
    with pytest.raises(InvariantError, match="outside the packed range"):
        groebner(IdealBasis(ring, [ring.monomial((CAP + 1, 0))]), None)
    script = ("from steinberg import polyalg\n"
              "pk = polyalg._Packing(3)\n"
              "w = polyalg._GBWorker(polyalg.PolyRing(('x', 'y', 'z'), 5))\n"
              f"w.add_element({{pk.pack(({CAP}, 0, 0)): 1}})\n"
              f"for call in (lambda: pk.pack(({CAP + 1}, 0, 0)),\n"
              f"             lambda: w.add_element({{pk.pack((0, 1, 0)): 1}})):\n"
              "    try:\n"
              "        call()\n"
              "    except polyalg.InvariantError:\n"
              "        print('raised')\n")
    done = run_python("-O", "-c", script)
    assert done.stdout == "raised\nraised\n", done.stderr


# -- certificates read back through the reference reducer -----------------------------

N3X_NUMERATOR = [1, -2, -10, 20, 83, -302, 204, 600, -1545, 1634, -874, 148, 85, -50, 8]


def _s_polynomial(ring, gi, lmi, gj, lmj, l):
    shift = [tuple(x - y for x, y in zip(l, lm)) for lm in (lmi, lmj)]
    return ring.sub(ring.mul_term(gi, shift[0], 1), ring.mul_term(gj, shift[1], 1))


def _assert_buchberger_criterion(basis, bound):
    """Every generator and every S-polynomial of non-coprime leading
    monomials (of lcm degree <= bound) has normal form 0."""
    ring = basis.ring
    for g in basis.gens:
        assert normal_form(g, basis) == {}
    lead = basis.gb_lead
    pairs = 0
    for i, j in itertools.combinations(range(len(lead)), 2):
        (lmi, maski, _), (lmj, maskj, _) = lead[i], lead[j]
        l = tuple(map(max, lmi, lmj))
        if not maski & maskj or (bound is not None and sum(l) > bound):
            continue
        pairs += 1
        s = _s_polynomial(ring, basis.gb[i], lmi, basis.gb[j], lmj, l)
        assert normal_form(s, basis) == {}, (lmi, lmj)
    return pairs


@pytest.mark.parametrize("char", [0, 5, 7])
def test_complete_n3x_basis_is_a_certified_groebner_basis(char):
    basis = groebner(make_ideal(IdealCase("n3-x", char)), None)
    assert basis.gb_bound is None and len(basis.gb) == 53
    assert krull_dim(basis) == 8
    staircase = list(leading_staircase(basis, None))
    assert polyalg._masked_numerator(staircase, 20) == N3X_NUMERATOR + [0] * 6
    assert _assert_buchberger_criterion(basis, None) > 0


def test_truncated_n3z_basis_passes_the_criterion_within_its_bound():
    basis = groebner(make_ideal(IdealCase("n3-z", 5)), 4)
    assert basis.gb_bound == 4 and len(basis.gb) == 80
    assert _assert_buchberger_criterion(basis, 4) > 0


def test_groebner_stats_count_pairs_criteria_and_degrees():
    R6 = ring6()
    af_cd = R6.from_text("1*a*f - 1*c*d")
    hypersurface = groebner(IdealBasis(R6, [af_cd]), None).stats
    assert hypersurface == polyalg.GroebnerStats(0, 0, 0, 0)
    nonregular = groebner(IdealBasis(R6, [af_cd, R6.from_text("1*a*c"),
                                          R6.from_text("1*d*f")]), None).stats
    assert nonregular == polyalg.GroebnerStats(pairs=10, coprime_skips=3, chain_skips=0,
                                               zero_reductions=5)
    n3z = groebner(make_ideal(IdealCase("n3-z", 5)), 5)
    assert n3z.stats == polyalg.GroebnerStats(pairs=994, coprime_skips=65, chain_skips=490,
                                              zero_reductions=366)
    assert Counter(sum(lm) for lm, _, _ in n3z.gb_lead) == {2: 3, 3: 38, 4: 39, 5: 32}
    # the counters are no part of the basis's value or its repr
    again = IdealBasis(n3z.ring, n3z.gens, gb=n3z.gb, gb_bound=5, mingens=n3z.mingens)
    assert again == n3z and "stats" not in repr(n3z)


def test_divisor_memo_is_dropped_when_a_lower_degree_reducer_enters():
    """reduce memoizes, per degree, each monomial's first divisor among the
    lms of lower degree; entering a reducer of lower degree must drop that
    memo.  Each remainder is read against the reference reducer, which keeps
    no memo."""
    ring = PolyRing(("x", "y", "z", "w"), 7)
    worker = polyalg._GBWorker(ring)
    unpack = worker.pk.unpack
    entered = []  # gb_lead triples in index order

    def enter(text):
        p = ring.from_text(text)
        lm = ring.lm(p)
        worker.add_element(worker.pack(p))
        entered.append((lm, polyalg._mask(lm), polyalg._basis_form(7, p, lm)))

    def remainder(text):
        p = ring.from_text(text)
        got = {unpack(m): c for m, c in worker.reduce(worker.pack(p)).items()}
        want, scale = polyalg._ReferenceReducer(ring, entered).reduce(dict(p))
        assert got == want and scale == 1
        return ring.to_text(got)

    cubic = "1*x^3 + 1*y^3 + 1*x*y*z"
    enter("1*x*y*z - 1*w^3")
    assert remainder(cubic) == "1*x^3 + 1*y^3 + 1*w^3"  # x^3 and y^3: no divisor of degree < 3
    enter("1*x^2 - 1*z*w")
    assert remainder(cubic) == "1*y^3 + 1*x*z*w + 1*w^3"


def _general_interreduction(worker):
    """The reduced basis of a worker's elements by the general rule, on
    exponent tuples: drop each element whose lm a smaller lm divides, then
    tail-reduce the others in increasing lm order, each by a divisor search
    over the reduced forms before it."""
    pk = worker.pk
    lms = sorted((pk.unpack(x) for x in worker.lms), key=polyalg._drl_key)
    lms = [m for i, m in enumerate(lms) if not any(polyalg._divides(o, m) for o in lms[:i])]
    out = []
    for m in lms:
        h = {pk.unpack(x): c for x, c in worker.lead[pk.pack(m)].items()}
        r, _ = polyalg._ReferenceReducer(worker.ring, out).reduce(h)
        out.append((m, polyalg._mask(m), polyalg._basis_form(worker.modulus, r, m)))
    return out


def test_graded_interreduction_matches_the_general_rule(monkeypatch):
    """The run tail-reduces each degree at its end by same-degree lookups
    only; the general rule, a divisor search over every smaller lm, must
    find nothing left to reduce in the basis the worker returns."""
    reduced_basis = polyalg._reduced_basis
    sizes = []

    def both(worker):
        out = reduced_basis(worker)
        assert out == _general_interreduction(worker)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(polyalg, "_reduced_basis", both)
    groebner(make_ideal(IdealCase("n3-x", 5)), 4)
    groebner(make_ideal(IdealCase("n3-z", 0)), 4)
    assert sizes == [46, 80]


# -- runs over GF(l) guided by a basis over Q --------------------------------------------


def _mod(ring_l, polys):
    """The polynomials over Q reduced into ring_l, zeros dropped."""
    of = ring_l.domain.of
    return [{m: r for m, c in g.items() if (r := of(c))} for g in polys]


def _assert_same_basis(guided, unguided):
    assert guided == unguided  # gens, gb, gb_bound, mingens
    assert guided.gb_lead == unguided.gb_lead


@st.composite
def quadrics_with_multiples_of(draw, l):
    """Two to four quadrics in three variables, each with 2 to 4 terms and
    coefficients in -3..3, some of whose terms other than the leading one
    are multiplied by l.  Their leading coefficients stay units mod l, but
    in about half of the draws a run over Q divides out a content divisible
    by l above degree 2, as for TORSION below: the run over GF(l) then
    drops its guide and runs unguided.  A draw may append a generator that
    vanishes mod l: l*m*g for a monomial m of degree <= 1 and a drawn
    quadric g, which lies in the ideal and so reduces to zero over Q, or
    l*h for a free quadric h, whose nonzero remainder over Q carries l."""
    monos = _monomials(3, 2)

    def quadric(scale_tail):
        picked = draw(st.lists(st.sampled_from(monos), min_size=2, max_size=4, unique=True))
        lead = max(picked, key=polyalg._drl_key)
        return {m: draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
                * (l if scale_tail and m != lead and draw(st.booleans()) else 1)
                for m in picked}

    gens = [quadric(True) for _ in range(draw(st.integers(2, 4)))]
    kind = draw(st.sampled_from(("none", "ideal multiple", "free")))
    if kind == "ideal multiple":
        m = draw(st.sampled_from(_monomials(3, 0) + _monomials(3, 1)))
        g = draw(st.sampled_from(gens))
        gens.append({tuple(a + b for a, b in zip(m, mg)): l * c for mg, c in g.items()})
    elif kind == "free":
        gens.append({m: l * c for m, c in quadric(False).items()})
    return 3, gens


@settings(max_examples=120, deadline=None)
@given(st.data(), st.sampled_from([5, 7]), st.integers(2, 4))
def test_guided_basis_equals_the_unguided_one(data, l, bound):
    n, gens = data.draw(st.one_of(ideals(coefficients=(-7, -5, -3, -2, -1, 1, 2, 3, 5, 7)),
                                  quadrics_with_multiples_of(l)))
    names = [f"x{i}" for i in range(n)]
    R0, Rl = PolyRing(names, 0), PolyRing(names, l)
    q = groebner(IdealBasis(R0, [{m: Fraction(c) for m, c in g.items()} for g in gens]), bound)
    ideal = IdealBasis(Rl, _mod(Rl, q.gens))
    guided, unguided = groebner(ideal, bound, guide=q), groebner(ideal, bound)
    _assert_same_basis(guided, unguided)
    # the read-off decision: the basis is read off, with no pair treated,
    # exactly when l divides nothing the run over Q recorded; otherwise the
    # run is the unguided one
    read = q.divisors % l != 0
    assert guided.stats == (polyalg.GroebnerStats(0, 0, 0, 0) if read else unguided.stats)
    # upper semicontinuity over Z_(l): HF over GF(l) never below HF over Q
    assert all(a >= b for a, b in zip(hilbert_function(unguided, bound).dims,
                                      hilbert_function(q, bound).dims))


@pytest.fixture(scope="module")
def n3z_q5():
    return groebner(make_ideal(IdealCase("n3-z", 0)), 5)


@pytest.fixture(scope="module")
def n3z_q():
    return groebner(make_ideal(IdealCase("n3-z", 0)), None)


@pytest.mark.parametrize("l", [5, 7])
def test_guided_n3z_bases_equal_the_unguided_ones(n3z_q5, l):
    ideal = make_ideal(IdealCase("n3-z", l))
    guided, unguided = groebner(ideal, 5, guide=n3z_q5), groebner(ideal, 5)
    _assert_same_basis(guided, unguided)
    # l divides no recorded integer: the basis is read off the Q run whole,
    # and the unguided run over GF(l) retraces the Q run pair for pair
    assert guided.stats == polyalg.GroebnerStats(0, 0, 0, 0) and len(guided.gb) == 112
    assert unguided.stats == n3z_q5.stats == polyalg.GroebnerStats(
        pairs=994, coprime_skips=65, chain_skips=490, zero_reductions=366)


def test_guided_run_over_a_torsion_prime_is_the_unguided_run():
    # over Z_(5), y * x^2 - x * (x*y + 5*y^2) + 5*y*(x*y + 5*y^2) = 25*y^3: the
    # quotient has 5-torsion in degree 3, so y^3 is a leading term over Q only
    R0, R5 = PolyRing(("x", "y", "z"), 0), PolyRing(("x", "y", "z"), 5)
    gens = [R0.from_text(t) for t in ("1*x^2", "1*x*y + 5*y^2", "1*z^2")]
    q = groebner(IdealBasis(R0, gens), 4)
    ideal = IdealBasis(R5, _mod(R5, gens))
    guided, unguided = groebner(ideal, 4, guide=q), groebner(ideal, 4)
    _assert_same_basis(guided, unguided)
    assert hilbert_function(q, 4).dims != hilbert_function(unguided, 4).dims
    assert (0, 3, 0) in {lm for lm, _, _ in q.gb_lead}
    assert (0, 3, 0) not in {lm for lm, _, _ in unguided.gb_lead}
    assert guided.stats == unguided.stats


def test_guided_run_is_the_unguided_run_when_the_leading_terms_differ_mod_l():
    # flat over Z_(5) (two quadrics cutting a curve over Q and over GF(5)),
    # but x^2 leads over Q and x*y over GF(5): the leading coefficient 5
    # taints a degree-2 element, so the run drops the guide and its work is
    # the unguided run's
    R0, R5 = PolyRing(("x", "y", "z"), 0), PolyRing(("x", "y", "z"), 5)
    gens = [R0.from_text(t) for t in ("5*x^2 + 1*x*y + 1*y^2", "1*x*z + 1*y^2 + 1*z^2")]
    q = groebner(IdealBasis(R0, gens), 5)
    ideal = IdealBasis(R5, _mod(R5, gens))
    guided, unguided = groebner(ideal, 5, guide=q), groebner(ideal, 5)
    _assert_same_basis(guided, unguided)
    assert hilbert_function(q, 5).dims == hilbert_function(unguided, 5).dims
    assert {lm for lm, _, _ in q.gb_lead} != {lm for lm, _, _ in unguided.gb_lead}
    assert guided.stats == unguided.stats


def test_unsuitable_guides_raise_value_error(n3z_q5):
    f5 = make_ideal(IdealCase("n3-z", 5))
    f7_basis = groebner(make_ideal(IdealCase("n3-z", 7)), 3)
    shuffled = IdealBasis(f5.ring, f5.gens[1:] + f5.gens[:1])
    R0, R5 = PolyRing(("x", "y"), 0), PolyRing(("x", "y"), 5)
    fifth = groebner(IdealBasis(R0, [R0.from_text("1/5*x^2")]), 3)
    cases = [
        (shuffled, 5, n3z_q5, "not the guide's reduced mod 5"),
        (f5, 5, f7_basis, "basis over Q"),
        (f5, None, n3z_q5, "with the run's bound"),
        (f5, 5, groebner(make_ideal(IdealCase("n3-z", 0)), 4), "with the run's bound"),
        # a guide complete beyond the run's bound
        (make_ideal(IdealCase("n3-x", 7)), 3, groebner(make_ideal(IdealCase("n3-x", 0)), None),
         "with the run's bound"),
        (make_ideal(IdealCase("n3-x", 5)), 5, n3z_q5, "same variables"),
        (IdealBasis(R5, [R5.from_text("1*x^2")]), 3, fifth, "not 5-integral"),
    ]
    for ideal, bound, guide, message in cases:
        with pytest.raises(ValueError, match=message):
            groebner(ideal, bound, guide=guide)


# -- runs over GF(l) read off the run over Q -------------------------------------------

TORSION = ("1*x^2", "1*x*y + 5*y^2", "1*z^2")
LEADS_DIFFER = ("5*x^2 + 1*x*y + 1*y^2", "1*x*z + 1*y^2 + 1*z^2")
# over Q degree 3 first enters x*z^2 + 2*z^3, then z^3, which divides out a
# content 5; over GF(5) degree 3 has the one element x*z^2 + 2*z^3
TAINTED_REDUCER = ("1*x^2 + 2*x*y + 2*x*z", "1*x^2 + 1*z^2", "2*y*z")


def _runs_mod(l, gens, bound):
    """(guide over Q, guided run over GF(l), unguided run over GF(l)) for
    the generators over Q in x, y, z given as text."""
    R0, Rl = PolyRing(("x", "y", "z"), 0), PolyRing(("x", "y", "z"), l)
    gens = [R0.from_text(t) if isinstance(t, str) else t for t in gens]
    q = groebner(IdealBasis(R0, gens), bound)
    ideal = IdealBasis(Rl, _mod(Rl, gens))
    return q, groebner(ideal, bound, guide=q), groebner(ideal, bound)


def _cofactor(x):
    """x with every factor 2 and 3 divided out."""
    for p in (2, 3):
        while x % p == 0:
            x //= p
    return x


def test_the_q_runs_record_no_prime_above_3(n3z_q5, n3z_q):
    """Each degree is interreduced at its end, before the pairs of the next
    degree start from its forms: no run over Q of n2, n3-z or n3-x divides
    by a prime above 3, so every run over GF(l), l >= 5, of these cases is
    read off whole."""
    for q in (n3z_q5, n3z_q, groebner(make_ideal(IdealCase("n2", 0)), 6),
              groebner(make_ideal(IdealCase("n3-x", 0)), None)):
        assert q.divisors > 1 and _cofactor(q.divisors) == 1
    assert groebner(make_ideal(IdealCase("n3-z", 5)), 3).divisors is None


@pytest.mark.parametrize("char", [0, 5, 7])
def test_the_staircase_is_every_leading_pair_of_the_basis(n3z_q, char):
    """No leading monomial of a reduced basis divides another, so the
    staircase keeps every (lm, mask) pair through its bound, in the order of
    the minimal-generator filter: the case bases at their campaign bounds,
    and the complete ones through the campaign bound and whole."""
    ideal = make_ideal(IdealCase("n3-z", char))
    complete_n3z = n3z_q if char == 0 else groebner(ideal, None, guide=n3z_q)
    bases = [(case_basis(IdealCase("n2", char), 6), (6,)),
             (case_basis(IdealCase("n2", char), None), (6, None)),
             (case_basis(IdealCase("n3-z", char), 5), (5,)),
             (complete_n3z, (5, None)),
             (case_basis(IdealCase("n3-x", char), 5), (5,)),
             (case_basis(IdealCase("n3-x", char), None), (5, None))]
    clear_case_memo()
    for basis, bounds in bases:
        for bound in bounds:
            pairs = [(lm, mask) for lm, mask, _ in basis.gb_lead
                     if bound is None or sum(lm) <= bound]
            assert list(leading_staircase(basis, bound)) == polyalg._minimal_masked(pairs)


@pytest.mark.parametrize("l", [5, 7])
def test_complete_n3z_bases_are_read_off_the_complete_q_basis(n3z_q, l):
    ideal = make_ideal(IdealCase("n3-z", l))
    guided, unguided = groebner(ideal, None, guide=n3z_q), groebner(ideal, None)
    _assert_same_basis(guided, unguided)
    assert guided.gb_bound is None and len(guided.gb) == 138
    assert guided.stats == polyalg.GroebnerStats(0, 0, 0, 0) and unguided.stats.pairs == 9453


def test_a_lucky_prime_reads_the_basis_off_the_q_run():
    q = groebner(make_ideal(IdealCase("n2", 0)), 6)
    ideal = make_ideal(IdealCase("n2", 5))
    lifted = groebner(ideal, 6, guide=q)
    assert lifted.stats == polyalg.GroebnerStats(0, 0, 0, 0)
    _assert_same_basis(lifted, groebner(ideal, 6))


@pytest.mark.parametrize("gens, bound, divisor", [(TORSION, 4, 25), (LEADS_DIFFER, 5, 5),
                                                   (TAINTED_REDUCER, 4, 5)])
def test_a_prime_dividing_a_recorded_integer_is_not_lifted(gens, bound, divisor):
    q, guided, unguided = _runs_mod(5, gens, bound)
    assert q.divisors % divisor == 0
    assert guided.stats == unguided.stats and guided.stats.pairs > 0
    _assert_same_basis(guided, unguided)


def test_a_generator_scaled_by_7_blocks_the_lift_at_7_only():
    R0 = PolyRing(("x", "y", "z"), 0)
    first, *rest = (R0.from_text(t) for t in ("1*x^2 - 1*y*z", "1*x*y - 1*z^2",
                                              "1*y^2 - 1*x*z"))
    for scale in (1, 7):
        for l in (5, 7):
            q, guided, unguided = _runs_mod(l, [R0.scale(first, scale), *rest], 4)
            assert unguided.stats.pairs > 0
            assert (guided.stats.pairs == 0) == (scale == 1 or l == 5), (scale, l)
            _assert_same_basis(guided, unguided)


def test_a_generator_vanishing_mod_l_above_the_top_degree_counts_over_q_only():
    """The cubic generator vanishes mod 5, above the top generator degree 2
    over GF(5): the run over GF(5) drops its guide, and so does not take
    the guide's minimal generator of degree 3."""
    q, guided, unguided = _runs_mod(5, ("1*x^2 - 1*y*z", "5*x^3 + 5*y^3"), 4)
    assert q.mingens == {2: 1, 3: 1} and unguided.mingens == {2: 1}
    assert guided.stats == unguided.stats
    _assert_same_basis(guided, unguided)


def test_a_generator_vanishing_mod_l_is_read_off_when_the_record_allows():
    """5*x^3 - 5*x*y*z = 5*x*(x^2 - y*z) vanishes mod 5 and reduces to zero
    over Q, so the record stays clean for 5, and the basis over GF(5) is
    read off the run over Q with no pair treated: the run over GF(5), which
    never sees that generator, makes the same steps as the run over Q."""
    q, guided, unguided = _runs_mod(5, ("1*x^2 - 1*y*z", "1*x*y - 1*z^2",
                                        "5*x^3 - 5*x*y*z"), 4)
    assert q.divisors % 5 != 0 and unguided.stats.pairs > 0
    assert guided.stats == polyalg.GroebnerStats(0, 0, 0, 0)
    _assert_same_basis(guided, unguided)


def test_a_record_without_leading_coefficients_cannot_lift_leads_differ(monkeypatch):
    """The mutation check of the leading-coefficient record: a run over Q
    that records only the contents it divides out makes 5 look lucky for
    LEADS_DIFFER, whose leading coefficient 5 is no unit mod 5.  The lift
    must then not pass silently: it fails to invert that coefficient."""
    def contents_only(self, h, lm):
        g = polyalg._basis_form(self.modulus, h, lm)
        self.record(h[lm] // g[lm])
        return g

    monkeypatch.setattr(polyalg._GBWorker, "basis_form", contents_only)
    with pytest.raises(ValueError, match="not invertible"):
        _runs_mod(5, LEADS_DIFFER, 5)


def test_a_record_without_contents_lifts_the_torsion_case_wrongly(monkeypatch):
    """The mutation check of the record: a run over Q that divides out the
    content 25 without recording it makes 5 look lucky, and the basis read
    off it keeps y^3, which is no leading term over GF(5)."""
    def no_contents(self, h, lm):
        g = polyalg._basis_form(self.modulus, h, lm)
        self.record(g[lm])
        return g

    monkeypatch.setattr(polyalg._GBWorker, "basis_form", no_contents)
    q, guided, unguided = _runs_mod(5, TORSION, 4)
    assert guided.stats.pairs == 0
    assert guided.gb_lead != unguided.gb_lead


# -- bounded runs build only the pairs they can treat -----------------------------------


def test_a_pair_above_the_bound_leaves_the_basis_incomplete():
    R = PolyRing(("x", "y", "z"), 0)
    gens = [R.from_text("1*x*y"), R.from_text("1*x*z")]  # one pair, lcm x*y*z
    at2 = groebner(IdealBasis(R, gens), 2)
    assert at2.stats.pairs == 0
    at3 = groebner(IdealBasis(R, gens), 3)
    assert at3.stats.pairs == 1
    # a basis built with a bound is incomplete, even one that built every pair
    for basis in (at2, at3):
        with pytest.raises(TruncationError):
            krull_dim(basis)


@settings(max_examples=60, deadline=None)
@given(ideals(), st.sampled_from([0, 5, 7]), st.integers(1, 7))
def test_a_bounded_run_is_the_unbounded_one_through_its_bound(data, char, bound):
    n, gens = data
    R = PolyRing([f"x{i}" for i in range(n)], char)
    ideal = IdealBasis(R, [{m: R.domain.of(c) for m, c in g.items()} for g in gens])
    full, cut = groebner(ideal, None), groebner(ideal, bound)
    assert cut.gb_lead == [t for t in full.gb_lead if sum(t[0]) <= bound]
    assert cut.gb == [g for (lm, _, _), g in zip(full.gb_lead, full.gb) if sum(lm) <= bound]
    assert cut.mingens == {d: k for d, k in full.mingens.items() if d <= bound}


def test_case_and_dims_records_keep_their_values():
    case = IdealCase("n3-z", 5)
    assert case == IdealCase("n3-z", 5) and hash(case) == hash(IdealCase("n3-z", 5))
    assert case != IdealCase("n3-z", 7) and IdealCase("n2") == IdealCase("n2", 0)
    assert repr(case) == "IdealCase(tag='n3-z', char=5)"
    with pytest.raises(cases.UnsupportedCase):
        IdealCase("n4")
    with pytest.raises(cases.UnsupportedCase):
        IdealCase("gl-n2", 3)
    dims = GradedDims((1, 7, 25))
    assert dims == GradedDims((1, 7, 25)) and hash(dims) == hash(GradedDims((1, 7, 25)))
    assert str(dims) == "[1, 7, 25]" and repr(dims) == "GradedDims(dims=(1, 7, 25))"
    with pytest.raises(ValueError, match="negative"):
        GradedDims((1, -1))
    for record, name in ((case, "char"), (dims, "dims")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    assert case.char == 5 and dims.dims == (1, 7, 25)


def test_ideal_basis_equality_ignores_its_run_data():
    R = ring6()
    basis = groebner(IdealBasis(R, [R.from_text("1*a*f - 1*c*d"), R.from_text("1*a*c")]), None)
    bare = IdealBasis(basis.ring, basis.gens, basis.gb, basis.gb_bound, basis.mingens)
    assert bare == basis and basis.gb_lead and basis.stats.pairs
    assert repr(bare) == repr(basis) and "gb_lead" not in repr(basis)
    assert IdealBasis(R, basis.gens, basis.gb[1:], None, basis.mingens) != basis
    with pytest.raises(TypeError):
        hash(basis)
    bare.gb_bound = 3  # mutable
    assert bare != basis
