"""The representation of Q (an int where the value is integral, a Fraction
elsewhere), the straight-line 2x2/3x3 matrix helpers of fieldops and its
primality test."""

import inspect
import os
import random
from fractions import Fraction
from functools import reduce

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from steinberg import campaigns, cases, fieldops, polyalg
from steinberg.cases import CASE_TAGS, IdealCase, build_case, make_ideal
from steinberg.fieldops import QQ, ZZ, RationalField, field_of, is_prime, mat_det, mat_mul
from steinberg.polyalg import PolyRing
from steinberg.report import Emitter

rationals = st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=10**4))


def _is_rational(x) -> bool:
    return type(x) is int or type(x) is Fraction


@given(rationals, rationals)
def test_qq_arithmetic_agrees_with_fraction(a, b):
    for got, want in ((QQ.add(a, b), Fraction(a) + Fraction(b)),
                      (QQ.sub(a, b), Fraction(a) - Fraction(b)),
                      (QQ.mul(a, b), Fraction(a) * Fraction(b))):
        assert _is_rational(got) and got == want


@settings(report_multiple_bugs=False)
@given(rationals)
def test_qq_inv_is_exact(a):
    if a == 0:
        return
    got = QQ.inv(a)
    assert _is_rational(got) and got == 1 / Fraction(a)
    assert (type(got) is int) == (got.denominator == 1)


def test_qq_inv_by_true_division_is_caught(monkeypatch):
    # negative control: 1 / a is a float once a is an int
    monkeypatch.setattr(RationalField, "inv", staticmethod(lambda a: 1 / a))
    with pytest.raises(AssertionError):
        test_qq_inv_is_exact()


@given(st.one_of(rationals, rationals.map(str)))
def test_qq_of_is_an_int_exactly_when_integral(x):
    got = QQ.of(x)
    assert _is_rational(got) and got == Fraction(x)
    assert (type(got) is int) == (Fraction(x).denominator == 1)


def test_every_case_keeps_its_integral_generator_coefficients_as_ints():
    # gl-n3 is built through Fraction(1, 2) multiples, whose integral sums
    # and products stay Fractions until build_case brings them back
    for tag in CASE_TAGS:
        for char in (0, 5, 7):
            for poly in build_case(IdealCase(tag, char)).gens:
                for c in poly.values():
                    assert type(c) is int or type(c) is Fraction and c.denominator != 1, (
                        tag, char, c)
    cases.clear_case_memo()


def test_no_case_or_basis_over_q_has_a_float_coefficient(monkeypatch):
    for tag in CASE_TAGS:
        for poly in build_case(IdealCase(tag)).gens:
            assert all(map(_is_rational, poly.values())), tag
    bases = []

    def recording(ideal, bound, guide=None):
        basis = polyalg.groebner(ideal, bound, guide=guide)
        if not basis.ring.domain.characteristic:
            bases.append(basis.gb)
        return basis

    # every basis that a check asks for, where the checks look groebner up
    monkeypatch.setattr(cases, "groebner", recording)
    monkeypatch.setattr(campaigns, "groebner", recording)
    monkeypatch.delattr(os, "fork")  # every Groebner run in this process
    cases.clear_case_memo()
    campaigns.verify_all(Emitter(), seed=0, trials=5)
    cases.clear_case_memo()
    assert len(bases) == 3  # n2, n3-z and n3-x over Q
    for tag in ("n2", "n3-z", "n3-x"):
        recording(make_ideal(IdealCase(tag)), 4)
    cases.clear_case_memo()
    assert len(bases) == 6
    for gb in bases:
        for poly in gb:
            for c in poly.values():
                # a basis over Q keeps its integral coefficients as ints
                assert type(c) is int or type(c) is Fraction and c.denominator != 1


# -- the matrix helpers ---------------------------------------------------------------


def _ref_mul(ring, a, b):
    """The general formula: each entry a left fold of row-times-column products."""
    return [[reduce(ring.add, map(ring.mul, row, col)) for col in zip(*b)] for row in a]


def _ref_det(ring, a):
    """The permutation formula, even permutations first, each sum a left fold."""
    if len(a) == 2:
        return ring.sub(ring.mul(a[0][0], a[1][1]), ring.mul(a[0][1], a[1][0]))

    def terms(perms):
        return reduce(ring.add, (ring.mul(ring.mul(a[0][i], a[1][j]), a[2][k])
                                 for i, j, k in perms))

    return ring.sub(terms(((0, 1, 2), (1, 2, 0), (2, 0, 1))),
                    terms(((2, 1, 0), (1, 0, 2), (0, 2, 1))))


def _matrices(n):
    entries = st.integers(-10**12, 10**12)
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


@pytest.mark.parametrize("n", [2, 3])
@given(data=st.data())
def test_mat_mul_and_det_agree_with_sympy(n, data):
    a, b = data.draw(_matrices(n)), data.draw(_matrices(n))
    product, det = sympy.Matrix(a) * sympy.Matrix(b), sympy.Matrix(a).det()
    assert mat_mul(ZZ, a, b) == product.tolist()
    assert mat_det(ZZ, a) == det
    gf7 = field_of(7)
    a7, b7 = [[x % 7 for x in row] for row in a], [[x % 7 for x in row] for row in b]
    assert mat_mul(gf7, a7, b7) == [[x % 7 for x in row] for row in product.tolist()]
    assert mat_det(gf7, a7) == det % 7


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("char", [0, 5])
def test_mat_mul_and_det_over_polynomials_match_the_general_formulas(n, char):
    ring = PolyRing(["x", "y", "z"], char)
    rng = random.Random(n * 10 + char)

    def rand_poly():
        out = ring.zero()
        for _ in range(3):
            exps = [rng.randrange(3) for _ in range(3)]
            out = ring.add(out, ring.monomial(exps, Fraction(rng.randrange(-9, 10),
                                                             rng.choice((1, 1, 2, 3)))))
        return out

    for _ in range(5):
        a = [[rand_poly() for _ in range(n)] for _ in range(n)]
        b = [[rand_poly() for _ in range(n)] for _ in range(n)]
        got, want = mat_mul(ring, a, b), _ref_mul(ring, a, b)
        # the same ring operations in the same order: equal, term order too
        for row_got, row_want in zip(got, want):
            for x, y in zip(row_got, row_want):
                assert list(x.items()) == list(y.items())
        assert list(mat_det(ring, a).items()) == list(_ref_det(ring, a).items())


def test_larger_matrices_take_the_general_path():
    rng = random.Random(4)
    a = [[rng.randrange(-50, 50) for _ in range(4)] for _ in range(4)]
    b = [[rng.randrange(-50, 50) for _ in range(4)] for _ in range(4)]
    assert mat_mul(ZZ, a, b) == (sympy.Matrix(a) * sympy.Matrix(b)).tolist()
    # non-square shapes too: 2x3 times 3x2
    c = [row[:3] for row in a[:2]]
    d = [row[:2] for row in b[:3]]
    assert mat_mul(ZZ, c, d) == (sympy.Matrix(c) * sympy.Matrix(d)).tolist()
    with pytest.raises(ValueError):
        mat_det(ZZ, a)


def test_inv_mod_is_the_inverse_mod_eval_prime():
    rng = random.Random(5)
    p = cases.EVAL_PRIME
    for n in (2, 3):
        for _ in range(20):
            g = cases._rand_invertible(rng, n)
            ginv = cases._inv_mod(g)
            ident = [[int(i == j) for j in range(n)] for i in range(n)]
            assert [[x % p for x in row] for row in mat_mul(ZZ, g, ginv)] == ident
            want = sympy.Matrix(g).inv_mod(p).tolist()
            assert ginv == want
    assert cases._inv_mod([[2, 0], [0, 1]]) == [[(p + 1) // 2, 0], [0, 1]]


def _primality_disagreements(test):
    ns = list(range(-20, 20001)) + [2 ** 31 - 1, 46337 ** 2]
    return [n for n in ns if test(n) != sympy.isprime(n)]


def test_is_prime_agrees_with_sympy():
    assert _primality_disagreements(is_prime) == []
    # negative control: a trial bound one short of the square root calls
    # the squares of primes prime, 46337^2 among them
    source = inspect.getsource(fieldops.is_prime)
    assert source.count("isqrt(n) + 1") == 1
    namespace = {}
    exec(source.replace("isqrt(n) + 1", "isqrt(n)"), vars(fieldops).copy(), namespace)
    wrong = _primality_disagreements(namespace["is_prime"])
    assert 4 in wrong and 46337 ** 2 in wrong and 2 ** 31 - 1 not in wrong
