import dataclasses
import os
import random
from collections import Counter
from fractions import Fraction

import pytest

from steinberg import campaigns, cases
from steinberg.cases import (EVAL_PRIME, IdealCase, UnsupportedCase, build_case,
                             chart_symbolic_check,
                             character_section_dims, commutator_layer_check,
                             gl_specialization_check, hilbert_cross_check, make_ideal,
                             multiplicity, parametrization_check, span17_check)
from steinberg.fieldops import field_of
from steinberg.polyalg import (PolyRing, TruncationError, groebner, hilbert_function,
                               min_gen_degrees)
from steinberg.report import FAIL, Emitter


def _eval_poly(poly, point, p=EVAL_PRIME):
    """Term-by-term value of poly at point mod p: the oracle for the compiled
    evaluation of parametrization_check."""
    total = 0
    for mono, coeff in poly.items():
        c = coeff
        if isinstance(c, Fraction):
            c = c.numerator * pow(c.denominator, -1, p)
        term = c % p
        for i, e in enumerate(mono):
            if e:
                term = term * pow(point[i], e, p) % p
        total = (total + term) % p
    return total


def test_case_descriptors():
    with pytest.raises(UnsupportedCase):
        IdealCase("bogus")
    with pytest.raises(UnsupportedCase):
        IdealCase("gl-n3", 3)


def test_generator_counts():
    assert len(make_ideal(IdealCase("n2")).gens) == 7  # 3 + the 4 commutator entries
    assert make_ideal(IdealCase("n2")).ring.n == 6
    # the literal cubic list: 3 quadratic traces, 2 cubic traces, 36 entries
    zn = make_ideal(IdealCase("n3-z"))
    assert zn.ring.n == 16 and len(zn.gens) == 41
    xn = make_ideal(IdealCase("n3-x"))
    assert xn.ring.n == 18 and len(xn.gens) == 34
    assert make_ideal(IdealCase("gl-n3", 0)).ring.n == 21


def test_n2_presentation():
    for char in (0, 5):
        gb = groebner(make_ideal(IdealCase("n2", char)), 5)
        assert min_gen_degrees(gb, 5).dims == (0, 0, 6, 0, 0, 0)
    hc = hilbert_cross_check(IdealCase("n2", 5), 6)
    assert hc.passed
    assert hc.character_dims[1] == 6


def test_n3z_presentation_low_degree():
    gb = groebner(make_ideal(IdealCase("n3-z", 5)), 3)
    assert min_gen_degrees(gb, 3).dims == (0, 0, 3, 36)
    assert hilbert_function(gb, 3).dims == (1, 16, 133, 732)
    assert character_section_dims("n3-z", 3).dims == (1, 16, 133, 732)


def test_character_sections_sl2_degree_one():
    assert character_section_dims("n2", 1).dims == (1, 6)


def test_parametrization_pass_and_control():
    for tag in ("n2", "n3-z", "n3-x", "gl-n2", "gl-n3", "cnil"):
        rep = parametrization_check(IdealCase(tag), trials=25, seed=3)
        assert rep.passed, (tag, rep.failures[:3])
        assert rep.bound_exponent > 6
    with pytest.raises(ValueError):
        parametrization_check(IdealCase("n2"), trials=0)


def test_parametrization_detects_nonmember():
    # the control polynomial is exactly a deliberately added non-member
    rep = parametrization_check(IdealCase("n3-z"), trials=10, seed=0)
    assert rep.control_detected


def test_parametrization_reproducible():
    a = parametrization_check(IdealCase("n3-x"), trials=15, seed=42)
    b = parametrization_check(IdealCase("n3-x"), trials=15, seed=42)
    assert (a.failures, a.control_detected, a.bound_exponent) == \
        (b.failures, b.control_detected, b.bound_exponent)


def test_span17():
    reports = span17_check(0)
    for ambient in ("traceless", "full-matrix"):
        r = reports[ambient]
        assert r.rank == 17 and r.quotient_free_rank == 17
        assert r.quotient_torsion == []
        assert r.snf_primes == {2}
    f5 = span17_check(5)["traceless"]
    assert f5.rank == 17 and f5.passed


def test_span_lattices_are_free_of_rank_17_with_invariant_factors_1_and_2():
    for ambient, twos in (("traceless", 8), ("full-matrix", 9)):
        a_part, b_part, free, torsion, factors = cases.span_lattice(ambient)
        assert (free, torsion) == (17, ())
        assert factors == (1,) * (len(factors) - twos) + (2,) * twos
        assert len(factors) == cases._field_rank(0, a_part + b_part)


@pytest.mark.parametrize("ambient", ["traceless", "full-matrix"])
def test_field_rank_matches_sympy_on_the_span_rows(ambient):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    a_part, b_part, *_ = cases.span_lattice(ambient)
    for rows in (a_part + b_part, b_part):
        matrix = sympy.Matrix([list(r) for r in rows])
        assert cases._field_rank(0, rows) == matrix.rank()
        gf5 = DomainMatrix.from_Matrix(matrix).convert_to(sympy.GF(5))
        assert cases._field_rank(5, rows) == gf5.rank()


def test_multiplicities():
    assert [multiplicity(w) for w in ((1, 0), (0, 1), (2, -1), (1, 1))] == [3, 3, 16, 8]
    with pytest.raises(UnsupportedCase):
        multiplicity((4, 4))


def test_gl_specialization_small():
    rep = gl_specialization_check("gl-n2", 5)
    assert rep.passed


def test_chart_symbolic():
    for tag in ("gl-n2", "gl-n3"):
        assert chart_symbolic_check(tag).passed
    for tag in ("n2", "cnil"):
        with pytest.raises(UnsupportedCase):
            chart_symbolic_check(tag)


def test_commutator_layer_quick():
    rep = commutator_layer_check(5, 3)
    assert rep.new_generators_degree2 == 8
    assert rep.hf_quotient.dims == rep.character_dims


def test_gl_ideal_members_vanish_on_unipotent_pairs():
    # direct spot check: at q = 1 the gl-n2 generators vanish at Phi = Sigma = I
    data = build_case(IdealCase("gl-n2", 0))
    point = {"q": 1, "f11": 1, "f12": 0, "f21": 0, "f22": 1,
             "s11": 1, "s12": 0, "s21": 0, "s22": 1, "u": 1, "v": 1}
    vals = [point[nm] for nm in data.ring.names]
    assert all(_eval_poly(g, vals) == 0 for g in data.gens)


@pytest.mark.parametrize("tag", cases.CASE_TAGS)
def test_compiled_evaluation_matches_term_by_term(tag):
    # the case's generators (gl-n3 has coefficients 1/2) and the control, at
    # seeded random points, where they do not vanish, and at the
    # parametrized points of the check itself, where the generators do
    data = build_case(IdealCase(tag))
    ring = data.ring
    control = ring.add(ring.mul(ring.var(ring.names[0]), ring.var(ring.names[1])), ring.const(1))
    polys = data.gens + [control]
    compiled = cases._Compiled(polys, ring.n)
    rng = random.Random(f"compiled/{tag}")
    points = [[rng.randrange(EVAL_PRIME) for _ in range(ring.n)] for _ in range(10)]
    points.append([0] * ring.n)
    points += [cases._point_for_case(IdealCase(tag), rng, ring) for _ in range(5)]
    for point in points:
        assert compiled.values(point) == [_eval_poly(g, point) for g in polys]
    assert any(v for v in compiled.values(points[0])[:-1])


@pytest.mark.parametrize("tag", cases.CASE_TAGS)
def test_integer_point_matrices_match_the_prime_field_route(tag, monkeypatch):
    # _point_for_case multiplies its matrices over ZZ and reduces each entry
    # once; with ZZ swapped for GF(EVAL_PRIME) every step reduces.  The
    # residues, the random draws and so the points must agree
    ring = build_case(IdealCase(tag)).ring

    def points():
        rng = random.Random(f"points/{tag}")
        out = [cases._point_for_case(IdealCase(tag), rng, ring) for _ in range(25)]
        return out, rng.random()

    by_integers = points()
    monkeypatch.setattr(cases, "ZZ", field_of(EVAL_PRIME))
    assert points() == by_integers


def test_generators_reduce_to_zero_in_their_ideals():
    from steinberg.polyalg import normal_form

    for tag, bound in (("n3-z", 3), ("n3-x", 3), ("n2", 2)):
        ideal = make_ideal(IdealCase(tag, 5))
        gb = groebner(ideal, bound)
        for g in ideal.gens:
            assert not normal_form(g, gb)


def test_multiplicity_euler_characteristic_oracle():
    from steinberg.bwb import euler_char
    from steinberg.breps import WeightMultiset, build_rep

    # dominant cases: the fibre dimension is the section count of O(lam)
    for lam in ((1, 0), (0, 1), (1, 1)):
        assert multiplicity(lam) == euler_char(WeightMultiset([lam])).dimension()
    # the alpha case: minus the Euler characteristic of the twisted pair
    assert multiplicity((2, -1)) == -euler_char(build_rep("tw(2,-1)(b + b)")).dimension()


def test_degree3_rows_rejects_non_integral_and_non_cubic():
    ring = PolyRing(("x", "y"), 0)
    assert cases._degree3_rows(ring, [{(3, 0): 2, (1, 2): -1}]) == [[-1, 2]]
    with pytest.raises(ValueError, match="non-integral"):
        cases._degree3_rows(ring, [{(3, 0): Fraction(1, 2)}])
    with pytest.raises(ValueError, match="cubic"):
        cases._degree3_rows(ring, [{(2, 0): 1}])


@pytest.fixture
def groebner_calls(monkeypatch, shared_log):
    """Empty the per-case memo and record (generators, bound, guide) of every
    Groebner basis built afterwards, in this process or a forked helper."""
    calls = shared_log("groebner")

    def counting(ideal, bound=None, guide=None):
        calls.append((ideal.gens, bound, guide))
        return groebner(ideal, bound, guide=guide)

    monkeypatch.setattr(cases, "groebner", counting)
    monkeypatch.setattr(campaigns, "groebner", counting)
    cases.clear_case_memo()
    yield calls
    cases.clear_case_memo()


@pytest.fixture
def points_calls(monkeypatch, shared_log):
    """Empty the per-case memo and record the case of every parametrization
    check run afterwards, in this process or a forked helper."""
    calls = shared_log("points")
    check = cases.parametrization_check

    def counting(case, trials=200, seed=0):
        calls.append(case)
        return check(case, trials, seed)

    monkeypatch.setattr(cases, "parametrization_check", counting)
    cases.clear_case_memo()
    yield calls
    cases.clear_case_memo()


def test_ideal_campaign_builds_its_basis_once(groebner_calls):
    em = Emitter()
    campaigns.ideal_campaign(em, "n2", 0, 3, trials=5, seed=0)
    assert len(groebner_calls) == 1
    assert {e.check_id for e in em.entries} >= {"ideal.n2.c0.mingens", "ideal.n2.c0.hilbert-cross"}
    assert all(e.status != FAIL for e in em.entries)


def test_n3z_flatness_reuses_the_c5_and_c7_bases(groebner_calls):
    em = Emitter()
    for char in (5, 7, 0):
        campaigns.ideal_campaign(em, "n3-z", char, 3, trials=5, seed=0)
    # one basis per characteristic: the hilbert cross check and the char-0
    # flatness check read the bases the campaigns already built
    assert len(groebner_calls) == 3
    assert "ideal.n3-z.c0.flatness" in {e.check_id for e in em.entries}
    assert all(e.status != FAIL for e in em.entries)


def test_n3x_basis_is_shared_by_containment_and_specialization(groebner_calls):
    assert campaigns._containment_dictionary(5)
    assert gl_specialization_check("gl-n3", 5).passed
    n3x = make_ideal(IdealCase("n3-x", 5)).gens
    assert [bound for gens, bound, _ in groebner_calls if gens == n3x] == [3]


def test_verify_all_runs_each_points_check_once_and_frees_its_memo(points_calls, two_cpus):
    em = Emitter()
    campaigns.verify_all(em, seed=0, trials=5)
    # n2 is checked at chars 0 and 5 and n3-z at 0, 5 and 7, all on the
    # char-0 generator list: one run per case serves them all
    assert sorted(case.tag for case in points_calls) == sorted(cases.CASE_TAGS)
    assert sum(e.check_id.endswith(".points") for e in em.entries) == 9
    assert all(e.status != FAIL for e in em.entries)
    assert not cases._memo


def test_verify_all_builds_each_span_lattice_once_and_frees_its_memo(monkeypatch):
    calls = []  # the row length of each lattice built: one per ambient
    quotient = cases.quotient_invariant_factors

    def counting(gens, sub):
        calls.append(len(gens[0]))
        return quotient(gens, sub)

    monkeypatch.setattr(cases, "quotient_invariant_factors", counting)
    cases.clear_case_memo()
    em = Emitter()
    campaigns.verify_all(em, seed=0, trials=5)
    # the span campaigns at chars 0 and 5 share one lattice per ambient
    assert len(calls) == len(set(calls)) == 2
    assert sum(".groebner-side." in e.check_id for e in em.entries) == 4
    assert all(e.status != FAIL for e in em.entries)
    assert not cases._memo


def test_verify_all_builds_each_case_once_and_frees_its_memo(monkeypatch, shared_log,
                                                              two_cpus):
    # (pid, key) of every result computed and stored, in the caller or the helper
    misses = shared_log("misses")

    class Recording(dict):
        def __setitem__(self, key, value):
            misses.append((os.getpid(), key))
            super().__setitem__(key, value)

    monkeypatch.setattr(cases, "_memo", Recording())
    em = Emitter()
    campaigns.verify_all(em, seed=0, trials=5)
    by_pid = {}
    for pid, key in misses:
        by_pid.setdefault(pid, []).append(key)
    assert len(by_pid) == 2 and os.getpid() in by_pid
    # no key twice in one process; gl-n3, n3-x at char 5 and n3-z at char 0
    # are each asked for more than once
    assert all(len(keys) == len(set(keys)) for keys in by_pid.values())
    # two cheap cases are built on both sides: the helper's containment
    # dictionary and the caller's n3-z campaign at char 5 both need the n3-z
    # case over GF(5), and the helper's n3-x points and the caller's span
    # lattice both need the n3-x case over Q
    both = set.intersection(*(set(keys) for keys in by_pid.values()))
    assert both == {("build_case", IdealCase("n3-z", 5)), ("build_case", IdealCase("n3-x"))}
    assert Counter(key[0] for key in {key for _, key in misses}) == {
        "build_case": 13, "case_basis": 8, "case_points": 6, "case_hilbert": 5,
        "span_lattice": 2, "case_cn_reduction": 1}
    assert all(e.status != FAIL for e in em.entries)
    assert not cases._memo


def _gens_key(gens):
    return tuple(tuple(sorted(g.items())) for g in gens)


def test_verify_all_builds_each_groebner_basis_once(groebner_calls, two_cpus):
    # with the helper forked: no basis is built in both processes
    em = Emitter()
    campaigns.verify_all(em, seed=0, trials=5)
    # the cnil symbolic check and the cnil points check read one reduction
    inputs = {(_gens_key(gens), bound) for gens, bound, _ in groebner_calls}
    assert len(groebner_calls) == len(inputs) == 15
    assert all(e.status != FAIL for e in em.entries)
    assert not cases._memo
    # the n2 basis over GF(5) and the n3-z bases over GF(5) and GF(7) are
    # guided by the char-0 bases the run already holds; no other basis is
    guided = {(_gens_key(gens), bound, _gens_key(guide.gens))
              for gens, bound, guide in groebner_calls if guide is not None}
    assert guided == {(_gens_key(make_ideal(IdealCase(tag, l)).gens), bound,
                       _gens_key(make_ideal(IdealCase(tag, 0)).gens))
                      for tag, l, bound in (("n2", 5, 6), ("n3-z", 5, 5), ("n3-z", 7, 5))}


def test_a_faulty_char0_basis_fails_the_hilbert_cross_check(monkeypatch):
    """Drop one degree-5 element from the char-0 n3-z basis.  The guided runs
    over GF(5) and GF(7) then stop one element short, so their Hilbert
    functions agree with the faulty one and the flatness check passes; the
    cross check of the char-0 Hilbert function against the character side
    must fail."""
    def faulty(ideal, bound=None, guide=None):
        basis = groebner(ideal, bound, guide=guide)
        if ideal.ring.domain.characteristic:
            return basis
        k = next(k for k, (lm, _, _) in enumerate(basis.gb_lead) if sum(lm) == 5)
        return dataclasses.replace(basis, gb=basis.gb[:k] + basis.gb[k + 1:],
                                   gb_lead=basis.gb_lead[:k] + basis.gb_lead[k + 1:])

    monkeypatch.setattr(cases, "groebner", faulty)
    cases.clear_case_memo()
    try:
        em = Emitter()
        campaigns.ideal_campaign(em, "n3-z", 0, 5, trials=5, seed=0)
        status = {e.check_id: e.status for e in em.entries}
        assert status["ideal.n3-z.c0.flatness"] != FAIL
        assert status["ideal.n3-z.c0.hilbert-cross"] == FAIL
    finally:
        cases.clear_case_memo()


def test_cnil_points_draw_no_conjugating_matrix(monkeypatch):
    def unused(*args):
        raise AssertionError("cnil chart points need no random invertible matrix")

    monkeypatch.setattr(cases, "_rand_invertible", unused)
    assert parametrization_check(IdealCase("cnil"), trials=5, seed=0).passed


def test_the_memo_keeps_no_exceptions():
    # gl-n2 is not homogeneous, so a truncated basis raises; like
    # lru_cache, the store keeps nothing and the next call raises again
    cases.clear_case_memo()
    case = IdealCase("gl-n2", 0)
    for _ in range(2):
        with pytest.raises(TruncationError):
            cases.case_basis(case, 3)
        assert ("case_basis", case, 3) not in cases._memo
    cases.clear_case_memo()
