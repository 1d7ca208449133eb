import hashlib
import itertools
import os
import random
from collections import Counter
from fractions import Fraction

import pytest

from steinberg import campaigns, cases, cli, polyalg
from steinberg.cases import (EVAL_PRIME, IdealCase, UnsupportedCase, build_case,
                             chart_symbolic_check,
                             character_section_dims, commutator_layer_check,
                             gl_specialization_check, hilbert_cross_check, make_ideal,
                             multiplicity, parametrization_check, span17_check)
from steinberg.fieldops import Echelon, field_of, mat_mul
from steinberg.polyalg import (GroebnerStats, IdealBasis, PolyRing, TruncationError, groebner,
                               hilbert_function, min_gen_degrees)
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


# sha256 of every case's generator list at chars 0, 5, 7 and 11: each term
# in the order of its generator's dict, as monomial, coefficient type and
# coefficient.  Recorded before the gl cases were built from one formula.
GENERATORS_SHA256 = "8e8a251b984aa8b7139c3be2ed73c9efcdf55f744279c24516c1e469703635cb"


def test_generator_lists_are_pinned():
    h = hashlib.sha256()
    for tag in cases.CASE_TAGS:
        for char in (0, 5, 7, 11):
            for g in build_case(IdealCase(tag, char)).gens:
                terms = [(m, type(c).__name__, c) for m, c in g.items()]
                h.update(repr(terms).encode() + b";")
            h.update(b"|")
    assert h.hexdigest() == GENERATORS_SHA256


@pytest.mark.parametrize("tag, char, line", [
    ("n3-z", 2, "[1, 16, 135, 764, 3239, 11048]"), ("n3-z", 3, "[1, 16, 133, 734, 3034, 10162]"),
    ("n3-x", 2, "[1, 16, 127, 654, 2510, 7814]"), ("n3-x", 3, "[1, 16, 125, 640, 2454, 7646]"),
    ("n2", 3, "[1, 6, 15, 28, 45, 66]")])
def test_no_char_0_guide_below_five(groebner_calls, capsys, tag, char, line):
    """At l = 2 and 3 a case basis runs unguided (the Q runs of n3-z and
    n3-x record 24): one groebner call, and the line printed when the
    char-0 guide was built first."""
    argv = ["compute", "hilbert", "--case", tag, "--char", str(char), "--degree-bound", "5"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == line + "\n"
    assert [guide for _, _, guide in groebner_calls] == [None]


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
    passed, expected, actual = hilbert_cross_check(IdealCase("n2", 5), 6)
    assert passed
    assert expected == "section counts [1, 6, 15, 28, 45, 66, 91]"
    assert actual == "[1, 6, 15, 28, 45, 66, 91]"


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
        passed, _, actual = reports[ambient]
        assert passed and actual == "rank 17, free 17, torsion [], snf primes [2]"
    passed, _, actual = span17_check(5)["traceless"]
    assert passed and actual.startswith("rank 17, ")


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
    passed, _, actual = gl_specialization_check("gl-n2", 5)
    assert passed and actual == "forward True, backward True"


# the gl-n2 target of gl_specialization_check, as it was built by hand
_GL_N2_TARGET = ["m11 + m22", "n11 + n22", "m11*m22 - m12*m21", "n11*n22 - n12*n21",
                 "m11*n11 + m12*n21 + m21*n12 + m22*n22", "m12*n21 - m21*n12",
                 "m11*n12 + m12*n22 - m12*n11 - m22*n12",
                 "m21*n11 + m22*n21 - m11*n21 - m21*n22", "m21*n12 - m12*n21"]


@pytest.mark.parametrize("char", [5, 7])
def test_gl_n2_specialization_target_is_the_hand_built_list(groebner_calls, char):
    """tr M, tr N, det M, det N, tr MN and the entries of MN - NM on a full
    2x2 pair: the ideal of the check's second groebner run, after the
    specialized gl generators."""
    assert gl_specialization_check("gl-n2", char)[0]
    (_, _, _), (target, _, _) = groebner_calls
    ring = PolyRing(cases._matrix_names("m", 2, False) + cases._matrix_names("n", 2, False), char)
    assert target == [ring.from_text(t) for t in _GL_N2_TARGET]


def test_chart_symbolic():
    for tag, count in (("gl-n2", 11), ("gl-n3", 36)):
        assert chart_symbolic_check(tag) == (
            True, f"all {count} generators vanish on the chart", "all reduce to 0")
    for tag in ("n2", "cnil"):
        with pytest.raises(UnsupportedCase):
            chart_symbolic_check(tag)


def test_commutator_layer_quick():
    passed, expected, actual = commutator_layer_check(5, 3)
    assert passed
    assert expected == "8 new degree-2 generators; quotient dimensions (1, 16, 125, 638)"
    assert actual == "8 new; [1, 16, 125, 638]"


def test_gl_ideal_members_vanish_on_unipotent_pairs():
    # direct spot check: at q = 1 the gl-n2 generators vanish at Phi = Sigma = I
    data = build_case(IdealCase("gl-n2", 0))
    point = {"q": 1, "f11": 1, "f12": 0, "f21": 0, "f22": 1,
             "s11": 1, "s12": 0, "s21": 0, "s22": 1, "u": 1, "v": 1}
    vals = [point[nm] for nm in data.ring.names]
    assert all(_eval_poly(g, vals) == 0 for g in data.gens)


@pytest.mark.parametrize("char", [0, 5])
def test_mat_e2_is_the_sum_of_the_principal_2x2_minors(char):
    ring = PolyRing(cases._matrix_names("a", 3, False), char)
    a = cases._var_matrix(ring, "a", 3, False)
    minors = ring.zero()
    for i, j in itertools.combinations(range(3), 2):
        minors = ring.add(minors, ring.sub(ring.mul(a[i][i], a[j][j]),
                                           ring.mul(a[i][j], a[j][i])))
    assert cases.mat_e2(ring, a) == minors


# -- conjugation covariance and the points slice, exact over Q -------------------------
#
# The variety of n2, n3-z and n3-x is the closure of G.S, G = SL_n acting by
# conjugation and S the slice that _point_for_case draws from.  SL_n is
# generated by the root subgroups u = I + t E_ij: when every t^k coefficient
# of g(u X u^-1) lies in the span of the generators, the ideal is G-stable,
# and when every generator also vanishes on S, it vanishes on G.S.  The gl
# chart check leans on the same covariance.

# n, the matrices conjugated together (variable prefixes) and whether they
# are traceless; the gl cases fix q, u and v.
_CONJUGATED = {"n2": (2, "mn", True), "n3-z": (3, "mn", True), "n3-x": (3, "mn", False),
               "gl-n2": (2, "fs", False), "gl-n3": (3, "fs", False)}


def _covariance_failures(tag, gens):
    """(i, j, generator index, k) for each t^k coefficient, k >= 1, of a
    generator at u X u^-1, u = I + t E_ij, that lies outside the span of
    gens.  The polynomials are those of the case's ring over Q."""
    n, prefixes, traceless = _CONJUGATED[tag]
    ring = build_case(IdealCase(tag)).ring
    span = Echelon(ring.domain)
    for g in gens:
        span.insert(g)
    T = PolyRing(ring.names + ("t",), 0)
    failures = []
    for i, j in itertools.permutations(range(n), 2):
        u = cases.mat_identity_poly(T, n, T.const(1))
        uinv = cases.mat_identity_poly(T, n, T.const(1))
        u[i][j], uinv[i][j] = T.var("t"), T.scale(T.var("t"), -1)
        images = {}
        for prefix in prefixes:
            X = mat_mul(T, mat_mul(T, u, cases._var_matrix(T, prefix, n, traceless)), uinv)
            images.update({f"{prefix}{a + 1}{b + 1}": X[a][b]
                           for a in range(n) for b in range(n)})
        for k, g in enumerate(gens):
            coeffs = {}
            for m, c in ring.substitute(g, images, T).items():
                if m[-1]:
                    coeffs.setdefault(m[-1], {})[m[:-1]] = c
            failures += [(i, j, k, e) for e, c in sorted(coeffs.items())
                         if not span.contains(c)]
    return failures


def _slice_failures(tag, gens):
    """The indices of gens that do not vanish identically on the slice of
    the case's points: the strictly upper pairs for n2 and n3-z, and
    (0, a, b; 0, 0, ta; 0, 0, 0), (0, d, e; 0, 0, td; 0, 0, 0) for n3-x."""
    ring = build_case(IdealCase(tag)).ring
    if tag == "n3-x":
        S = PolyRing(("a", "b", "d", "e", "t"), 0)
        a, b, d, e, t = map(S.var, S.names)
        upper = {"m12": a, "m13": b, "m23": S.mul(t, a), "n12": d, "n13": e, "n23": S.mul(t, d)}
    else:
        S = ring
        upper = {nm: S.var(nm) for nm in ring.names if nm[1] < nm[2]}
    images = {nm: upper.get(nm, S.zero()) for nm in ring.names}
    return [k for k, g in enumerate(gens) if ring.substitute(g, images, S)]


@pytest.mark.parametrize("tag", list(_CONJUGATED))
def test_each_root_subgroup_maps_the_generators_into_their_span(tag):
    assert _covariance_failures(tag, build_case(IdealCase(tag)).gens) == []


@pytest.mark.parametrize("tag", ["n2", "n3-z", "n3-x"])
def test_the_generators_vanish_on_the_points_slice(tag):
    assert _slice_failures(tag, build_case(IdealCase(tag)).gens) == []


def test_a_doubled_coefficient_breaks_covariance():
    data = build_case(IdealCase("n3-z"))
    gens = list(data.gens)
    g = gens[5]  # the (1, 1) entry of M^2 N
    mono = data.ring.lm(g)
    gens[5] = data.ring.add(g, {mono: g[mono]})
    assert _covariance_failures("n3-z", gens)


def test_the_entries_of_mn_are_covariant_but_fail_the_slice():
    data = build_case(IdealCase("n3-z"))
    MN = mat_mul(data.ring, data.mats["M"], data.mats["N"])
    gens = data.gens + [MN[a][b] for a in range(3) for b in range(3)]
    assert _covariance_failures("n3-z", gens) == []
    # on the slice MN is m12 n23 at (1, 3) and 0 elsewhere
    assert _slice_failures("n3-z", gens) == [len(data.gens) + 2]


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
    slots = cases._point_slots(ring)
    points += [cases._point_for_case(IdealCase(tag), rng, slots) for _ in range(5)]
    for point in points:
        assert compiled.values(point) == [_eval_poly(g, point) for g in polys]
    assert any(v for v in compiled.values(points[0])[:-1])


@pytest.mark.parametrize("tag", cases.CASE_TAGS)
def test_integer_point_matrices_match_the_prime_field_route(tag, monkeypatch):
    # _point_for_case multiplies its matrices over ZZ and reduces each entry
    # once; with ZZ swapped for GF(EVAL_PRIME) every step reduces.  The
    # residues, the random draws and so the points must agree
    slots = cases._point_slots(build_case(IdealCase(tag)).ring)

    def points():
        rng = random.Random(f"points/{tag}")
        out = [cases._point_for_case(IdealCase(tag), rng, slots) for _ in range(25)]
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
    assert campaigns._containment_dictionary(5)[0]
    assert gl_specialization_check("gl-n3", 5)[0]
    # one complete basis over GF(5), read off the complete basis over Q
    n3x, n3x_q = (make_ideal(IdealCase("n3-x", char)).gens for char in (5, 0))
    assert [(bound, guide.gens) for gens, bound, guide in groebner_calls
            if gens == n3x] == [(None, n3x_q)]
    assert [bound for gens, bound, _ in groebner_calls if gens == n3x_q] == [None]


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
    # the n2 bases over Q and GF(5) share one staircase, and so do the n3-z
    # bases over Q, GF(5) and GF(7): one Hilbert function of each
    assert Counter(key[0] for key in {key for _, key in misses}) == {
        "build_case": 13, "case_basis": 8, "case_points": 6, "case_hilbert": 5,
        "hilbert_function": 2, "span_lattice": 2, "case_cn_reduction": 1}
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
    # the n2 basis over GF(5), the n3-z bases over GF(5) and GF(7) and the
    # complete n3-x bases over GF(5) and GF(7) are guided by the char-0
    # basis of the same bound; no other basis is.  The helper builds the
    # complete n3-x basis over Q to guide its two; as the one n3-x basis
    # per characteristic, they replace the bounded n3-x bases over GF(5)
    # (bounds 5 and 3) the helper built before, so the count stays 15
    guided = {(_gens_key(gens), bound, _gens_key(guide.gens))
              for gens, bound, guide in groebner_calls if guide is not None}
    assert guided == {(_gens_key(make_ideal(IdealCase(tag, l)).gens), bound,
                       _gens_key(make_ideal(IdealCase(tag, 0)).gens))
                      for tag, l, bound in (("n2", 5, 6), ("n3-z", 5, 5), ("n3-z", 7, 5),
                                            ("n3-x", 5, None), ("n3-x", 7, None))}


def test_verify_all_reads_every_guided_case_basis_off_its_char0_basis(groebner_calls, two_cpus):
    # in both processes: every basis over GF(l) of n2, n3-x and n3-z is
    # guided, equals its unguided run, and is read off the basis over Q
    # whole, with no pair treated
    em = Emitter()
    campaigns.verify_all(em, seed=0, trials=5)
    assert all(e.status != FAIL for e in em.entries)
    over_fl = {_gens_key(make_ideal(IdealCase(tag, l)).gens): (tag, l)
               for tag in ("n2", "n3-z", "n3-x") for l in (5, 7)}
    counts = {}
    for gens, bound, guide in groebner_calls:
        if _gens_key(gens) not in over_fl:
            continue
        tag, l = over_fl[_gens_key(gens)]
        assert guide is not None, (tag, l, bound)
        ideal = make_ideal(IdealCase(tag, l))
        guided, unguided = groebner(ideal, bound, guide=guide), groebner(ideal, bound)
        assert guided == unguided and guided.gb_lead == unguided.gb_lead
        assert guided.stats == GroebnerStats(0, 0, 0, 0), (tag, l, bound)
        counts[tag, l, bound] = len(guided.gb)
    assert counts == {("n2", 5, 6): 6, ("n3-z", 5, 5): 112, ("n3-z", 7, 5): 112,
                      ("n3-x", 5, None): 53, ("n3-x", 7, None): 53}
    cases.clear_case_memo()


def test_a_char0_basis_that_records_l_guides_no_read(groebner_calls, capsys):
    """Over GF(2) the n2 commutator entries with coefficient 2 vanish in
    degree 2, the top generator degree.  case_basis builds no guide at
    l = 2; the basis over Q, given as the guide, records 2, so nothing is
    read off it and the run over GF(2) is the unguided one."""
    argv = ["compute", "hilbert", "--case", "n2", "--char", "2", "--degree-bound", "3"]
    assert cli.main(argv) == 0 and capsys.readouterr().out == "[1, 6, 18, 38]\n"
    assert [(bound, guide) for _, bound, guide in groebner_calls] == [(3, None)]
    guide = cases.case_basis(IdealCase("n2"), 3)
    assert guide.divisors % 2 == 0
    ideal = make_ideal(IdealCase("n2", 2))
    assert polyalg._lift(ideal, 3, guide) is None
    basis, unguided = groebner(ideal, 3, guide=guide), groebner(ideal, 3)
    assert basis == unguided and basis.gb_lead == unguided.gb_lead


@pytest.mark.parametrize("tag, l, intact", [("n2", 2, False), ("n3-z", 2, False),
                                            ("n3-z", 3, False), ("n3-x", 2, True),
                                            ("n3-x", 3, True)])
def test_a_case_basis_over_gf2_or_gf3_is_the_unguided_run(groebner_calls, tag, l, intact):
    """The real cases whose bases over GF(l) at bound 4 could not be read
    off: the char-0 run records l (n2 records 2, n3-z 12 and n3-x 24),
    whether a char-0 generator vanishes mod l (n2, n3-z) or every one stays
    intact (n3-x).  So case_basis builds no guide at l = 2 and 3, and the
    basis is the unguided run's, work counters included."""
    ideal = make_ideal(IdealCase(tag, l))
    of = ideal.ring.domain.of
    assert all(any(of(c) for c in g.values())
               for g in make_ideal(IdealCase(tag)).gens) == intact
    basis, unguided = cases.case_basis(IdealCase(tag, l), 4), groebner(ideal, 4)
    assert basis == unguided and basis.gb_lead == unguided.gb_lead
    assert basis.stats == unguided.stats and unguided.stats.pairs > 0
    guides = [guide for gens, _, guide in groebner_calls if gens == ideal.gens]
    assert guides == [None]
    assert cases.case_basis(IdealCase(tag), 4).divisors % l == 0


@pytest.mark.parametrize("tag, l", [(tag, l) for tag in ("n2", "n3-z", "n3-x") for l in (2, 3)])
def test_small_prime_case_bases_equal_the_unguided_runs(tag, l):
    """The oracle grid of the lift at the primes where the read-off decision
    goes both ways: at every bound through 5, and complete for n2 and n3-x,
    the basis over GF(l) guided by the char-0 case basis equals the unguided
    run on the case's own generators over GF(l).  case_basis builds no guide
    at these primes, so the guide is passed here."""
    for bound in [*range(6), *([None] if tag != "n3-z" else [])]:
        cases.clear_case_memo()
        ideal = make_ideal(IdealCase(tag, l))
        guide = cases.case_basis(IdealCase(tag), bound)
        basis, unguided = groebner(ideal, bound, guide=guide), groebner(ideal, bound)
        assert basis == unguided, (bound, "gb, gb_bound, mingens")
        assert basis.gb_lead == unguided.gb_lead, bound
    cases.clear_case_memo()


def test_a_faulty_char0_basis_fails_the_hilbert_cross_check(monkeypatch):
    """Drop one degree-5 element from the char-0 n3-z basis.  The guided runs
    over GF(5) and GF(7) then read the faulty basis off, so their Hilbert
    functions agree with the faulty one and the flatness check passes; the
    cross check of the char-0 Hilbert function against the character side
    must fail."""
    def faulty(ideal, bound=None, guide=None):
        basis = groebner(ideal, bound, guide=guide)
        if ideal.ring.domain.characteristic:
            return basis
        k = next(k for k, (lm, _, _) in enumerate(basis.gb_lead) if sum(lm) == 5)
        return IdealBasis(basis.ring, basis.gens, basis.gb[:k] + basis.gb[k + 1:],
                          basis.gb_bound, basis.mingens,
                          basis.gb_lead[:k] + basis.gb_lead[k + 1:], basis.stats, basis.divisors)

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


def test_containment_entry_prints_the_computed_results(monkeypatch):
    # with every normal form nonzero, the entry names both failed directions
    monkeypatch.setattr(campaigns, "normal_form", lambda poly, basis: poly)
    em = Emitter()
    campaigns.ideal_campaign(em, "n3-x", 5, 3, trials=5, seed=0)
    entry = next(e for e in em.entries if e.check_id == "ideal.n3-x.c5.containment")
    assert (entry.status, entry.actual) == (FAIL, "forward False, backward False")


def _faulty_case(monkeypatch, tag, change):
    """Patch build_case in cases and campaigns so that the case `tag` reads
    its generator list through change(ring, gens); the memoized original is
    left as it is."""
    built = cases.build_case

    def faulty(case):
        data = built(case)
        if case.tag != tag:
            return data
        return cases.CaseData(data.ring, change(data.ring, list(data.gens)), data.mats)

    monkeypatch.setattr(cases, "build_case", faulty)
    monkeypatch.setattr(campaigns, "build_case", faulty)


def test_a_changed_gl_coefficient_fails_the_specialization_check(monkeypatch):
    def change(ring, gens):
        # det Phi - q, with the coefficient of f12*f21 doubled
        mono, = ring.mul(ring.var("f12"), ring.var("f21"))
        gens[5] = ring.add(gens[5], {mono: gens[5][mono]})
        return gens

    _faulty_case(monkeypatch, "gl-n2", change)
    assert gl_specialization_check("gl-n2", 5)[::2] == (False, "forward False, backward True")


def test_the_dims_hypersurface_is_read_off_the_chart_equation(monkeypatch):
    """With the q = 1 chart equation replaced by the unit generator, both
    six-variable dims ideals are the unit ideal, of Krull dimension -1."""
    def unit(q, n, char):
        rep = cases.cn_ideal_reduction(q, n, char)
        return cases.CnReport(rep.ring, [((0, 2), rep.ring.const(1))], True, "1", "1", False)

    monkeypatch.setattr(campaigns, "cn_ideal_reduction", unit)
    em = Emitter()
    campaigns.dims_campaign(em)
    got = {e.check_id: (e.status, e.actual) for e in em.entries}
    for name in ("hypersurface", "nonregular-locus"):
        assert got[f"dims.c7.{name}"] == (FAIL, "-1")


def test_the_dims_ideals_fail_with_their_chart_reduction(monkeypatch):
    """The l = 7 chart equation doubled spans the same ideal, so the Krull
    dimensions 5 and 4 hold; its reduction no longer matches a*f - c*d, and
    both dims ideals fail with it."""
    def doubled(q, n, char):
        rep = cases.cn_ideal_reduction(q, n, char)
        (pos, gen), = rep.entries
        gen = rep.ring.scale(gen, 2)
        text = rep.ring.to_text(gen)
        return cases.CnReport(rep.ring, [(pos, gen)], True, text, text,
                              gen == rep.ring.from_text("a*f - 1*d*c"))

    monkeypatch.setattr(campaigns, "cn_ideal_reduction", doubled)
    em = Emitter()
    campaigns.dims_campaign(em)
    got = {e.check_id: (e.status, e.actual) for e in em.entries}
    assert got["dims.c7.hypersurface"] == (FAIL, "5")
    assert got["dims.c7.nonregular-locus"] == (FAIL, "4")


@pytest.mark.parametrize("g, c", [(0, 0), (1, 1), (2, 2)])
def test_gl_generators_that_do_not_homogenize_fail_the_specialization_entry(monkeypatch, g, c):
    """A doubled coefficient that breaks homogenization by constant
    elimination is a failed entry, not an error that stops the campaign."""
    def change(ring, gens):
        mono = list(gens[g])[c]
        gens[g] = ring.add(gens[g], {mono: gens[g][mono]})
        return gens

    _faulty_case(monkeypatch, "gl-n2", change)
    reason = "does not homogenize: generators do not homogenize by constant elimination"
    assert gl_specialization_check("gl-n2", 5)[::2] == (False, reason)
    em = Emitter()
    campaigns.ideal_campaign(em, "gl-n2", 5, 4, trials=5, seed=0)
    entry = next(e for e in em.entries if e.check_id == "ideal.gl-n2.c5.q1-specialization")
    assert (entry.status, entry.actual) == (FAIL, reason)


# (char, degree bound) of each case's ideal_campaign in verify_all; the first
# of them for n2 and n3-z
_SWEEP_RUNS = {"n2": (0, 6), "n3-z": (0, 5), "gl-n2": (5, 4), "gl-n3": (5, 4), "cnil": (0, 4),
               "n3-x": (5, 5)}


@pytest.mark.parametrize("tag", list(_SWEEP_RUNS))
def test_a_doubled_generator_coefficient_fails_an_entry(monkeypatch, tag):
    """A sample of the generator sweep: doubling the first coefficient of
    generator 0, n//2 or n-1 of the n generators (only 0 for n3-x, where
    n//2 takes seconds) adds a fail entry to the case's campaign, and
    nothing raises.  cnil has one generator, and only its points entry
    fails."""
    char, bound = _SWEEP_RUNS[tag]
    n = len(build_case(IdealCase(tag, 0)).gens)
    for g in [0] if tag == "n3-x" else sorted({0, n // 2, n - 1}):
        def change(ring, gens):
            mono = next(iter(gens[g]))
            gens[g] = ring.add(gens[g], {mono: gens[g][mono]})
            return gens

        with monkeypatch.context() as m:
            # a memo of its own, dropped with the mutated bases and points
            m.setattr(cases, "_memo", {})
            _faulty_case(m, tag, change)
            em = Emitter()
            campaigns.ideal_campaign(em, tag, char, bound, trials=5, seed=0)
        failed = [e.check_id for e in em.entries if e.status == FAIL]
        assert failed, (tag, g)
        if tag == "cnil":
            assert failed == ["ideal.cnil.c0.points"]


@pytest.mark.parametrize("tag, k", [("gl-n2", 3), ("gl-n3", 0)])
def test_a_generator_plus_a_constant_fails_the_chart_check(monkeypatch, tag, k):
    def change(ring, gens):
        gens[k] = ring.add(gens[k], ring.const(1))
        return gens

    _faulty_case(monkeypatch, tag, change)
    passed, _, actual = chart_symbolic_check(tag)
    assert not passed and actual == f"nonzero at [{k}]"


def test_a_dropped_basis_element_fails_the_commutator_layer_check(monkeypatch):
    complete = cases.case_basis

    def faulty(case, bound):
        basis = complete(case, bound)
        if (case.tag, bound) != ("n3-x", None):
            return basis
        k = next(k for k, (lm, _, _) in enumerate(basis.gb_lead) if sum(lm) == 3)
        return IdealBasis(basis.ring, basis.gens, basis.gb[:k] + basis.gb[k + 1:],
                          basis.gb_bound, basis.mingens,
                          basis.gb_lead[:k] + basis.gb_lead[k + 1:], basis.stats, basis.divisors)

    monkeypatch.setattr(cases, "case_basis", faulty)
    passed, _, actual = commutator_layer_check(5, 3)
    assert not passed and actual != "8 new; [1, 16, 125, 638]"


def test_an_invariant_factor_of_3_fails_the_span17_check(monkeypatch):
    lattice = cases.span_lattice
    monkeypatch.setattr(cases, "span_lattice", lambda ambient: (
        *lattice(ambient)[:4], lattice(ambient)[4] + (3,)))
    for passed, _, actual in span17_check(0).values():
        assert not passed and actual == "rank 17, free 17, torsion [], snf primes [2, 3]"


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
