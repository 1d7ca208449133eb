import itertools
import random
from bisect import bisect_left
from fractions import Fraction

import pytest

from steinberg import breps, campaigns, liealg
from steinberg.fieldops import (InvariantError, field_of, mat_det, mat_mul, span_coords,
                                span_rank, vec_iadd_scaled)
from steinberg.cases import IdealCase, build_case, cn_chart, cnil_symbolic_check
from steinberg.polyalg import PolyRing
from steinberg.liealg import (W1_WEIGHTS, W2_EXTRA_WEIGHTS, BasedRep, CharacteristicError,
                              UnknownAtomError, borel_rep, build_based_rep, identity_suite,
                              p_extend_check, pure_tensor_vector, quotient_rep, restrict_to_span,
                              span_check, subspace_span, twist_rep, wedge4_campaign,
                              wedge4_quotient)
from steinberg.breps import WeightMultiset, build_rep
from steinberg.report import Emitter
from steinberg.weights import Located


def weight_multiset(rep):
    """The weights of a model as a multiset, to compare with a character."""
    return WeightMultiset(rep.weights)


def basis_vector(rep, name):
    """The basis vector of the Borel atom rep with the given name."""
    return {liealg._B_LABELS.index(name): rep.fld.one}


def test_borel_action_table():
    b = borel_rep(0)
    f = b.fld
    # e_{-nu}(t_mu) = delta_{nu,mu} f_nu
    assert b.act("ea", basis_vector(b, "ta")) == basis_vector(b, "fa")
    assert b.act("ea", basis_vector(b, "tb")) == {}
    assert b.act("eb", basis_vector(b, "tb")) == basis_vector(b, "fb")
    assert b.act("eb", basis_vector(b, "ta")) == {}
    # bracket of a root vector with itself
    assert b.act("ea", basis_vector(b, "fa")) == {}
    assert b.act("eb", basis_vector(b, "fb")) == {}
    # structure constants under the pinned matrix conventions
    assert b.act("eb", basis_vector(b, "fa")) == basis_vector(b, "fr")
    minus_fr = {k: f.neg(v) for k, v in basis_vector(b, "fr").items()}
    assert b.act("ea", basis_vector(b, "fb")) == minus_fr


def test_check_bracket_accepts_the_atom():
    for char in (0, 5, 7, 11):
        borel_rep(char).check_bracket()
    # on t_alpha: e_a e_b t_a = 0, e_b e_a t_a = f_r and e_r t_a = f_r, so
    # [e_a, e_b] = -e_r there, the recorded unit
    b = borel_rep(0)
    assert b.act("eb", b.act("ea", basis_vector(b, "ta"))) == basis_vector(b, "fr")
    assert b.act("er", basis_vector(b, "ta")) == basis_vector(b, "fr")
    # the atom's columns are written through the field, so that over Q its
    # integral entries, and those of the models built from it, are ints
    for rep in (b, build_based_rep("wedge^2(b)*wedge^2(b)", 0)):
        assert all(type(x) is int for cols in rep.ops.values() for col in cols
                   for x in col.values())


def test_characteristic_three_rejected():
    with pytest.raises(CharacteristicError):
        borel_rep(3)
    with pytest.raises(CharacteristicError):
        build_based_rep("wedge^2(b)", 3)


def test_borel_atom_is_shared_and_never_mutated(monkeypatch):
    for char in (0, 5, 7, 11):
        atom = borel_rep(char)
        assert borel_rep(char) is atom and liealg._BOREL_REPS[char] is atom
        for expr in ("b*b", "wedge^2(b)", "tw(1,0)(b)", "b + b"):
            build_based_rep(expr, char)
        with monkeypatch.context() as m:
            m.setattr(liealg, "_BOREL_REPS", {})
            fresh = borel_rep(char)
        assert atom is not fresh and atom.ops == fresh.ops
        assert atom.weights == fresh.weights
        with pytest.raises(TypeError):
            atom.ops["ea"][2][0] = atom.fld.one
    # exceptions are not stored: characteristic 3 fails on every call
    for _ in range(3):
        with pytest.raises(CharacteristicError):
            borel_rep(3)
        with pytest.raises(CharacteristicError):
            wedge4_quotient(3)
    assert 3 not in liealg._BOREL_REPS and 3 not in liealg._WEDGE4_QUOTIENTS


def _columns(rep):
    """A deep snapshot of rep's operator columns."""
    return {name: [dict(col) for col in cols] for name, cols in rep.ops.items()}


# Each grading-preserving single-entry corruption of the Borel atom (add 1 or
# 2 to an entry that the grading allows), made where borel_rep builds its
# model: prints the outcome of each, then restores the module.
_CORRUPT_THE_ATOM = """
from steinberg import liealg
from steinberg.fieldops import InvariantError

real, stored = liealg.BasedRep, dict(liealg._BOREL_REPS)


def corrupt(op, j, i, d):
    def build(fld, weights, ops):
        cols = [dict(col) for col in ops[op]]
        x = fld.add(cols[j].get(i, fld.zero), fld.of(d))
        cols[j][i] = x
        if x == fld.zero:
            del cols[j][i]
        return real(fld, weights, {**ops, op: tuple(cols)})
    return build


try:
    for char in (0, 5, 7):
        atom = liealg.borel_rep(char)
        for op, (s0, s1) in liealg.OP_WEIGHTS.items():
            for j, (w0, w1) in enumerate(atom.weights):
                for i in atom.indices_of_weight((w0 + s0, w1 + s1)):
                    for d in (1, 2):
                        liealg.BasedRep = corrupt(op, j, i, d)
                        liealg._BOREL_REPS.clear()
                        try:
                            liealg.borel_rep(char)
                            print('built', char, op, j, i, d)
                        except InvariantError as e:
                            print('raised', char, str(e).split(' at ')[0])
                        liealg.BasedRep = real
finally:
    liealg.BasedRep = real
    liealg._BOREL_REPS.clear()
    liealg._BOREL_REPS.update(stored)
"""


# 8 entries of the atom's columns keep the grading (3 of ea, 3 of eb, 2 of
# er), each corrupted by 1 and by 2: every one breaks [e_a, e_b] = -e_r
_ATOM_CORRUPTIONS_RAISED = [f"raised {char} [ea, eb] is not -er" for char in (0, 5, 7)
                            for _ in range(16)]


def test_every_grading_preserving_atom_corruption_breaks_the_bracket(capsys):
    exec(_CORRUPT_THE_ATOM, {})
    assert capsys.readouterr().out.splitlines() == _ATOM_CORRUPTIONS_RAISED
    # the script restores the stored atoms
    assert liealg._BOREL_REPS[0] is borel_rep(0)


def test_atom_corruptions_raise_under_optimize(run_python):
    done = run_python("-O", "-c", _CORRUPT_THE_ATOM)
    assert done.stdout.splitlines() == _ATOM_CORRUPTIONS_RAISED, done.stderr


def test_solved_models_check_their_brackets():
    # a model that keeps the grading but not the bracket: quotient_rep and
    # restrict_to_span reject it, also when the subspace is everything or 0
    b = borel_rep(7)
    ea = [dict(col) for col in b.ops["ea"]]
    ea[0] = {}  # e_a t_alpha = 0 instead of f_alpha
    bad = BasedRep(b.fld, b.weights, {**b.ops, "ea": tuple(ea)})
    bad.check_grading()
    with pytest.raises(InvariantError, match=r"^\[ea, eb\] is not -er at basis vector 0 "):
        quotient_rep(bad, subspace_span(bad, []))
    with pytest.raises(InvariantError, match=r"^\[ea, eb\] is not -er at basis vector 0 "):
        restrict_to_span(bad, [{i: b.fld.one} for i in range(b.dim)])


def test_check_bracket_reads_e_r_against_e_a_and_e_b():
    # v0 -> v1 -> v2 -> v3 with [e_a, e_b] = -e_r on every basis vector, but
    # [x, e_r] v0 = +-2 v3 for x the operator that starts the chain
    for x, y, weights in (("ea", "eb", ((0, 0), (-2, 1), (-1, -1), (-3, 0))),
                          ("eb", "ea", ((0, 0), (1, -2), (-1, -1), (0, -3)))):
        sign = 1 if x == "ea" else -1
        ops = {x: ({1: 1}, {}, {3: 1}, {}), y: ({}, {2: 1}, {}, {}),
               "er": ({2: sign}, {3: -sign}, {}, {})}
        rep = BasedRep(field_of(0), weights, ops)
        rep.check_grading()
        with pytest.raises(InvariantError, match=rf"^\[{x}, er\] is not 0 at basis vector 0 "):
            rep.check_bracket()


@pytest.mark.parametrize("char", [0, 7])
def test_constructions_leave_their_factors_columns_alone(char):
    factors = [build_based_rep(text, char) for text in ("b", "wedge^2(b)", "b*b", "b + b",
                                                         "tw(1,-1)(b)")]
    before = [_columns(f) for f in factors]
    for x, y in itertools.product(factors, repeat=2):
        liealg.tensor_rep(x, y)
        liealg.wedge_rep(x, 2)
        total = liealg.sum_rep(x, y)
        twist_rep(x, (2, 0))
        # the sum shares the left summand's columns
        for name in ("ea", "eb", "er"):
            assert all(total.ops[name][j] is x.ops[name][j] for j in range(x.dim))
        assert weight_multiset(total) == weight_multiset(x).add(weight_multiset(y))
    assert [_columns(f) for f in factors] == before
    # negative control: the snapshot sees a write to a column
    cols = factors[2].ops["ea"]
    j = next(k for k, col in enumerate(cols) if col)
    cols[j][next(iter(cols[j]))] = factors[2].fld.zero
    assert _columns(factors[2]) != before[2]


def test_unknown_atom_rejected():
    with pytest.raises(UnknownAtomError):
        build_based_rep("g")
    # the messages name the construction
    for text, name in (("F(1,0)", "F(a,b)"), ("sym^2(b)", "sym^k"), ("dual(b) + b", "dual")):
        with pytest.raises(UnknownAtomError) as raised:
            build_based_rep(text)
        assert str(raised.value) == f"no explicit action stored for {name}"


def test_based_rep_matches_character_level():
    for expr in ("b", "wedge^2(b)", "b*b", "wedge^2(b)*wedge^2(b)", "tw(1,0)(b)", "b + b"):
        rep = build_based_rep(expr, 0)
        assert weight_multiset(rep) == build_rep(expr)
    assert build_based_rep("wedge^2(b)*wedge^2(b)", 0).dim == 100


def test_a_wide_flat_sum_is_modelled(monkeypatch):
    # a + chain is one sum of all of its terms, however many there are
    calls = []
    sum_rep, add = liealg.sum_rep, WeightMultiset.add
    monkeypatch.setattr(liealg, "sum_rep", lambda *terms: calls.append(("model", len(terms)))
                        or sum_rep(*terms))
    monkeypatch.setattr(breps._Characters, "sum", staticmethod(
        lambda *terms: calls.append(("character", len(terms))) or add(*terms)))
    monkeypatch.setattr(breps, "store", {})
    text = " + ".join(["b"] * 2400)
    for char in (0, 5):
        rep = build_based_rep(text, char)
        assert rep.dim == 12000 and weight_multiset(rep) == build_rep(text)
    # the character is built once, then read from the store
    assert calls == [("model", 2400), ("character", 2400), ("model", 2400)]


def test_operator_weight_shifts():
    b = borel_rep(0)
    # image of e_{-alpha} lands in the source weight minus alpha
    for j, w in enumerate(b.weights):
        img = b.act("ea", {j: b.fld.one})
        for i in img:
            assert b.weights[i] == (w[0] - 2, w[1] + 1)


def test_identity_suite_fields():
    for char in (0, 5):
        em = Emitter()
        identity_suite(em, char)
        assert len(em.entries) == 17
        assert len({e.check_id for e in em.entries}) == 17
        for e in em.entries:
            assert e.check_id.startswith(f"identities.c{char}.id"), e
            assert e.status == "pass", e
            assert e.actual == f"unit {field_of(char).one}", e
            assert (e.expected, e.paper_anchor) == ("identity up to a unit", "calc:wedge4")


def test_identity_suite_negative_control(monkeypatch):
    # id2 with its bracket coefficient doubled fails in all four variants
    base = [row if row[0] != "id2" else row[:3] + (2 * row[3],) + row[4:]
            for row in liealg._BASE_IDENTITIES]
    assert base != liealg._BASE_IDENTITIES
    monkeypatch.setattr(liealg, "_BASE_IDENTITIES", base)
    for char in (0, 5):
        em = Emitter()
        identity_suite(em, char)
        pre = f"identities.c{char}."
        failed = sorted(e.check_id for e in em.entries if e.status == "fail")
        assert failed == [pre + name for name in ("id2", "id2.conj", "id2.swap", "id2.swap.conj")]
        assert sum(e.status == "pass" for e in em.entries) == 13
        for e in em.entries:
            if e.status == "fail":
                assert e.actual.startswith("no unit in {1,-1} matches: lhs="), e


def test_span_check():
    dim, joint, rank_alpha, rank_beta = span_check(0)
    assert dim == 17
    assert joint == 17
    assert rank_alpha < 17 and rank_beta < 17


def test_span_single_image_rank_oracle_f7():
    # independent rank computation over GF(7) by dense elimination
    quo = wedge4_quotient(7)
    V = quo.rep
    idx = V.indices_of_weight((0, -3))  # -rho - beta
    cols = []
    for i in idx:
        img = V.act("ea", {i: V.fld.one})
        cols.append([img.get(k, 0) for k in range(V.dim)])
    rank = _rank_mod(cols, 7)
    _, _, rank_alpha, _ = span_check(7)
    assert rank_alpha == rank < 17


def _rank_mod(rows, p):
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p:
                k = rows[i][c]
                rows[i] = [(x - k * y) % p for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def test_ea_squared_coefficient():
    big = build_based_rep("wedge^2(b)*wedge^2(b)", 0)
    fld = big.fld
    v = pure_tensor_vector(big, (("fr", "fb"), ("fb", "ta")))
    target = pure_tensor_vector(big, (("fr", "fb"), ("fr", "fa")))
    ea2 = big.act("ea", big.act("ea", v))
    # coefficient 2 with the recorded unit -1 under the pinned conventions
    assert ea2 == {k: fld.of(-2) * c for k, c in target.items()}


def test_p_extend_check():
    fld = field_of(7)
    # 1-dimensional trivial chain: weight pairing 0 = dim - 1
    triv = BasedRep(fld, ((0, 0),), {"ea": ({},), "eb": ({},), "er": ({},)})
    assert p_extend_check(triv, 7).ok
    # any rep where e_r acts nonzero fails
    bad = BasedRep(fld, ((1, 0), (0, -1)),
                   {"ea": ({}, {}), "eb": ({}, {}), "er": ({1: fld.one}, {})})
    cert = p_extend_check(bad, 7)
    assert not cert.ok and cert.reason == "er acts nonzero on basis vector 0 of weight (1, 0)"
    # 2-chain with top pairing 1
    chain = BasedRep(fld, ((1, 0), (-1, 1)),
                     {"ea": ({1: fld.one}, {}), "eb": ({}, {}), "er": ({}, {})})
    cert = p_extend_check(chain, 7)
    assert cert.ok and len(cert.chain) == 2
    # dimension bound
    assert not p_extend_check(chain, 1).ok


def test_wedge4_campaign_passes():
    for char in (0, 5):
        em = Emitter()
        wedge4_campaign(em, char)
        assert em.entries
        assert all(e.check_id.startswith(f"identities.c{char}.wedge4.") for e in em.entries)
        assert all(e.status == "pass" for e in em.entries), \
            [e for e in em.entries if e.status != "pass"]


def test_a_length_three_kernel_weight_fails_kernel_psupp3(monkeypatch):
    # negative control: the campaign locates the kernel weights, v's first;
    # one of them placed at length 3 inside the alcove must fail the entry
    datum = liealg.A2
    locate, asked = datum.locate, []
    monkeypatch.setattr(datum, "locate", lambda mu, l: asked.append(mu) or locate(mu, l))
    wedge4_campaign(Emitter(), 7)
    bad = asked[0]
    w0 = next(w for w in datum.weyl if w.length == 3)
    monkeypatch.setattr(datum, "locate",
                        lambda mu, l: Located(w0, (0, 0)) if mu == bad else locate(mu, l))
    em = Emitter()
    wedge4_campaign(em, 7)
    entry = next(e for e in em.entries if e.check_id == "identities.c7.wedge4.kernel-psupp3(v)")
    assert entry.status == "fail" and str(bad) in entry.actual, entry
    assert all(e.status == "pass" for e in em.entries if "kernel-psupp3" not in e.check_id)


def test_quotient_weights():
    quo = wedge4_quotient(0)
    ms = weight_multiset(quo.rep)
    assert ms.multiplicity((-2, -2)) == 17
    assert ms.multiplicity((0, -3)) == 14
    assert ms.multiplicity((-3, 0)) == 14
    assert ms.dimension == 45


def _wedge4_quotient_by_coordinates(char):
    """V = W2/W1 read off the coordinates: W1 and W2 are spans of
    weight-basis vectors, so V's basis is the ambient coordinates of weight in
    W2_EXTRA_WEIGHTS, and its columns are the ambient columns with the W1
    coordinates dropped.  Returns the ambient, V's ambient coordinates and V."""
    big = build_based_rep("wedge^2(b)*wedge^2(b)", char)
    w1 = {i for i, w in enumerate(big.weights) if w in W1_WEIGHTS}
    coords = tuple(i for i, w in enumerate(big.weights) if w in W2_EXTRA_WEIGHTS)
    pos = {c: k for k, c in enumerate(coords)}
    ops = {}
    for op, cols in big.ops.items():
        # W1 is stable, and W2 is stable modulo W1
        assert all(cols[c].keys() <= w1 for c in w1)
        assert all(cols[c].keys() <= w1 | pos.keys() for c in coords)
        ops[op] = tuple({pos[i]: x for i, x in cols[c].items() if i in pos} for c in coords)
    return big, coords, BasedRep(big.fld, tuple(big.weights[c] for c in coords), ops)


@pytest.mark.parametrize("char", [0, 5, 7])
def test_wedge4_quotient_matches_the_echelon_route(char):
    # the library solves V by elimination; the oracle reads it off coordinates
    big, coords, oracle = _wedge4_quotient_by_coordinates(char)
    w1 = subspace_span(big, [{i: big.fld.one} for i, w in enumerate(big.weights)
                             if w in W1_WEIGHTS])
    quo = wedge4_quotient(char)
    assert quo.coords == coords
    assert quo.rep.weights == oracle.weights
    assert quo.rep.ops == oracle.ops
    assert quo.ambient.ops == big.ops
    # project reads coordinates where the oracle reduces modulo the W1 echelon
    rng = random.Random(char)
    fld = big.fld
    w2 = [i for i, w in enumerate(big.weights) if w in W1_WEIGHTS | W2_EXTRA_WEIGHTS]
    pos = {c: k for k, c in enumerate(coords)}
    for _ in range(20):
        v = {i: fld.of(rng.randrange(1, 5)) for i in rng.sample(w2, 6)}
        assert quo.project(v) == {pos[i]: x for i, x in w1.reduce(v).items()}
    outside = next(i for i, w in enumerate(big.weights) if w == (-4, 2))
    with pytest.raises(InvariantError, match="outside W2"):
        quo.project({outside: fld.one})


def test_wedge4_quotient_stability_checks_run_under_optimize(run_python):
    # without -3rho, W1 is not stable (e_a maps -2rho-beta there); without
    # -rho-2alpha, W2 is not stable modulo W1 (e_a maps -rho-alpha there)
    script = (
        "from steinberg import liealg\n"
        "from steinberg.fieldops import InvariantError\n"
        "full = liealg.W1_WEIGHTS\n"
        "for drop in ((-3, -3), (-5, 1)):\n"
        "    liealg.W1_WEIGHTS = full - {drop}\n"
        "    try:\n"
        "        liealg._WEDGE4_QUOTIENTS.clear()\n"
        "        liealg.wedge4_quotient(0)\n"
        "        print('built')\n"
        "    except InvariantError as e:\n"
        "        print('raised', e)\n"
    )
    done = run_python("-O", "-c", script)
    lines = done.stdout.splitlines()
    assert len(lines) == 2, done.stderr
    # quotient_rep finds W1 unstable, restrict_to_span W2 unstable modulo W1
    assert lines[0].startswith("raised subspace not operator-stable: ea moves row ")
    assert lines[1].startswith("raised span is not operator stable: ea moves vector ")


def test_identity_span_and_chain_checks_share_one_model_per_characteristic(monkeypatch):
    builds = []
    build = liealg.build_based_rep

    def counting(expr, char=0):
        if expr == "wedge^2(b)*wedge^2(b)":
            builds.append(char)
        return build(expr, char)

    monkeypatch.setattr(liealg, "build_based_rep", counting)
    monkeypatch.setattr(liealg, "_WEDGE4_QUOTIENTS", {})
    em = Emitter()
    for char in (0, 5, 7):
        campaigns.identities_campaign(em, char)
    for char in (0, 5):
        campaigns.span_campaign(em, char)
    assert builds == [0, 5, 7]
    assert wedge4_quotient(5) is wedge4_quotient(5)


def test_cn_ideal_reduction_symbolic():
    data = build_case(IdealCase("cnil"))
    # the chart's one entry, before the recorded unit rescaling
    assert [data.ring.to_text(g) for g in data.gens] == ["-1*q*c*d + 1*q^2*e - 1*q*e + 1*a*f"]
    assert cnil_symbolic_check() == (
        True, "single generator; normalized form q^2*e - e + a*f - d*c",
        "raw -1*q*c*d + 1*q^2*e - 1*q*e + 1*a*f; normalized 1*q^2*e - 1*c*d + 1*a*f - 1*e")


def _numeric_chart(n, q, char):
    """The oracle: the nonzero entries of (Phi0 + M) N - q N (Phi0 + M) with
    the number q, in the ring of the matrix entries alone, by explicit sums
    over the matrix products."""
    spots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    ring = PolyRing([*"abc"[:len(spots)], *"def"[:len(spots)]], char)
    qc = ring.const(q)
    phi = [[ring.const(q ** (n - 1 - i)) if i == j else {} for j in range(n)] for i in range(n)]
    nil = [[{} for _ in range(n)] for _ in range(n)]
    for (i, j), a, d in zip(spots, "abc", "def"):
        phi[i][j], nil[i][j] = ring.var(a), ring.var(d)
    out = []
    for i in range(n):
        for j in range(n):
            entry = {}
            for k in range(n):
                entry = ring.add(entry, ring.mul(phi[i][k], nil[k][j]))
                entry = ring.sub(entry, ring.mul(qc, ring.mul(nil[i][k], phi[k][j])))
            if entry:
                out.append(entry)
    return ring, out


def test_cn_ideal_reduction_specializations():
    """The symbolic chart at q = 1, 2, 3 (r = 1/q) over Q, F5 and F7 against
    the chart built with that number q; the n = 2 chart has no entries."""
    for char in (0, 5, 7):
        for n in (2, 3):
            src, entries = cn_chart(n, char)
            for q in (1, 2, 3):
                ring, want = _numeric_chart(n, q, char)
                images = {"q": ring.const(q), "r": ring.const(Fraction(1, q))}
                assert [src.substitute(e, images, ring) for e in entries] == want, (n, q, char)
                assert len(want) == n - 2
    texts = {}
    for q, char in ((1, 0), (1, 5), (1, 7), (2, 0), (3, 0), (2, 5)):
        ring, (gen,) = _numeric_chart(3, q, char)
        texts[q, char] = ring.to_text(gen)
    assert texts == {(1, 0): "-1*c*d + 1*a*f", (1, 5): "4*c*d + 1*a*f", (1, 7): "6*c*d + 1*a*f",
                     (2, 0): "-2*c*d + 1*a*f + 2*e", (3, 0): "-3*c*d + 1*a*f + 6*e",
                     (2, 5): "3*c*d + 1*a*f + 2*e"}


def test_restrict_to_span_round_trip():
    b = borel_rep(0)
    sub = restrict_to_span(b, [basis_vector(b, label) for label in ("fa", "fb", "fr")])
    assert sub.dim == 3
    assert weight_multiset(sub).multiplicity((-1, -1)) == 1
    tw = twist_rep(sub, (1, 1))
    assert weight_multiset(tw).multiplicity((0, 0)) == 1


def test_restrict_to_span_rejects_dependent_and_unstable_spans():
    b = borel_rep(0)
    fa, fb = basis_vector(b, "fa"), basis_vector(b, "fb")
    with pytest.raises(ValueError, match="independent"):
        restrict_to_span(b, [fa, fa])
    # e_a f_b = -f_r leaves the span of f_b
    with pytest.raises(InvariantError, match="operator stable: ea moves vector 0 out"):
        restrict_to_span(b, [fb])


@pytest.mark.parametrize("char", [0, 7])
def test_span_coords_solves_and_rejects(char):
    rng = random.Random(0)
    fld = field_of(char)
    solved = 0
    for _ in range(20):
        vecs = [{i: fld.of(rng.randrange(1, 7)) for i in rng.sample(range(8), 4)} for _ in range(3)]
        if span_rank(fld, vecs) < 3:
            with pytest.raises(ValueError, match="independent"):
                span_coords(fld, vecs)
            continue
        coords = span_coords(fld, vecs)
        want = {k: fld.of(rng.randrange(1, 7)) for k in rng.sample(range(3), 2)}
        w: dict = {}
        for k, c in want.items():
            vec_iadd_scaled(fld, w, vecs[k], c)
        assert coords(w) == want
        solved += 1
        # off the span: a unit vector outside it, alone and added to w, and
        # a coordinate no vector uses
        off = next(i for i in range(8) if span_rank(fld, vecs + [{i: fld.one}]) == 4)
        assert coords({off: fld.one}) is None
        vec_iadd_scaled(fld, w, {off: fld.one}, fld.one)
        assert coords(w) is None
        assert coords({8: fld.one}) is None
    assert solved >= 10
    u = {0: fld.one, 3: fld.of(2)}
    with pytest.raises(ValueError, match="independent"):
        span_coords(fld, [u, {1: fld.one}, {i: fld.mul(fld.of(3), x) for i, x in u.items()}])


def test_matrix_helpers_mod_p_match_integer_formulas():
    p = 2**31 - 1
    fld = field_of(p)
    rng = random.Random(0)
    for n in (2, 3):
        for _ in range(10):
            a = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            b = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            prod = [[sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n)]
                    for i in range(n)]
            assert mat_mul(fld, a, b) == prod
            if n == 2:
                det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
            else:
                det = (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
                       - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
                       + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))
            assert mat_det(fld, a) == det % p


def test_symbolic_generator_specializes_at_q_one():
    gen, = build_case(IdealCase("cnil")).gens
    src = PolyRing(("q", "r", "a", "b", "c", "d", "e", "f"), 0)
    dst = PolyRing(("a", "b", "c", "d", "e", "f"), 0)
    images = {"q": dst.const(1), "r": dst.const(1)}
    specialized = src.substitute(gen, images, dst)
    assert specialized == dst.from_text("1*a*f - 1*c*d")


def _oracle_tensor(fld, a, b):
    """Dense columns of e (x) 1 + 1 (x) e on A (x) B, basis index i * dim B + j,
    from dense columns a and b of the factors' operators."""
    na, nb = len(a), len(b)
    out = []
    for k in range(na):
        for m in range(nb):
            col = [fld.zero] * (na * nb)
            for i in range(na):
                col[i * nb + m] = fld.add(col[i * nb + m], a[k][i])
            for j in range(nb):
                col[k * nb + j] = fld.add(col[k * nb + j], b[m][j])
            out.append(col)
    return out


def _oracle_wedge(fld, a, power):
    """Dense columns of the derivation on wedge^power(A), basis the increasing
    index tuples in lexicographic order: each factor in turn is replaced by its
    image, and the wedge is sorted with the sign of its inversion count."""
    n = len(a)
    combos = [c for c in itertools.product(range(n), repeat=power)
              if all(x < y for x, y in zip(c, c[1:]))]
    index = {c: k for k, c in enumerate(combos)}
    out = []
    for c in combos:
        col = [fld.zero] * len(combos)
        for s in range(power):
            for m in range(n):
                x = a[c[s]][m]
                word = c[:s] + (m,) + c[s + 1:]
                if x == fld.zero or len(set(word)) < power:
                    continue
                inversions = sum(word[p] > word[q] for p in range(power)
                                 for q in range(p + 1, power))
                r = index[tuple(sorted(word))]
                col[r] = fld.add(col[r], fld.neg(x) if inversions % 2 else x)
        out.append(col)
    return out


LEIBNIZ_ORACLES = {
    "b*b": lambda fld, b: _oracle_tensor(fld, b, b),
    "wedge^2(b)": lambda fld, b: _oracle_wedge(fld, b, 2),
    "wedge^3(b)": lambda fld, b: _oracle_wedge(fld, b, 3),
    "wedge^2(b*b)": lambda fld, b: _oracle_wedge(fld, _oracle_tensor(fld, b, b), 2),
    "wedge^2(b)*b": lambda fld, b: _oracle_tensor(fld, _oracle_wedge(fld, b, 2), b),
}


def test_tensor_and_wedge_satisfy_leibniz():
    # each operator of a derived model, column by column, against dense
    # matrices built from the Borel atom by the Leibniz rule alone; over GF(p)
    # every entry must be the field element itself, negations mod p included
    for char in (0, 5, 7):
        atom = borel_rep(char)
        fld = atom.fld
        for text, oracle in LEIBNIZ_ORACLES.items():
            model = build_based_rep(text, char)
            for name in ("ea", "eb", "er"):
                dense = [[col.get(i, fld.zero) for i in range(atom.dim)]
                         for col in atom.ops[name]]
                want = oracle(fld, dense)
                assert len(model.ops[name]) == len(want) == model.dim, (text, char)
                for j, (got, col) in enumerate(zip(model.ops[name], want)):
                    assert got == {i: x for i, x in enumerate(col) if x != fld.zero}, (
                        text, char, name, j)
                    if char:
                        assert all(type(x) is int and 0 < x < char for x in got.values())


def _tuple_wedge_columns(a, j, name):
    """Reference for wedge_rep's columns on sorted index tuples: moving the
    acted-on slot to the front and sorting m into the rest at pos gives the
    sign (-1)^(slot + pos); a repeat gives 0."""
    combos = list(itertools.combinations(range(a.dim), j))
    index = {c: k for k, c in enumerate(combos)}
    cols = []
    for c in combos:
        col = {}
        for slot, i in enumerate(c):
            rest = c[:slot] + c[slot + 1:]
            for m, coeff in a.ops[name][i].items():
                pos = bisect_left(rest, m)
                if pos < len(rest) and rest[pos] == m:
                    continue
                k = index[rest[:pos] + (m,) + rest[pos:]]
                col[k] = a.fld.neg(coeff) if (slot + pos) & 1 else coeff
        cols.append(col)
    return combos, cols


@pytest.mark.parametrize("char", [0, 5])
def test_bitmask_wedge_matches_the_tuple_reference(char):
    # same columns, same entries, written in the same order
    for text in ("b", "b*b", "b + b", "wedge^2(b)"):
        base = build_based_rep(text, char)
        for j in range(5):
            model = liealg.wedge_rep(base, j)
            for name in ("ea", "eb", "er"):
                combos, cols = _tuple_wedge_columns(base, j, name)
                assert [list(col.items()) for col in model.ops[name]] == \
                    [list(col.items()) for col in cols], (text, j, name)
            assert model.weights == tuple((sum(base.weights[i][0] for i in c),
                                           sum(base.weights[i][1] for i in c)) for c in combos)


def test_a_mutated_column_is_rejected_naming_its_label():
    # a factor column that breaks the grading: the product's grading check
    # raises with the index and the weight of the product basis vector
    for make, build in ((lambda x: liealg.tensor_rep(x, borel_rep(0)), "tensor"),
                        (lambda x: liealg.wedge_rep(x, 2), "wedge")):
        x = build_based_rep("b * b", 0)
        bad = next(j for j, col in enumerate(x.ops["eb"]) if col)
        x.ops["eb"][bad][bad] = x.fld.one
        with pytest.raises(InvariantError, match="eb breaks the weight grading at ") as raised:
            make(x)
        # the first column that breaks is the first one built on column bad
        if build == "tensor":
            index, weight = bad * borel_rep(0).dim, x.weights[bad]
        else:
            combos = list(itertools.combinations(range(x.dim), 2))
            first = min(c for c in combos if bad in c)
            index = combos.index(first)
            weight = tuple(a + b for a, b in zip(*(x.weights[i] for i in first)))
        assert str(raised.value).endswith(f" at basis vector {index} of weight {weight}"), (
            build, str(raised.value))


def _tuple_tensor(a, b):
    """Reference for tensor_rep on index pairs (i, j): e(x (x) y) is e(x) (x) y
    then x (x) e(y), each entry written once.  Returns the weights and each
    operator's columns as item lists."""
    pairs = [(i, j) for i in range(a.dim) for j in range(b.dim)]
    index = {p: k for k, p in enumerate(pairs)}
    weights = tuple(tuple(x + y for x, y in zip(a.weights[i], b.weights[j])) for i, j in pairs)
    ops = {}
    for name in ("ea", "eb", "er"):
        cols = []
        for i, j in pairs:
            col = {index[i2, j]: c for i2, c in a.ops[name][i].items()}
            for j2, c in b.ops[name][j].items():
                col[index[i, j2]] = c
            cols.append(list(col.items()))
        ops[name] = cols
    return weights, ops


def _tensor_as_reference(model):
    return model.weights, {name: [list(col.items()) for col in model.ops[name]]
                           for name in ("ea", "eb", "er")}


@pytest.mark.parametrize("char", [0, 7])
def test_tensor_matches_the_tuple_reference(char):
    # same weights and columns, entries written in the same order
    for left, right in (("b", "b"), ("b", "b + b"), ("wedge^2(b)", "b")):
        a, b = build_based_rep(left, char), build_based_rep(right, char)
        model = liealg.tensor_rep(a, b)
        want = _tuple_tensor(a, b)
        assert _tensor_as_reference(model) == want, (left, right)
        # negative control: the same entries in another order differ
        flipped = BasedRep(model.fld, model.weights,
                           {name: tuple(dict(reversed(col.items())) for col in cols)
                            for name, cols in model.ops.items()})
        assert flipped.ops == model.ops
        assert _tensor_as_reference(flipped) != want, (left, right)


def test_a_weight_preserving_operator_is_rejected_by_the_grading_check(run_python):
    # ea maps each of x, y to a multiple of itself: the model breaks the
    # grading, so tensor and wedge columns meet on their own basis vector.  In
    # the wedge column of x^y the two terms are 1 and -1; summed they would
    # cancel, and the entry written there must still be rejected
    script = (
        "from steinberg.fieldops import InvariantError, field_of\n"
        "from steinberg.liealg import BasedRep, tensor_rep, wedge_rep\n"
        "rep = BasedRep(field_of(0), ((0, 0), (0, 0)),\n"
        "               {'ea': ({0: 1}, {1: -1}), 'eb': ({}, {}), 'er': ({}, {})})\n"
        "for build in (lambda: tensor_rep(rep, rep), lambda: wedge_rep(rep, 2)):\n"
        "    try:\n"
        "        build()\n"
        "    except InvariantError as e:\n"
        "        print('raised', e)\n"
    )
    # the first column that breaks is x (x) x, resp. x ^ y: index 0 in both
    lines = ["raised ea breaks the weight grading at basis vector 0 of weight (0, 0)"] * 2
    for flags in ((), ("-O",)):
        done = run_python(*flags, "-c", script)
        assert done.stdout.splitlines() == lines, done.stderr


@pytest.mark.parametrize("char", [5, 7, 11])
def test_models_mod_p_reduce_the_rational_model(char):
    # tensor_rep and wedge_rep write each column entry once, a factor's entry
    # or its negation, so over GF(p) every entry must be the rational entry mod
    # p, in 1..p-1, with the entries that vanish mod p dropped
    fld = field_of(char)
    for text in ("wedge^2(b*b)", "wedge^2(b)*wedge^2(b)", "wedge^3(b) + tw(1,0)(b*b)"):
        over_q, over_p = build_based_rep(text, 0), build_based_rep(text, char)
        for name in ("ea", "eb", "er"):
            for col_q, col_p in zip(over_q.ops[name], over_p.ops[name], strict=True):
                assert all(x != 0 for x in col_q.values())
                assert col_p == {k: r for k, x in col_q.items() if (r := fld.of(x))}
                assert all(0 < x < char for x in col_p.values())


def test_unstable_quotient_raises_without_assert(run_python):
    # span(t_alpha) is not stable, since e_a t_alpha = f_alpha; the check is an
    # InvariantError, so it also runs under -O
    script = (
        "from steinberg.fieldops import InvariantError\n"
        "from steinberg.liealg import borel_rep, quotient_rep, subspace_span\n"
        "b = borel_rep(0)\n"
        "sub = subspace_span(b, [{0: b.fld.one}])\n"
        "try:\n"
        "    quotient_rep(b, sub)\n"
        "except InvariantError as e:\n"
        "    print('raised', e)\n"
    )
    done = run_python("-O", "-c", script)
    assert done.stdout.startswith("raised subspace not operator-stable"), done.stderr
