import itertools
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from steinberg.breps import WeightMultiset
from steinberg.bwb import GrothendieckElement, NotBWBGood, bwb_good, euler_char, psupp
from steinberg.fieldops import PrimeField, is_prime
from steinberg.weights import (_SMALL_BOUNDS, A1, A2, ALPHA, BETA, L1, L2, L3, PLACEMENTS_CAP,
                               RHO, ClassGroupElement, Located, OutsideLocus, RootDatum, Singular,
                               WeylElement, check_bound, class_reduce, iota, self_dual_classes)


def element(datum, name):
    """The Weyl element of datum with the given reduced word ("e" for 1)."""
    return next(w for w in datum.weyl if w.name == name)


def test_root_table_identities():
    assert RHO == (1, 1)
    assert ALPHA == (2, -1)
    assert BETA == (-1, 2)
    assert A2.add(ALPHA, BETA) == RHO
    assert A2.sub(L1, L2) == ALPHA and A2.sub(L2, L3) == BETA
    assert A2.pairing((5, -3), A2.positive_coroots[0]) == 5
    assert A2.pairing((5, -3), A2.positive_coroots[1]) == -3


def test_weyl_group_structure():
    lengths = sorted(w.length for w in A2.weyl)
    assert lengths == [0, 1, 1, 2, 2, 3]
    # faithful group of order 6: all matrices distinct, closed under product
    mats = {w.matrix for w in A2.weyl}
    assert len(mats) == 6
    for w1 in A2.weyl:
        for w2 in A2.weyl:
            assert _ref_compose(A2, w1, w2).matrix in mats


def test_dot_action_examples():
    e = element(A2, "e")
    assert A2.dot_action(e, (4, -7)) == (4, -7)
    # s_alpha . 0 = -alpha, since s_alpha(rho) = rho - alpha
    sa = element(A2, "sa")
    assert sa.act(RHO) == A2.sub(RHO, ALPHA)
    assert A2.dot_action(sa, (0, 0)) == (-2, 1)
    # w0 . (-2 rho) = 0: oracle by enumerating all six elements
    hits = [w for w in A2.weyl if A2.dot_action(w, (-2, -2)) == (0, 0)]
    assert [w.length for w in hits] == [3]


def test_dot_action_group_law():
    rng = random.Random(11)
    lams = [(rng.randrange(-9, 10), rng.randrange(-9, 10)) for _ in range(12)]
    for w1 in A2.weyl:
        for w2 in A2.weyl:
            w12 = _ref_compose(A2, w1, w2)
            for lam in lams:
                assert A2.dot_action(w1, A2.dot_action(w2, lam)) == A2.dot_action(w12, lam)


def test_locate_examples():
    assert A2.locate((0, 0), 5) == Located(element(A2, "e"), (0, 0))
    assert isinstance(A2.locate((-1, -1), 5), Singular)
    res = A2.locate((-2, 1), 5)
    assert isinstance(res, Located) and res.w.name == "sa" and res.lam == (0, 0)


def test_locate_brute_force_oracle():
    # oracle: try every Weyl element by undotted matrix action on mu + rho
    for a in range(-7, 8):
        for b in range(-7, 8):
            mu = (a, b)
            shifted = A2.add(mu, RHO)
            singular = any(A2.pairing(shifted, c) == 0 for c in A2.positive_coroots)
            doms = []
            for w in A2.weyl:
                img = _ref_inverse(A2, w).act(shifted)
                if all(x >= 1 for x in img):
                    doms.append((w, A2.sub(img, RHO)))
            res = A2.locate(mu, 0)
            if singular:
                assert doms == [] and isinstance(res, Singular)
            else:
                assert len(doms) == 1
                assert isinstance(res, Located)
                assert (res.w, res.lam) == doms[0]


def test_locate_outside_locus():
    res = A2.locate((5, 5), 5)
    assert isinstance(res, OutsideLocus)
    assert isinstance(A2.locate((5, 5), 13), Located)  # pairing with rho-vee is 12
    with pytest.raises(ValueError):
        A2.locate((0, 0), 4)  # 4 is not prime


def test_one_primality_rule_for_fields_and_bounds():
    # an Eratosthenes sieve is the oracle
    top = 200
    sieve = [False, False] + [True] * (top - 1)
    for d in range(2, top + 1):
        if sieve[d]:
            for k in range(d * d, top + 1, d):
                sieve[k] = False
    for n in range(-3, top + 1):
        prime = n >= 2 and sieve[n]
        assert is_prime(n) == prime, n
        if n != 0:
            try:
                check_bound(n)
            except ValueError:
                assert not prime, n
            else:
                assert prime, n
    with pytest.raises(ValueError, match="not prime"):
        PrimeField(91)


def test_small_bounds_are_zero_and_the_primes_below_100():
    primes = sorted(_SMALL_BOUNDS - {0})
    assert 0 in _SMALL_BOUNDS
    assert all(is_prime(p) for p in primes)
    assert primes == list(sympy.primerange(2, 100))
    for l in _SMALL_BOUNDS:
        check_bound(l)
    # the set answers for ints only: 5.0 hashes like 5 and still fails as before
    with pytest.raises(TypeError):
        check_bound(5.0)


def test_bwb_locus_membership():
    # mu is in the BWB locus at l iff place(mu)[0] <= l
    assert A2.place((0, 0))[0] <= 5
    assert A2.place((-2, 1))[0] <= 5
    assert not A2.place((5, 5))[0] <= 5
    # 2rho is outside for l = 5, inside for l = 7
    assert not A2.place((2, 2))[0] <= 5
    assert A2.place((2, 2))[0] <= 7


def test_sl2_datum():
    assert A1.rho == (1,)
    assert sorted(w.length for w in A1.weyl) == [0, 1]
    assert A1.dot_action(element(A1, "sa"), (-2,)) == (0,)
    assert isinstance(A1.locate((-1,), 0), Singular)


def test_class_reduce_examples():
    assert class_reduce((3, -3)) == ClassGroupElement(0, 0)
    assert class_reduce((0, 0)) == ClassGroupElement(0, 0)
    assert class_reduce(RHO) == ClassGroupElement(2, 1)
    c = ClassGroupElement(1, 1)
    assert c != (1, 1) and str(c) == "(1, 1 mod 3)"
    assert repr(c) == "ClassGroupElement(free_part=1, torsion_part=1)"
    for torsion in (3, -1):
        with pytest.raises(ValueError, match="reduced mod 3"):
            ClassGroupElement(0, torsion)


def test_class_reduce_kernel_box():
    for a in range(-30, 31):
        for b in range(-30, 31):
            in_kernel = class_reduce((a, b)) == ClassGroupElement(0, 0)
            assert in_kernel == ((a, b) in {(3 * k, -3 * k) for k in range(-10, 11)})


def test_class_reduce_homomorphism():
    rng = random.Random(5)
    for _ in range(200):
        x = (rng.randrange(-40, 41), rng.randrange(-40, 41))
        y = (rng.randrange(-40, 41), rng.randrange(-40, 41))
        s = class_reduce(A2.add(x, y))
        cx, cy = class_reduce(x), class_reduce(y)
        assert s.free_part == cx.free_part + cy.free_part
        assert s.torsion_part == (cx.torsion_part + cy.torsion_part) % 3


def test_iota_involution():
    assert iota(RHO) == RHO
    for a in range(-10, 11):
        for b in range(-10, 11):
            assert iota(iota((a, b))) == (a, b)
    # lattice automorphism
    assert iota(A2.add((2, 5), (-1, 3))) == A2.add(iota((2, 5)), iota((-1, 3)))


def test_self_dual_classes():
    sd = self_dual_classes(RHO)
    assert len(sd) == 3
    assert [rep for _, rep in sd] == [(1, 0), (0, 1), (2, -1)]
    for cls, rep in sd:
        assert class_reduce(A2.sub(RHO, rep)) == class_reduce(iota(rep))
        assert class_reduce(rep) == cls
    # oracle: coset enumeration over a box finds exactly these three classes
    found = set()
    for a in range(-12, 13):
        for b in range(-12, 13):
            if class_reduce(A2.sub(RHO, (a, b))) == class_reduce(iota((a, b))):
                c = class_reduce((a, b))
                found.add((c.free_part, c.torsion_part))
    assert found == {(1, 0), (1, 1), (1, 2)}


def test_corrupted_tables_raise_without_assert(run_python):
    # the table checks raise InvariantError, so they also run under -O
    script = (
        "from steinberg.fieldops import InvariantError\n"
        "from steinberg.weights import RootDatum, WeylElement\n"
        "def corrupt(name, edit, probe):\n"
        "    d = RootDatum(2)\n"
        "    edit(d)\n"
        "    try:\n"
        "        probe(d)\n"
        "    except InvariantError:\n"
        "        print(name, 'raised')\n"
        "def lengthen_sa(d):\n"
        "    d.weyl = tuple(WeylElement(w.name, 2, w.matrix) if w.name == 'sa' else w\n"
        "                   for w in d.weyl)\n"
        "def shift_rho(d):\n"
        "    d.rho = (1, 2)\n"
        "def swap_chambers(d):\n"
        "    key = {w.name: signs for signs, w in d._chamber.items()}\n"
        "    a, b = key['e'], key['sa']\n"
        "    d._chamber[a], d._chamber[b] = d._chamber[b], d._chamber[a]\n"
        "corrupt('length', lengthen_sa, RootDatum._check_tables)\n"
        "corrupt('rho', shift_rho, RootDatum._check_tables)\n"
        "corrupt('locate', swap_chambers, lambda d: d.locate((0, 0), 5))\n"
    )
    done = run_python("-O", "-c", script)
    assert done.stdout == "length raised\nrho raised\nlocate raised\n", done.stderr


# -- brute-force reference for the Weyl tables ---------------------------------
# Built from WeylElement.matrix and the definitions in the weights module
# docstring only: rho = (1, ..., 1), the positive coroots pair as a, b and
# a + b (as a in rank 1), w . lam = w(lam + rho) - rho, and Cbar(l) bounds
# every pairing of lam + rho by [0, l].


def _ref_coroots(datum):
    return ((1,),) if datum.rank == 1 else ((1, 0), (0, 1), (1, 1))


def _ref_act(matrix, v):
    return tuple(sum(m * x for m, x in zip(row, v)) for row in matrix)


def _ref_mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def _ref_compose(datum, w1, w2):
    hits = [w for w in datum.weyl if w.matrix == _ref_mat_mul(w1.matrix, w2.matrix)]
    assert len(hits) == 1
    return hits[0]


def _ref_inverse(datum, w):
    n = datum.rank
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    hits = [v for v in datum.weyl if _ref_mat_mul(w.matrix, v.matrix) == ident]
    assert len(hits) == 1
    return hits[0]


def _ref_dot(datum, w, lam):
    shifted = _ref_act(w.matrix, tuple(x + 1 for x in lam))
    return tuple(x - 1 for x in shifted)


def _ref_pairings(datum, lam):
    return [sum(c * (x + 1) for c, x in zip(cor, lam)) for cor in _ref_coroots(datum)]


def _ref_in_cbar(datum, lam, l):
    return all(0 <= y <= l for y in _ref_pairings(datum, lam))


def _ref_in_c0(datum, lam, l):
    return all(x >= 0 for x in lam) and _ref_in_cbar(datum, lam, l)


def _ref_preimages(datum, mu):
    return [(w, _ref_dot(datum, _ref_inverse(datum, w), mu)) for w in datum.weyl]


def _ref_locate(datum, mu, l):
    if 0 in _ref_pairings(datum, mu):
        return Singular()
    [(w, lam)] = [(w, lam) for w, lam in _ref_preimages(datum, mu) if all(x >= 0 for x in lam)]
    if l > 0 and not _ref_in_cbar(datum, lam, l):
        return OutsideLocus(w, lam)
    return Located(w, lam)


def _ref_place(datum, mu):
    # top: the highest-coroot pairing of the dominant element of W(mu + rho)
    shifted = tuple(x + 1 for x in mu)
    [top] = {sum(c * x for c, x in zip(_ref_coroots(datum)[-1], img))
             for img in (_ref_act(_ref_inverse(datum, w).matrix, shifted) for w in datum.weyl)
             if all(x >= 0 for x in img)}
    loc = _ref_locate(datum, mu, 0)
    if isinstance(loc, Singular):
        return top, -1, None
    return top, loc.w.length, loc.lam


def _ref_euler_char(datum, weights):
    # signed dominant preimages; a singular mu has none, since lam + rho
    # would lie on a wall
    terms = []
    for mu, mult in weights:
        for w, lam in _ref_preimages(datum, mu):
            if all(x >= 0 for x in lam):
                terms.append((lam, (-1) ** w.length * mult))
    return GrothendieckElement(terms)


def _ref_psupp(datum, weights, i, l):
    # l = 0 is characteristic zero: no alcove bounds lam
    acc = {}
    for mu, mult in weights:
        for w, lam in _ref_preimages(datum, mu):
            if w.length == i and (_ref_in_c0(datum, lam, l) if l else min(lam) >= 0):
                acc[lam] = acc.get(lam, 0) + mult
    return WeightMultiset(acc)


_DATA = st.sampled_from([A1, A2])
_PRIMES = st.sampled_from([0, 5, 7, 11, 13])
_COORD = st.integers(-40, 40)


def _weight(datum, coords):
    return tuple(coords[:datum.rank])


@settings(max_examples=400, deadline=None)
@given(_DATA, st.tuples(_COORD, _COORD), _PRIMES)
def test_weyl_tables_match_brute_force(datum, coords, l):
    mu = _weight(datum, coords)
    for w in datum.weyl:
        assert datum.dot_action(w, mu) == _ref_dot(datum, w, mu)
    assert datum.locate(mu, l) == _ref_locate(datum, mu, l)
    assert (datum.place(mu)[0] <= l) == any(_ref_in_cbar(datum, lam, l)
                                            for _, lam in _ref_preimages(datum, mu))
    assert datum.place(mu) == _ref_place(datum, mu)
    assert (datum.place(mu)[2] is None) == (0 in _ref_pairings(datum, mu))


@st.composite
def _psupp_inputs(draw):
    datum, l = draw(_DATA), draw(_PRIMES)
    # the whole box, or the box |<mu + rho, c>| <= l around the bounded region
    lo, hi = draw(st.sampled_from([(-40, 40), (-l - 1, l - 1)]))
    coord = st.integers(lo, hi)
    coords = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=4))
    return datum, WeightMultiset([_weight(datum, c) for c in coords]), l


@settings(max_examples=200, deadline=None)
@given(_psupp_inputs())
def test_psupp_matches_brute_force(inputs):
    datum, weights, l = inputs
    assert euler_char(weights, datum) == _ref_euler_char(datum, weights)
    if datum is not A2:
        return  # bwb_good and psupp are the SL3 rules
    good = l == 0 or all(any(_ref_in_cbar(datum, lam, l) for _, lam in _ref_preimages(datum, mu))
                         for mu, _ in weights)
    assert bwb_good(weights, l)[0] == good
    for i in range(max(w.length for w in datum.weyl) + 1):
        if good:
            assert psupp(weights, i, l) == _ref_psupp(datum, weights, i, l)
        else:
            with pytest.raises(NotBWBGood):
                psupp(weights, i, l)


def test_placement_table_matches_the_direct_computation():
    for rank, radius in ((1, 200), (2, 30)):
        datum = RootDatum(rank)
        for mu in itertools.product(range(-radius, radius + 1), repeat=rank):
            got = datum.place(mu)
            assert got == datum._place(mu) == _ref_place(datum, mu), mu
            # the second call reads the table
            assert datum.placements[mu] is got and datum.place(mu) is got


def test_placement_table_stops_at_its_cap():
    datum = RootDatum(2)
    mus = [(k, -k) for k in range(PLACEMENTS_CAP + 500)]
    for mu in mus:
        assert datum.place(mu) == datum._place(mu)
    assert len(datum.placements) == PLACEMENTS_CAP
    # past the cap, a weight is placed without being stored
    assert mus[-1] not in datum.placements
    assert datum.place(mus[-1]) == _ref_place(datum, mus[-1])
    assert len(datum.placements) == PLACEMENTS_CAP


def test_the_bwb_loops_read_the_placement_table(monkeypatch):
    # negative control: a wrong entry for (9, 9), which lies outside the
    # locus at l = 5, changes every answer read off it
    before = WeightMultiset([(9, 9)])
    assert not bwb_good(before, 5)[0] and euler_char(before) == GrothendieckElement.of((9, 9))
    monkeypatch.setitem(A2.placements, (9, 9), (0, 1, (0, 0)))
    # a multiset is summarised once, so a fresh one reads the patched entry
    rep = WeightMultiset([(9, 9)])
    assert bwb_good(rep, 5)[0]
    assert euler_char(rep) == GrothendieckElement([((0, 0), -1)])
    assert psupp(rep, 1, 5) == WeightMultiset([(0, 0)])
    # and the one summarised before the patch keeps its answers
    assert not bwb_good(before, 5)[0]
    assert euler_char(before) == GrothendieckElement.of((9, 9))
    with pytest.raises(NotBWBGood):
        psupp(before, 1, 5)


def test_weight_records_compare_by_class_and_fields():
    w = element(A2, "sa")
    copy = WeylElement(w.name, w.length, w.matrix)
    assert copy == w and hash(copy) == hash(w) and copy is not w
    assert WeylElement(w.name, 2, w.matrix) != w
    lam = (1, 2)
    assert Located(w, lam) == Located(copy, lam)
    assert hash(Located(w, lam)) == hash(Located(copy, lam))
    assert Located(w, lam) != OutsideLocus(w, lam) and OutsideLocus(w, lam) != Located(w, lam)
    assert len({Located(w, lam), OutsideLocus(w, lam), Singular(), Singular()}) == 3
    assert repr(A2.locate((3, -9), 5)) == "OutsideLocus(w=W(sb.sa), lam=(3, 3))"
    assert repr(Located(element(A2, "e"), (0, 0))) == "Located(w=W(e), lam=(0, 0))"
    assert repr(Singular()) == "Singular()"


def test_weight_records_are_immutable():
    w = element(A2, "sa")
    for record, name in ((w, "length"), (Located(w, (0, 0)), "lam"),
                         (ClassGroupElement(1, 2), "torsion_part")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert w.length == 1
