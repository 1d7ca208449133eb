import functools
import itertools
import random
from math import comb
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinberg import breps, liealg
from steinberg.breps import RepParseError, WeightMultiset, build_rep, irreducible_multiset, parse_rep
from steinberg.fieldops import InvariantError
from steinberg.liealg import UnknownAtomError, borel_rep, build_based_rep
from steinberg.weights import A1, A2


class _Text:
    """A builder that writes each construction out fully parenthesised."""

    def atom(self, name):
        return name

    def irreducible(self, highest):
        return "F(" + ",".join(map(str, highest)) + ")"

    def tensor(self, x, y):
        return f"({x}*{y})"

    def sum(self, *summands):
        # a + chain comes as all of its summands, which associate to the left
        return functools.reduce(lambda x, y: f"({x}+{y})", summands)

    def wedge(self, x, j):
        return f"wedge^{j}({x})"

    def sym(self, x, k):
        return f"sym^{k}({x})"

    def dual(self, x):
        return f"dual({x})"

    def twist(self, x, shift):
        return "tw(" + ",".join(map(str, shift)) + f")({x})"


def canon(text) -> str:
    """The text as the parser reads it, fully parenthesised."""
    return parse_rep(text, _Text())


def borel_weights_by_conjugation():
    """Oracle for the weights of b in sl3: bracket each basis matrix against
    the two simple coroot matrices (L1 = bottom right labelling)."""
    h_alpha = (0, -1, 1)
    h_beta = (-1, 1, 0)
    basis = [("t1", (0, 0)), ("t2", (1, 1))]  # two Cartan directions, weight 0

    def unit(i, j):
        return [[1 if (r, c) == (i, j) else 0 for c in range(3)] for r in range(3)]

    weights = [(0, 0), (0, 0)]
    for (i, j) in ((0, 1), (1, 2), (0, 2)):  # strictly upper positions
        a = h_alpha[i] - h_alpha[j]
        b = h_beta[i] - h_beta[j]
        weights.append((a, b))
    return weights


def test_borel_multiset_against_conjugation_oracle():
    assert build_rep("b") == WeightMultiset(borel_weights_by_conjugation())
    assert build_rep("b").dimension == 5


def test_gb_is_dual_of_n():
    assert build_rep("g/b") == build_rep("n").dual()
    assert build_rep("g/b") == WeightMultiset([(2, -1), (-1, 2), (1, 1)])


def test_g_decomposes():
    assert build_rep("g") == build_rep("b").add(build_rep("g/b"))
    assert build_rep("g").dimension == 8


def test_dimension_formulas():
    b = build_rep("b")
    rng = random.Random(3)
    for j in range(6):
        assert b.wedge(j).dimension == comb(5, j)
    for k in range(5):
        assert b.sym(k).dimension == comb(5 + k - 1, k)
    g = build_rep("g")
    assert b.tensor(g).dimension == 40
    assert build_rep("wedge^2(b + b)").dimension == 45


def test_decomposition_identities():
    bb = build_rep("b + b")
    w2b = build_rep("wedge^2(b)")
    assert bb.wedge(2) == w2b.add(w2b).add(build_rep("b*b"))
    w3b = build_rep("wedge^3(b)")
    w2bxb = build_rep("wedge^2(b)*b")
    assert bb.wedge(3) == w3b.add(w3b).add(w2bxb).add(w2bxb)
    w4b = build_rep("wedge^4(b)")
    w3bxb = w3b.tensor(build_rep("b"))
    assert bb.wedge(4) == w4b.add(w4b).add(w3bxb).add(w3bxb).add(w2b.tensor(w2b))


def test_weight_multiplicities():
    w2b = build_rep("wedge^2(b)")
    assert w2b.tensor(w2b).multiplicity((-3, -3)) == 2
    assert build_rep("F(2,3)").multiplicity((2, 3)) == 1
    assert build_rep("b").multiplicity((0, 0)) == 2


def test_irreducible_multisets():
    adjoint = build_rep("F(1,1)")
    assert adjoint == build_rep("g")
    assert build_rep("F(1,0)").dimension == 3
    assert build_rep("F(0,1)").dimension == 3
    # Weyl dimension formula oracle over a small box
    for a in range(4):
        for b in range(4):
            dim = irreducible_multiset((a, b), A2).dimension
            assert dim == (a + 1) * (b + 1) * (a + b + 2) // 2
    with pytest.raises(ValueError):
        irreducible_multiset((-1, 0), A2)


# -- Kostant's multiplicity formula: the oracle for the Gelfand-Tsetlin count --


def _kostant_partition(v, datum):
    """Number of ways to write v as a nonnegative sum of positive roots."""
    if datum.rank == 1:
        (a,) = v
        return 1 if a >= 0 and a % 2 == 0 else 0
    # v = x*alpha + y*beta; each rho in the sum trades one alpha and one beta
    v1, v2 = v
    if (2 * v1 + v2) % 3 or (v1 + 2 * v2) % 3:
        return 0
    x, y = (2 * v1 + v2) // 3, (v1 + 2 * v2) // 3
    return min(x, y) + 1 if x >= 0 and y >= 0 else 0


def _weights_under(highest, datum):
    """highest - x*alpha - y*beta (x, y >= 0) over a box holding every weight
    of V(highest)."""
    if datum.rank == 1:
        (a,) = highest
        return [(a - 2 * k,) for k in range(a + 1)]
    a, b = highest
    return [(a - 2 * x + y, b + x - 2 * y) for x in range(a + b + 1) for y in range(a + b + 1)]


def kostant_multiset(highest, datum):
    """mult(mu) = sum over w in W of (-1)^l(w) P(w(highest + rho) - (mu + rho))."""
    rho = datum.rho
    images = [(w.act(datum.add(highest, rho)), (-1) ** w.length) for w in datum.weyl]
    acc = {}
    for mu in _weights_under(highest, datum):
        mu_rho = datum.add(mu, rho)
        acc[mu] = sum(sign * _kostant_partition(tuple(x - y for x, y in zip(img, mu_rho)), datum)
                      for img, sign in images)
    return WeightMultiset(acc)


def test_gelfand_tsetlin_count_matches_kostant_and_weyl():
    for a in range(13):
        for b in range(13):
            got = irreducible_multiset((a, b), A2)
            assert got.items == kostant_multiset((a, b), A2).items, (a, b)
            assert got.dimension == (a + 1) * (b + 1) * (a + b + 2) // 2
    for a in range(25):
        got = irreducible_multiset((a,), A1)
        assert got.items == kostant_multiset((a,), A1).items, a
        assert got.dimension == a + 1


def test_sl2_atoms():
    assert build_rep("b", A1) == WeightMultiset([(0,), (-2,)])
    assert build_rep("g/b", A1) == WeightMultiset([(2,)])
    assert build_rep("F(3)", A1) == WeightMultiset([(3,), (1,), (-1,), (-3,)])
    assert build_rep("sym^2(g/b + g/b)", A1).dimension == 3


def _per_call_atom(name, datum):
    """The atoms as they were built on every call, before the import-time
    table: the oracle for it."""
    zero = (0,) * datum.rank
    shifted = [datum.simple_roots[0]]
    if datum.rank == 2:
        shifted = [datum.simple_roots[0], datum.simple_roots[1], datum.rho]
    neg_roots = [tuple(-x for x in r) for r in shifted]
    return {"n": WeightMultiset(neg_roots),
            "b": WeightMultiset(neg_roots + [zero] * datum.rank),
            "g/b": WeightMultiset(shifted),
            "g": WeightMultiset(neg_roots + shifted + [zero] * datum.rank)}[name]


def test_atom_tables_match_the_per_call_construction():
    assert sorted(breps._ATOMS) == [1, 2]
    for datum in (A1, A2):
        assert sorted(breps._ATOMS[datum.rank]) == ["b", "g", "g/b", "n"]
        for name in ("b", "n", "g", "g/b"):
            assert breps._ATOMS[datum.rank][name] == _per_call_atom(name, datum), (datum, name)
            assert build_rep(name, datum) is breps._ATOMS[datum.rank][name]
    # negative control: the comparison tells the ranks and the atoms apart
    assert breps._ATOMS[2]["b"] != _per_call_atom("b", A1)
    assert breps._ATOMS[2]["g/b"] != _per_call_atom("n", A2)


def test_rank_and_atom_errors_name_no_position():
    # a construction's error is a plain ValueError, raised when the
    # construction is applied: before a syntax error later in the text
    for text, message in (("tw(1)(b)", "twist (1,) has wrong rank for this datum"),
                          ("tw(1,2,3)(b*b)", "twist (1, 2, 3) has wrong rank for this datum"),
                          ("F(1)", "weight (1,) has wrong rank for this datum")):
        with pytest.raises(ValueError) as info:
            build_rep(text)
        assert type(info.value) is ValueError and str(info.value) == message
    with pytest.raises(ValueError) as info:
        build_rep("tw(1,0)(b)", A1)
    assert type(info.value) is ValueError and "wrong rank" in str(info.value)
    with pytest.raises(ValueError) as info:
        build_rep("b + tw(1)(b) + ")
    assert type(info.value) is ValueError and "wrong rank" in str(info.value)
    with pytest.raises(UnknownAtomError, match="atom 'g'"):
        build_based_rep("b*g*(b")
    with pytest.raises(RepParseError):
        build_based_rep("b*b*(b")


def test_the_zeroth_power_of_a_zero_rep_is_trivial():
    # a zero multiset has no weight to read a rank off: the power takes the
    # datum's, in the character and in the Lie model
    for datum in (A1, A2):
        trivial = WeightMultiset({(0,) * datum.rank: 1})
        for text in ("wedge^0(wedge^9(b))", "sym^0(wedge^9(b))", "wedge^0(b)", "sym^0(g)"):
            assert build_rep(text, datum) == trivial, (datum, text)
        assert build_rep("sym^0(wedge^9(b))*b", datum) == build_rep("b", datum)
    for char in (0, 5):
        assert build_based_rep("wedge^0(wedge^9(b))", char).weights == ((0, 0),)
        model = build_based_rep("wedge^0(wedge^9(b)) + b", char)
        assert model.weights == ((0, 0),) + borel_rep(char).weights


def test_twist_and_dual():
    b = build_rep("b")
    assert b.twist((1, 1)) == build_rep("tw(1,1)(b)")
    assert b.twist((1, 1)).multiplicity((1, 1)) == 2
    assert build_rep("dual(b)") == b.dual()
    assert b.dual().dual() == b


def _random_texts(rng, depth, level=0):
    """A random expression as (the text with the fewest parentheses the
    parser needs, the text fully parenthesised): level 0 is a sum context, 1
    a tensor context, 2 the right operand of a tensor."""
    if depth == 0:
        atom = rng.choice(["b", "n", "g", "g/b", "F(1,0)", "F(2,2)"])
        return atom, atom
    op = rng.randrange(6)
    if op < 2:
        (x, full_x), (y, full_y) = (_random_texts(rng, depth - 1, op + k) for k in (0, 1))
        sign = "+*"[op]
        text = f"{x} {sign} {y}" if op == 0 else f"{x}*{y}"
        return ("(" + text + ")" if level > op else text), f"({full_x}{sign}{full_y})"
    arg, full_arg = _random_texts(rng, depth - 1)
    head = (f"wedge^{rng.randrange(4)}", f"sym^{rng.randrange(3)}", "dual",
            f"tw({rng.randrange(-2, 3)},{rng.randrange(-2, 3)})")[op - 2]
    return f"{head}({arg})", f"{head}({full_arg})"


def test_parser_round_trip():
    rng = random.Random(17)
    for _ in range(100):
        text, full = _random_texts(rng, rng.randrange(1, 4))
        assert canon(text) == full, text
        assert canon(full) == full


def test_parser_aliases_and_whitespace():
    assert canon("b ⊗ b") == canon("b*b") == "(b*b)"
    assert canon("b ⊕ n") == canon("b+n") == "(b+n)"
    assert canon("  wedge^2( b + b )  ") == canon("wedge^2(b+b)") == "wedge^2((b+b))"
    assert canon("twist(1,2)(b)") == canon("tw(1,2)(b)") == "tw(1,2)(b)"


def test_parser_errors_carry_position():
    with pytest.raises(RepParseError) as info:
        canon("wedge^2(b")
    assert "position" in str(info.value)
    with pytest.raises(RepParseError):
        canon("b**b")
    with pytest.raises(RepParseError):
        canon("q")
    with pytest.raises(RepParseError):
        canon("b + ")


def test_aliases_and_spaces_keep_error_positions():
    # each alias is one character, and whitespace is skipped once per token
    for aliased in ("b ⊗ ⊕ n", "  wedge^2( b ⊕ b ) ⊗", "b ⊗\t( n ⊕ g/b", "tw(1, 2) ( b ⊗ q )",
                    "F( 1 ,-x) ⊕ b", "dual ( b ⊕ n ) ⊗ ⊗ b", "b ⊗ n  )"):
        ascii_form = aliased.replace("⊗", "*").replace("⊕", "+")
        with pytest.raises(RepParseError) as got:
            canon(aliased)
        with pytest.raises(RepParseError) as expected:
            canon(ascii_form)
        assert got.value.position == expected.value.position, aliased
        assert str(got.value) == str(expected.value), aliased
    # the positions are those of the offending token in the input
    with pytest.raises(RepParseError) as info:
        canon("b ⊗ ⊕ n")
    assert info.value.position == 4
    with pytest.raises(RepParseError) as info:
        canon("  b ⊗  (n ⊕ g")
    assert info.value.position == 13


def test_parser_reads_ascii_digits_only():
    # str.isdigit accepts the superscript two; int() does not
    for text, position in (("F(²,0)", 2), ("wedge^²(b)", 6), ("F(1,-²)", 5)):
        with pytest.raises(RepParseError, match="expected integer") as info:
            canon(text)
        assert info.value.position == position, text
    assert canon("wedge^10(F(12,3))") == "wedge^10(F(12,3))"


def test_a_wedge_power_above_the_dimension_is_zero_at_once(run_python):
    # under 512 MB of address space, a construction that walks the 10^9
    # layers of the power, or allocates 10^9 subset indices, fails with
    # MemoryError instead of filling the host
    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))\n"
        "from steinberg.breps import build_rep\n"
        "from steinberg.liealg import build_based_rep\n"
        "print(build_rep('wedge^1000000000(b)'), build_rep('wedge^6(b)'))\n"
        "print(build_rep('wedge^5(b)'), build_rep('wedge^1000000000(b)*g').dimension)\n"
        "for char in (0, 5):\n"
        "    print(build_based_rep('wedge^1000000000(b)', char).dim)\n"
    )
    done = run_python("-c", script)
    assert done.stdout.splitlines() == ["{} {}", "{(-2, -2):1} 0", "0", "0"], done.stderr


def test_associativity_printing():
    assert canon("b*(b*b)") == "(b*(b*b))"
    assert canon("b*b*b") == canon("(b*b)*b") == "((b*b)*b)"
    assert canon("b + n*g + g/b*b*n") == "((b+(n*g))+((g/b*b)*n))"
    assert build_rep("b*(b*b)") == build_rep("(b*b)*b")


# -- wedge and sym against enumeration of basis combinations -------------------
# The reference expands the multiset into its basis and sums the weights of
# every j-subset (wedge) or j-multiset of basis slots (sym).


def _ref_power(ms, j, combos):
    basis = [w for w, m in ms for _ in range(m)]
    rank = len(basis[0]) if basis else 0
    acc = {}
    for combo in combos(range(len(basis)), j):
        key = tuple(sum(basis[i][t] for i in combo) for t in range(rank))
        acc[key] = acc.get(key, 0) + 1
    return WeightMultiset(acc)


@st.composite
def _small_multisets(draw):
    rank = draw(st.sampled_from([1, 2]))
    coord = st.integers(-3, 3)
    weights = draw(st.dictionaries(st.tuples(*[coord] * rank), st.integers(1, 3), max_size=4))
    return WeightMultiset(weights)


@settings(max_examples=150, deadline=None)
@given(_small_multisets(), st.integers(0, 4))
def test_wedge_and_sym_match_enumeration(ms, j):
    assert ms.wedge(j) == _ref_power(ms, j, itertools.combinations)
    assert ms.sym(j) == _ref_power(ms, j, itertools.combinations_with_replacement)
    assert ms.wedge(j).dimension == comb(ms.dimension, j)
    if ms.dimension:
        assert ms.sym(j).dimension == comb(ms.dimension + j - 1, j)


# -- packed constructions against tuple arithmetic ------------------------------
# The references are the tuple-based constructions the packed ones replaced.


def _tuple_tensor(x, y):
    acc = {}
    for w1, m1 in x:
        for w2, m2 in y:
            key = tuple(a + b for a, b in zip(w1, w2))
            acc[key] = acc.get(key, 0) + m1 * m2
    return WeightMultiset(acc)


def _tuple_power(ms, j, coeff):
    rank = len(ms.items[0][0]) if ms.items else 0
    layers = [{(0,) * rank: 1}] + [{} for _ in range(j)]
    for w, m in ms:
        terms = []
        for a in range(1, j + 1):
            c = coeff(m, a)
            if not c:
                break
            terms.append((a, c, tuple(a * x for x in w)))
        for k in range(j, 0, -1):
            for a, c, shift in terms:
                if a > k:
                    break
                for v, n in layers[k - a].items():
                    key = tuple(map(add, v, shift))
                    layers[k][key] = layers[k].get(key, 0) + c * n
    return WeightMultiset(layers[j])


def _tuple_wedge(ms, j):
    if j > ms.dimension:
        return WeightMultiset({})
    return _tuple_power(ms, j, lambda m, a: comb(m, a))


def _tuple_sym(ms, k):
    return _tuple_power(ms, k, lambda m, a: comb(m + a - 1, a))


_BIG = 10 ** 12


@st.composite
def _multiset_pairs(draw):
    """Two multisets of one rank (0 to 2) and a twist of that rank, with
    coordinates near 0 or near +-10^12."""
    rank = draw(st.sampled_from([0, 1, 2]))
    coord = st.one_of(st.integers(-4, 4), st.integers(-4, 4).map(lambda x: x + _BIG),
                      st.integers(-4, 4).map(lambda x: x - _BIG))
    small = st.tuples(*[st.integers(-4, 4)] * rank)
    def multiset(weight):
        return st.dictionaries(weight, st.integers(1, 3), max_size=4).map(WeightMultiset)
    x = draw(multiset(st.tuples(*[coord] * rank)))
    y = draw(multiset(small))
    shift = draw(st.tuples(*[st.sampled_from([-_BIG, -1, 0, 2, _BIG])] * rank))
    return x, y, shift


@settings(max_examples=300, deadline=None)
@given(_multiset_pairs(), st.integers(0, 3))
def test_packed_constructions_match_tuple_arithmetic(pair, j):
    x, y, shift = pair
    # items, not ==: the order of the decoded tuple is part of the result
    assert x.tensor(y).items == _tuple_tensor(x, y).items
    assert y.tensor(x).items == _tuple_tensor(y, x).items
    for ms in (x, y, y.twist(shift)):
        assert ms.wedge(j).items == _tuple_wedge(ms, j).items
        assert ms.sym(j).items == _tuple_sym(ms, j).items
    assert x.twist(shift).items == WeightMultiset(
        {tuple(a + b for a, b in zip(w, shift)): m for w, m in x}).items
    assert x.dual().items == WeightMultiset({tuple(-a for a in w): m for w, m in x}).items
    assert y.twist(shift).tensor(x.dual()).items == \
        _tuple_tensor(y.twist(shift), x.dual()).items


def test_rank_zero_and_the_width_rule():
    empty = WeightMultiset({})
    assert empty.wedge(0).items == (((), 1),) and empty.sym(0).items == (((), 1),)
    assert empty.wedge(1).items == () and empty.sym(2).items == ()
    assert WeightMultiset({(): 2}).sym(3).items == (((), 4),)
    assert WeightMultiset({(): 2}).tensor(WeightMultiset({(): 3})).items == (((), 6),)
    # every coordinate at the edge of its field, for bounds around 2^k
    for bound in (0, 1, 2, 3, 4, 7, 8, 2 ** 40 - 1, 2 ** 40):
        ms = WeightMultiset({(bound, -bound): 1, (-bound, bound): 2, (0, bound): 1})
        assert ms.tensor(ms).items == _tuple_tensor(ms, ms).items, bound
        assert ms.sym(2).items == _tuple_sym(ms, 2).items, bound
    twisted = build_rep("tw(1000000000000,0)(b)*b")
    b = build_rep("b")
    assert twisted.items == _tuple_tensor(b.twist((_BIG, 0)), b).items
    assert twisted.dimension == 25 and twisted.multiplicity((_BIG, 0)) == 4
    # negative control: one bit less than the rule picks folds the lower field
    pair = WeightMultiset({(0, 3): 1}).tensor(WeightMultiset({(0, 4): 1}))
    s = breps._width(7)
    assert pair.items == (((0, 7), 1),)
    assert breps._unpack({7: 1}, 2, s).items == (((0, 7), 1),)
    assert breps._unpack({7: 1}, 2, s - 1).items != (((0, 7), 1),)


def test_mixed_ranks_are_refused():
    with pytest.raises(ValueError, match="different ranks"):
        build_rep("b").tensor(build_rep("b", A1))
    with pytest.raises(ValueError, match="different ranks"):
        WeightMultiset({(1,): 1, (1, 2): 1}).wedge(2)


def test_ranks_above_two_are_refused():
    ms = WeightMultiset({(1, 0, 0): 1, (0, 1, 0): 2})
    for construct in (lambda: ms.tensor(ms), lambda: ms.wedge(2), lambda: ms.sym(2)):
        with pytest.raises(ValueError, match="weights of rank 3"):
            construct()
    # ranks 0 to 2 are packed
    for w in ((), (1,), (1, 2)):
        assert WeightMultiset({w: 2}).sym(2).items == _tuple_sym(WeightMultiset({w: 2}), 2).items


def test_based_reps_are_immutable():
    model = build_based_rep("b")
    for name in ("weights", "ops"):
        before = getattr(model, name)
        with pytest.raises(AttributeError):
            setattr(model, name, None)
        with pytest.raises(AttributeError):
            delattr(model, name)
        assert getattr(model, name) is before


# -- the store of texts ----------------------------------------------------------


@pytest.fixture
def counted(monkeypatch):
    """An empty store, and per call counts of parse_rep into characters and
    into Lie models."""
    monkeypatch.setattr(breps, "store", {})
    calls = {"characters": 0, "models": 0}
    parse = breps.parse_rep

    def counting_parse(text, builder):
        calls["characters" if isinstance(builder, breps._Characters) else "models"] += 1
        return parse(text, builder)

    monkeypatch.setattr(breps, "parse_rep", counting_parse)
    return calls


def test_each_text_is_parsed_and_evaluated_once_per_rank(counted):
    for text in ("wedge^2(b)*b", "tw(1,0)(b) + b"):
        rep = build_rep(text)
        assert counted == {"characters": 1, "models": 0}
        assert build_rep(text) is rep and build_rep(text, A2) is rep
        for char in (0, 5):
            model = build_based_rep(text, char)
            assert WeightMultiset(model.weights) == rep
        # each model parses its text, and reads its character from the store
        assert counted == {"characters": 1, "models": 2}
        assert breps.store[text, 2] is rep
        counted.update(characters=0, models=0)
    # the model of a text not yet stored builds and stores its character
    model = build_based_rep("b*b", 7)
    assert counted == {"characters": 1, "models": 1}
    assert build_rep("b*b") is breps.store["b*b", 2] == WeightMultiset(model.weights)
    assert counted == {"characters": 1, "models": 1}
    # each rank has an entry of its own
    assert build_rep("wedge^2(b)", A1) != build_rep("wedge^2(b)")
    assert counted == {"characters": 3, "models": 1}


def test_a_failing_text_raises_on_every_call_and_is_not_stored(counted):
    for call, text, error in (
            (build_rep, "wedge^2(b", RepParseError),
            (build_rep, "b + ", RepParseError),
            (build_rep, "tw(1)(b)", ValueError),
            (lambda text: build_rep(text, A1), "F(1,0)", ValueError),
            (build_based_rep, "b**b", RepParseError),
            (build_based_rep, "tw(1)(b)", ValueError),
            (build_based_rep, "g", UnknownAtomError),
            (build_based_rep, "F(1,-1)", UnknownAtomError)):
        raised = []
        for _ in range(2):
            with pytest.raises(error) as info:
                call(text)
            raised.append((type(info.value), str(info.value),
                           getattr(info.value, "position", None)))
        assert raised[0] == raised[1], text
        assert not any(key[0] == text for key in breps.store), text
    # every call parsed its text; of the models, only that of "tw(1)(b)"
    # was built, and its character then failed
    assert counted == {"characters": 10, "models": 8}


def test_a_full_store_is_cleared_and_keeps_the_last_text(monkeypatch):
    monkeypatch.setattr(breps, "store", {})
    texts = [f"tw({i},0)(b)" for i in range(breps.STORE_CAP + 1)]
    for k, text in enumerate(texts):
        rep = build_rep(text)
        assert len(breps.store) <= breps.STORE_CAP and breps.store[text, 2] is rep
        if k == breps.STORE_CAP - 1:
            assert len(breps.store) == breps.STORE_CAP
    assert list(breps.store) == [(texts[-1], 2)]


def test_a_stored_character_still_catches_a_broken_model(monkeypatch):
    # twisting keeps the weights of its argument: the model of a text whose
    # character is already stored must still disagree with that character
    monkeypatch.setattr(breps, "store", {})
    monkeypatch.setattr(liealg, "twist_rep", lambda a, shift: a)
    for text in ("tw(1,0)(b)", "tw(0,-2)(b) + b", "wedge^2(tw(1,1)(b))"):
        rep = build_rep(text)
        for char in (0, 5):
            with pytest.raises(InvariantError, match="does not have the weights"):
                build_based_rep(text, char)
        assert breps.store[text, 2] is rep
