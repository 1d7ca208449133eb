"""Explicit exact linear algebra in the Borel subalgebra of sl3.

Basis and structure constants
-----------------------------
b = t (+) n with n strictly upper triangular.  With the torus labelling in
:mod:`steinberg.weights` (L1 = bottom right entry) the weight of the matrix
unit E_ij is L_{4-i} - L_{4-j}, so

    f_beta = E12   (weight -beta),
    f_alpha = E23  (weight -alpha),
    f_rho = E13    (weight -rho),

with e_{-gamma} = [f_gamma, .] the adjoint operators.  The resulting
structure constants are e_{-alpha} f_beta = -f_rho, e_{-beta} f_alpha =
f_rho and [e_{-alpha}, e_{-beta}] = -e_{-rho} (the recorded bracket unit).
t_alpha, t_beta in t are the weight-zero vectors dual to the simple roots,
e_{-nu}(t_mu) = delta_{nu,mu} f_nu; the defining linear system is singular
exactly in characteristic 3.

Derived representations (wedge powers, tensor products, twists, subquotients)
carry the three lowering operators functorially; every constructor checks
the weight grading, and the atom and the models solved by elimination
(`quotient_rep`, `restrict_to_span`) the brackets, the recorded unit among
them (`BasedRep.check_bracket`).  A tensor or wedge column writes each entry
once, a factor's entry or its negation: two of its terms could meet only
through a weight-preserving entry of a factor, and the term written there is
then a weight-preserving entry of the result, which the grading check rejects.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from types import MappingProxyType

from . import breps
from .fieldops import (Echelon, Frozen, InvariantError, Record, apply_op, field_of, mat_mul,
                       mat_sub, set_field, span_coords, span_rank, vec_iadd_scaled, vec_scale)
from .weights import A2, Located, Weight

# negatives of the positive roots: the weight shifts of the lowering operators
NEG_ALPHA: Weight = (-2, 1)
NEG_BETA: Weight = (1, -2)
NEG_RHO: Weight = (-1, -1)

OP_WEIGHTS = {"ea": NEG_ALPHA, "eb": NEG_BETA, "er": NEG_RHO}


class CharacteristicError(ValueError):
    """Requested construction is unavailable in this characteristic."""


def check_char(char) -> None:
    """The characteristics the wedge-square campaigns certify: 0 and primes
    >= 5.  In characteristic 3 the torus of b has no dual basis t_alpha,
    t_beta, and in characteristic 2 the units 1 and -1 that the identities
    are read up to coincide."""
    if char != 0 and char < 5:
        raise CharacteristicError(f"needs characteristic 0 or >= 5, got {char}")


class UnknownAtomError(ValueError):
    """The expression uses an atom without a stored explicit action."""


class BasedRep(Frozen):
    """Finite B-representation with a weight basis and lowering operators.

    ops maps 'ea', 'eb', 'er' to column-major sparse matrices: ops[name][j]
    is the image of basis vector j as a {index: coeff} dict.  A basis vector
    is named by its index and its weight.
    """

    __slots__ = ("fld", "weights", "ops")
    def __init__(self, fld, weights: tuple[Weight, ...], ops: dict):
        set_field(self, "fld", fld)
        set_field(self, "weights", weights)
        set_field(self, "ops", ops)

    @property
    def dim(self) -> int:
        return len(self.weights)

    def act(self, op: str, v: dict) -> dict:
        """Exact image of v under e_{-alpha} ('ea'), e_{-beta} ('eb') or
        e_{-rho} ('er')."""
        return apply_op(self.fld, self.ops[op], v)

    def indices_of_weight(self, w: Weight) -> list[int]:
        return [i for i, wt in enumerate(self.weights) if wt == w]

    def check_grading(self) -> None:
        weights = self.weights
        for name, cols in self.ops.items():
            s0, s1 = OP_WEIGHTS[name]
            for j, col in enumerate(cols):
                if not col:
                    continue
                w0, w1 = weights[j]
                target = (w0 + s0, w1 + s1)
                for i in col:
                    if weights[i] != target:
                        raise InvariantError(f"{name} breaks the weight grading at basis vector "
                                             f"{j} of weight {weights[j]}")

    def check_bracket(self) -> None:
        """Raise unless [e_a, e_b] = -e_r (the recorded unit) and [e_a, e_r] =
        [e_b, e_r] = 0 on every basis vector: with the grading, the brackets
        that make the model a representation of b."""
        f, ops = self.fld, self.ops
        minus = f.neg(f.one)
        for j, w in enumerate(self.weights):
            for x, y, z in (("ea", "eb", "er"), ("ea", "er", None), ("eb", "er", None)):
                # [x, y] v + z v, for v basis vector j
                v = apply_op(f, ops[x], ops[y][j])
                vec_iadd_scaled(f, v, apply_op(f, ops[y], ops[x][j]), minus)
                if z:
                    vec_iadd_scaled(f, v, ops[z][j], f.one)
                if v:
                    raise InvariantError(f"[{x}, {y}] is not {'-' + z if z else 0} at basis "
                                         f"vector {j} of weight {w}")


# -- the Borel atom -----------------------------------------------------------

_B_LABELS = ("ta", "tb", "fa", "fb", "fr")
_B_WEIGHTS = ((0, 0), (0, 0), NEG_ALPHA, NEG_BETA, NEG_RHO)


# characteristic -> borel_rep(char), filled on first use
_BOREL_REPS: dict = {}


def borel_rep(char=0) -> BasedRep:
    """The 5-dimensional Borel subalgebra as a representation of itself.

    A constant of the field, built once per characteristic and shared by
    every model built from it, so its operators are read-only mappings:
    derived constructions share, copy or re-index the columns and never
    write to them.  Characteristic 3 raises CharacteristicError on every
    call: an exception is never stored.
    """
    if char in _BOREL_REPS:
        return _BOREL_REPS[char]
    fld = field_of(char)
    z, o = fld.zero, fld.one
    fa = [[z, z, z], [z, z, o], [z, z, z]]  # E23
    fb = [[z, o, z], [z, z, z], [z, z, z]]  # E12
    fr = [[z, z, o], [z, z, z], [z, z, z]]  # E13
    # t_alpha, t_beta: dual basis to (alpha, beta) inside the traceless torus.
    # Rows: alpha(t) = z - y, beta(t) = y - x, trace = 0 for t = diag(x, y, z).
    sys_rows = [[z, fld.neg(o), o], [fld.neg(o), o, z], [o, o, o]]
    try:
        t_coords = span_coords(fld, [{i: r[c] for i, r in enumerate(sys_rows) if r[c] != z}
                                     for c in range(3)])
    except ValueError as e:
        raise CharacteristicError(
            f"no weight-zero dual basis t_alpha, t_beta over {fld.name}: "
            "the defining system is singular (characteristic 3)"
        ) from e

    def diag(coords):
        return [[coords.get(0, z), z, z], [z, coords.get(1, z), z], [z, z, coords.get(2, z)]]

    def flat(m) -> dict:
        return {3 * i + j: x for i, row in enumerate(m) for j, x in enumerate(row) if x != z}

    basis = [diag(t_coords({0: o})), diag(t_coords({1: o})), fa, fb, fr]
    basis_coords = span_coords(fld, [flat(m) for m in basis])

    def coords_of(m) -> dict:
        # strictly upper part decomposes on fa, fb, fr; diagonal on ta, tb
        c = basis_coords(flat(m))
        if c is None:
            raise ValueError("bracket left the Borel subalgebra")
        return c

    ops = {}
    for name, gen in (("ea", fa), ("eb", fb), ("er", fr)):
        # read-only columns: every caller gets this same object
        # through fld.of, so that the integral entries over Q are ints
        ops[name] = tuple(MappingProxyType({i: fld.of(x) for i, x in coords_of(
            mat_sub(fld, mat_mul(fld, gen, bv), mat_mul(fld, bv, gen))).items()})
                          for bv in basis)
    rep = BasedRep(fld, _B_WEIGHTS, MappingProxyType(ops))
    rep.check_grading()
    rep.check_bracket()
    _BOREL_REPS[char] = rep
    return rep


# -- derived constructions ------------------------------------------------------


def tensor_rep(a: BasedRep, b: BasedRep) -> BasedRep:
    weights = tuple((wa[0] + wb[0], wa[1] + wb[1]) for wa in a.weights for wb in b.weights)
    nb = b.dim
    ops = {}
    for name in ("ea", "eb", "er"):
        cols = []
        # each factor column as an item list, a's rows already scaled by nb
        acols = [[(i2 * nb, c) for i2, c in col.items()] for col in a.ops[name]]
        bcols = [list(col.items()) for col in b.ops[name]]
        for i, acol in enumerate(acols):
            base = i * nb
            for j, bcol in enumerate(bcols):
                # e(x (x) y) = e(x) (x) y + x (x) e(y), each entry written once
                col = {off + j: c for off, c in acol} if acol else {}
                for j2, c in bcol:
                    col[base + j2] = c
                cols.append(col)
        ops[name] = tuple(cols)
    rep = BasedRep(a.fld, weights, ops)
    rep.check_grading()
    return rep


def wedge_rep(a: BasedRep, j: int) -> BasedRep:
    n = a.dim
    # itertools.combinations allocates j indices before it finds none
    combos = list(itertools.combinations(range(n), j)) if j <= n else []
    # a j-subset is the bitmask of its members
    bits = [1 << i for i in range(n)]
    masks = [sum(map(bits.__getitem__, c)) for c in combos]
    index = {mask: k for k, mask in enumerate(masks)}
    w0 = [w[0] for w in a.weights].__getitem__
    w1 = [w[1] for w in a.weights].__getitem__
    weights = tuple((sum(map(w0, c)), sum(map(w1, c))) for c in combos)
    neg = a.fld.neg
    # per factor basis vector, the operators k (0, 1, 2 for ea, eb, er) with
    # a nonzero column on it, each entry m as (bit of m, bits below m, coeff,
    # -coeff)
    terms = [[(k, [(1 << m, (1 << m) - 1, coeff, neg(coeff)) for m, coeff in col.items()])
              for k, col in enumerate(cols) if col]
             for cols in zip(a.ops["ea"], a.ops["eb"], a.ops["er"])]
    ea, eb, er = [], [], []
    # one sweep over the j-subsets writes the columns of all three operators
    for c, mask in zip(combos, masks):
        cols = ({}, {}, {})
        for slot, i in enumerate(c):
            # slot is the number of members of rest below i
            rest = mask ^ bits[i]
            for k, entries in terms[i]:
                col = cols[k]
                for bit, below, coeff, ncoeff in entries:
                    # moving slot to the front and sorting m into rest gives
                    # the sign (-1)^(slot + members of rest below m); a repeat
                    # gives 0
                    if rest & bit:
                        continue
                    odd = (slot + (rest & below).bit_count()) & 1
                    col[index[rest | bit]] = ncoeff if odd else coeff
        ea.append(cols[0])
        eb.append(cols[1])
        er.append(cols[2])
    ops = {"ea": tuple(ea), "eb": tuple(eb), "er": tuple(er)}
    rep = BasedRep(a.fld, weights, ops)
    rep.check_grading()
    return rep


def sum_rep(a: BasedRep, *rest: BasedRep) -> BasedRep:
    """The direct sum of a and rest, in one pass however many summands."""
    ops = {}
    for name in ("ea", "eb", "er"):
        # the first summand's columns are shared, as twist_rep shares ops
        cols = list(a.ops[name])
        for b in rest:
            n = len(cols)
            cols += [{i + n: v for i, v in c.items()} if c else {} for c in b.ops[name]]
        ops[name] = tuple(cols)
    return BasedRep(a.fld, tuple(w for b in (a, *rest) for w in b.weights), ops)


def twist_rep(a: BasedRep, shift: Weight) -> BasedRep:
    weights = tuple(A2.add(w, shift) for w in a.weights)
    return BasedRep(a.fld, weights, a.ops)


class _Models:
    """The builder of explicit models from the Borel atom in a
    characteristic."""

    def __init__(self, char):
        self.char = char
        # read per model, so that a rebound module function (a tracer's
        # wrapper, a test's patch) is the one called
        self.tensor, self.sum, self.wedge, self.twist = tensor_rep, sum_rep, wedge_rep, twist_rep

    def atom(self, name: str) -> BasedRep:
        if name != "b":
            raise UnknownAtomError(f"no explicit action stored for atom {name!r}")
        return borel_rep(self.char)

    def irreducible(self, highest):
        raise UnknownAtomError("no explicit action stored for F(a,b)")

    def sym(self, x, k):
        raise UnknownAtomError("no explicit action stored for sym^k")

    def dual(self, x):
        raise UnknownAtomError("no explicit action stored for dual")


def build_based_rep(text: str, char=0) -> BasedRep:
    """Explicit model of a rep text built from the Borel atom.

    Supports b and its wedge/tensor/sum/twist closures; other atoms, F, sym
    and dual have no stored action and raise UnknownAtomError.
    Characteristic 3 raises CharacteristicError (no t-basis).

    The model is checked against the character ``breps.build_rep`` computes
    on its own, read through its store.  The model is built before the
    character, so its errors come first; a text that fails raises on every
    call.
    """
    rep = breps.parse_rep(text, _Models(char))
    # the explicit model must agree with the character-level computation
    if dict(Counter(rep.weights)) != dict(breps.build_rep(text).items):
        raise InvariantError(f"the model of {text!r} does not have the weights of its character")
    return rep


# -- subspaces and quotients -----------------------------------------------------


def subspace_span(rep: BasedRep, vectors, close_under_ops: bool = False) -> Echelon:
    ech = Echelon(rep.fld)
    frontier = []
    for v in vectors:
        if ech.insert(dict(v)):
            frontier.append(dict(v))
    while close_under_ops and frontier:
        nxt = []
        for v in frontier:
            for name in ("ea", "eb", "er"):
                w = rep.act(name, v)
                if w and ech.insert(dict(w)):
                    nxt.append(w)
        frontier = nxt
    return ech


def quotient_rep(rep: BasedRep, sub: Echelon) -> BasedRep:
    """Quotient of rep by an operator-stable subspace.  Its basis is the set
    of non-pivot coordinates of the echelon basis of the subspace
    (lexicographic, hence deterministic)."""
    fld = rep.fld
    # stability check
    for piv, row in sub.rows.items():
        for op in ("ea", "eb", "er"):
            if not sub.contains(rep.act(op, row)):
                raise InvariantError(f"subspace not operator-stable: {op} moves row {piv} out")
    coords = tuple(i for i in range(rep.dim) if i not in sub.rows)
    pos = {c: k for k, c in enumerate(coords)}
    weights = tuple(rep.weights[c] for c in coords)
    ops = {}
    for op in ("ea", "eb", "er"):
        cols = []
        for c in coords:
            img = sub.reduce(rep.act(op, {c: fld.one}))
            cols.append({pos[i]: x for i, x in img.items()})
        ops[op] = tuple(cols)
    q = BasedRep(fld, weights, ops)
    q.check_grading()
    q.check_bracket()
    return q


# -- the Lambda^2 b (x) Lambda^2 b subquotient --------------------------------------

W1_WEIGHTS = frozenset(
    {
        A2.add(NEG_RHO, (-4, 2)),    # -rho - 2alpha
        A2.add((-2, -2), (-4, 2)),   # -2rho - 2alpha
        A2.add((-2, -2), (-2, 1)),   # -2rho - alpha
        (-3, -3),                    # -3rho
        A2.add((-2, -2), (1, -2)),   # -2rho - beta
        A2.add((-2, -2), (2, -4)),   # -2rho - 2beta
        A2.add(NEG_RHO, (2, -4)),    # -rho - 2beta
    }
)
W2_EXTRA_WEIGHTS = frozenset({(-2, -2), A2.add(NEG_RHO, NEG_ALPHA), A2.add(NEG_RHO, NEG_BETA)})


class QuotientRep(Frozen):
    """V = W2/W1 as a BasedRep, with the ambient Lambda^2 b (x) Lambda^2 b.

    W1 and W2 are spans of weight-basis vectors, so V is a coordinate
    subquotient: coords[k] is the ambient index of the k-th basis vector.
    """

    __slots__ = ("ambient", "rep", "coords")
    def __init__(self, ambient: BasedRep, rep: BasedRep, coords: tuple[int, ...]):
        set_field(self, "ambient", ambient)
        set_field(self, "rep", rep)
        set_field(self, "coords", coords)

    def project(self, v: dict) -> dict:
        """The image in V of a vector of W2: its W1 coordinates drop out."""
        pos = {c: k for k, c in enumerate(self.coords)}
        out = {}
        for i, x in v.items():
            if i in pos:
                out[pos[i]] = x
            elif self.ambient.weights[i] not in W1_WEIGHTS:
                raise InvariantError(f"coordinate {i} lies outside W2")
        return out


# characteristic -> wedge4_quotient(char), filled on first use
_WEDGE4_QUOTIENTS: dict = {}


def wedge4_quotient(char=0) -> QuotientRep:
    """V = W2/W1 inside Lambda^2 b (x) Lambda^2 b, the subquotient carrying
    the 17-dimensional weight space in degree -2rho.

    The quotient by the W1 coordinates (quotient_rep checks that W1 is
    stable), restricted to its coordinates of weight in W2_EXTRA_WEIGHTS
    (restrict_to_span checks that W2 is stable modulo W1).  Built once per
    characteristic and shared by the identity, span and chain checks: do not
    mutate it.  A raised error is never stored.
    """
    if char in _WEDGE4_QUOTIENTS:
        return _WEDGE4_QUOTIENTS[char]
    big = build_based_rep("wedge^2(b)*wedge^2(b)", char)
    one = big.fld.one
    w1 = subspace_span(big, [{i: one} for i, w in enumerate(big.weights) if w in W1_WEIGHTS])
    # the quotient's basis, as ambient coordinates
    rest = [i for i in range(big.dim) if i not in w1.rows]
    keep = [k for k, i in enumerate(rest) if big.weights[i] in W2_EXTRA_WEIGHTS]
    small = restrict_to_span(quotient_rep(big, w1), [{k: one} for k in keep])
    quo = _WEDGE4_QUOTIENTS[char] = QuotientRep(big, small, tuple(rest[k] for k in keep))
    return quo


# -- displayed identities in V = W2/W1 --------------------------------------------

_BIDX = {name: i for i, name in enumerate(_B_LABELS)}

# sigma: the diagram involution x -> -J x^T J of sl3; swaps the two simple
# directions.  On the Borel basis: ta <-> tb, fa -> -fb, fb -> -fa, fr -> -fr,
# and sigma e_a sigma^{-1} = -e_b.
_SIGMA = {"ta": ("tb", 1), "tb": ("ta", 1), "fa": ("fb", -1), "fb": ("fa", -1), "fr": ("fr", -1)}

PureTensor = tuple[tuple[str, str], tuple[str, str]]

# The six base degree -2rho identities: LHS = coeff * op(bracket) + extra.
# The conjugate forms need no sign bookkeeping: they are generated by the
# actual involution sigma, which produces the correct flips on its own.
_BASE_IDENTITIES = [
    ("id1", (("fa", "fr"), ("ta", "fb")), "eb", 1,
     [(1, (("fa", "fr"), ("ta", "tb")))], []),
    ("id2", (("fa", "fr"), ("tb", "fb")), "ea", Fraction(1, 2),
     [(1, (("ta", "fr"), ("tb", "fb"))),
      (1, (("fb", "fa"), ("tb", "fb"))),
      (1, (("fb", "ta"), ("tb", "fr")))], []),
    ("id3", (("ta", "fr"), ("fa", "fb")), "eb", Fraction(1, 2),
     [(1, (("ta", "fa"), ("tb", "fr"))),
      (1, (("ta", "fa"), ("fa", "fb"))),
      (1, (("ta", "fr"), ("fa", "tb")))], []),
    ("id4", (("ta", "fr"), ("ta", "fr")), "eb", 1,
     [(1, (("ta", "fa"), ("ta", "fr")))], []),
    ("id5", (("ta", "fr"), ("tb", "fr")), "eb", Fraction(1, 2),
     [(1, (("ta", "fa"), ("tb", "fr"))),
      (1, (("ta", "fa"), ("fa", "fb"))),
      (-1, (("ta", "fr"), ("fa", "tb")))], []),
    ("id6", (("fa", "fb"), ("fa", "fb")), "eb", 1,
     [(1, (("fa", "fb"), ("fa", "tb")))],
     [(-1, (("fa", "fb"), ("fr", "tb"))),
      (-1, (("fr", "fb"), ("fa", "tb")))]),
]


def _swap_pure(t: PureTensor) -> tuple[int, PureTensor]:
    return 1, (t[1], t[0])


def _sigma_pure(t: PureTensor) -> tuple[int, PureTensor]:
    sign = 1
    out = []
    for pair in t:
        a, sa = _SIGMA[pair[0]]
        b, sb = _SIGMA[pair[1]]
        sign *= sa * sb
        out.append((a, b))
    return sign, (out[0], out[1])


def _map_terms(terms, mapper):
    out = []
    for c, t in terms:
        s, t2 = mapper(t)
        out.append((c * s, t2))
    return out


def identity_variants():
    """The 17 identities: base forms, tensor swaps, and sigma conjugates."""
    out = []
    for name, lhs, op, coeff, bracket, extra in _BASE_IDENTITIES:
        variants = [(name, 1, lhs, op, coeff, bracket, extra)]
        if name in ("id1", "id2", "id3"):
            s, lhs2 = _swap_pure(lhs)
            variants.append((name + ".swap", s, lhs2, op, coeff,
                             _map_terms(bracket, _swap_pure), _map_terms(extra, _swap_pure)))
        if name != "id6":
            conj = []
            for vname, lsign, vl, vop, vc, vb, vx in list(variants):
                s, l2 = _sigma_pure(vl)
                newop = "eb" if vop == "ea" else "ea"
                # sigma o e_a = -e_b o sigma: the bracket coefficient flips sign
                conj.append((vname + ".conj", lsign * s, l2, newop,
                             -vc, _map_terms(vb, _sigma_pure),
                             _map_terms(vx, _sigma_pure)))
            variants += conj
        out += variants
    if len(out) != 17:
        raise InvariantError(f"{len(out)} identity variants, not 17")
    return out


def pure_tensor_vector(big: BasedRep, t: PureTensor) -> dict:
    """Vector of (x1 ^ x2) (x) (x3 ^ x4) in the wedge-tensor basis, with the
    sorting sign."""
    fld = big.fld
    sign = 1
    pair_indices = []
    for a, b in t:
        ia, ib = _BIDX[a], _BIDX[b]
        if ia == ib:
            return {}
        if ia > ib:
            ia, ib = ib, ia
            sign = -sign
        pair_indices.append((ia, ib))
    combos = list(itertools.combinations(range(5), 2))
    il = combos.index(pair_indices[0])
    ir = combos.index(pair_indices[1])
    return {il * 10 + ir: fld.of(sign)}


def identity_suite(em, char=0) -> None:
    """Check the 17 displayed weight -2rho identities in V = W2/W1, added to
    the Emitter em under identities.c<char>.<identity>.

    Each identity is accepted up to a recorded global unit in {1, -1} (the
    basis sign conventions are not pinned by the source of the identities).
    """
    check_char(char)
    quo = wedge4_quotient(char)
    big = quo.ambient
    fld = big.fld
    for name, lsign, lhs, op, coeff, bracket, extra in identity_variants():
        lvec = vec_scale(fld, pure_tensor_vector(big, lhs), fld.of(lsign))
        bvec: dict = {}
        for c, t in bracket:
            vec_iadd_scaled(fld, bvec, pure_tensor_vector(big, t), fld.of(c))
        rvec = vec_scale(fld, big.act(op, bvec), fld.of(coeff))
        for c, t in extra:
            vec_iadd_scaled(fld, rvec, pure_tensor_vector(big, t), fld.of(c))
        lq = quo.project(lvec)
        rq = quo.project(rvec)
        unit = next((u for u in (fld.one, fld.neg(fld.one)) if lq == vec_scale(fld, rq, u)),
                    None)
        em.add(f"identities.c{char}.{name}", unit is not None, "identity up to a unit",
               f"no unit in {{1,-1}} matches: lhs={lq} rhs={rq}" if unit is None
               else f"unit {unit}", "calc:wedge4")


def span_check(char=0) -> tuple[int, int, int, int]:
    """dim V_{-2rho} versus the joint image e_a V_{-rho-beta} + e_b V_{-rho-alpha}:
    (dim V_{-2rho}, joint rank, rank of the e_a image, rank of the e_b image)."""
    check_char(char)
    quo = wedge4_quotient(char)
    V = quo.rep
    fld = V.fld
    target = A2.add(A2.add(NEG_RHO, NEG_RHO), (0, 0))  # -2rho
    w_rb = A2.add(NEG_RHO, NEG_BETA)
    w_ra = A2.add(NEG_RHO, NEG_ALPHA)
    dim_target = len(V.indices_of_weight(target))
    img_a = [V.act("ea", {i: fld.one}) for i in V.indices_of_weight(w_rb)]
    img_b = [V.act("eb", {i: fld.one}) for i in V.indices_of_weight(w_ra)]
    ra = span_rank(fld, img_a)
    rb = span_rank(fld, img_b)
    rj = span_rank(fld, img_a + img_b)
    return dim_target, rj, ra, rb


# -- Lemma-style extension test ---------------------------------------------------


class ExtendCertificate(Record):
    __slots__ = ("ok", "reason", "chain")
    def __init__(self, ok: bool, reason: str = "", chain: tuple = ()):
        self.ok, self.reason, self.chain = ok, reason, chain


def p_extend_check(rep: BasedRep, l: int, chain_root: str = "a") -> ExtendCertificate:
    """Literal test for extension to the minimal parabolic in the alpha
    (resp. beta) direction: dim <= l, the other two lowering operators act as
    zero, and a weight vector of alpha-pairing dim-1 generates a full
    e_{-alpha} chain.  The certificate records the chain."""
    fld = rep.fld
    n = rep.dim
    if n > l:
        return ExtendCertificate(False, f"dim {n} exceeds l = {l}")
    if chain_root == "a":
        zero_ops, chain_op, coord = ("eb", "er"), "ea", 0
    else:
        zero_ops, chain_op, coord = ("ea", "er"), "eb", 1
    for opname in zero_ops:
        for j in range(n):
            if rep.ops[opname][j]:
                return ExtendCertificate(False, f"{opname} acts nonzero on basis vector {j} "
                                                f"of weight {rep.weights[j]}")
    for j in range(n):
        if rep.weights[j][coord] != n - 1:
            continue
        v = {j: fld.one}
        chain = [v]
        ech = Echelon(fld)
        ech.insert(v)
        good = True
        for _ in range(n - 1):
            v = rep.act(chain_op, v)
            if not ech.insert(v):
                good = False
                break
            chain.append(v)
        if good and ech.rank == n:
            return ExtendCertificate(True, "", tuple(chain))
    return ExtendCertificate(False, f"no chain generator of pairing {n - 1}")


def wedge4_campaign(em, char=0) -> None:
    """Mechanizable checks behind the vanishing of H^3 on the wedge-square
    tensor square, added to the Emitter em under identities.c<char>.wedge4:
    the V^beta / V^alpha chain decompositions, the extension certificates
    after the unit twist, the 17-dimensional span equality, and the
    coinvariant 3-chains with the coefficient-2 lowering identity."""
    l = 7 if char == 0 else char
    quo = wedge4_quotient(char)
    big, V = quo.ambient, quo.rep
    fld = big.fld

    def add(check_id, passed, expected, actual):
        em.add(f"identities.c{char}.{check_id}", passed, expected, actual, "calc:wedge4")

    # multiplicity two in degree -3rho (drives the g-isotypic bound)
    m3 = len(big.indices_of_weight((-3, -3)))
    add("wedge4.mult-minus3rho", m3 == 2, 2, m3)

    # V^beta: generated by the -rho-beta weight space; 1-dims and 2-chains
    w_rb = A2.add(NEG_RHO, NEG_BETA)
    idx_rb = V.indices_of_weight(w_rb)
    gen = subspace_span(V, [{i: fld.one} for i in idx_rb], close_under_ops=True)
    imgs = [V.act("ea", {i: fld.one}) for i in idx_rb]
    direct = span_rank(fld, [{i: fld.one} for i in idx_rb] + imgs)
    add("wedge4.vbeta-shape", gen.rank == direct,
        "V^beta = V_{-rho-beta} + e_a V_{-rho-beta}", f"rank {gen.rank} vs {direct}")
    add("wedge4.vbeta-chains", *_two_chains_check(V, w_rb, "ea", (1, 0), l))
    # V^alpha inside V / V^beta, with the roles of the two directions swapped
    add("wedge4.valpha-chains", *_two_chains_check(quotient_rep(V, gen),
                                                  A2.add(NEG_RHO, NEG_ALPHA), "eb", (0, 1), l))

    # span equality: V_{-2rho} = e_a V_{-rho-beta} + e_b V_{-rho-alpha}
    dim, joint, ra, rb = span_check(char)
    add("wedge4.span17", joint == dim == 17, "dim 17 with span equality",
        f"dim {dim}, joint {joint}, single {ra}/{rb}")

    # the generated subrep at mu = -2beta-rho and its U_P-coinvariants
    v = pure_tensor_vector(big, (("fr", "fb"), ("fb", "ta")))
    vp = pure_tensor_vector(big, (("fb", "ta"), ("fr", "fb")))
    # coefficient-2 identity: e_a^2 v = u * 2 (fr^fb)(x)(fr^fa), unit recorded
    target2 = vec_scale(fld, pure_tensor_vector(big, (("fr", "fb"), ("fr", "fa"))), fld.of(2))
    ea2 = big.act("ea", big.act("ea", v))
    unit = next((u for u in (1, -1) if ea2 == vec_scale(fld, target2, fld.of(u))), None)
    add("wedge4.ea-squared", unit is not None, "2 (fr^fb)(x)(fr^fa) up to a unit",
        f"coefficient 2, unit {unit}" if unit is not None else f"{ea2} vs {target2}")

    tilde_entries = []
    for tag, vec in (("v", v), ("v'", vp)):
        span = subspace_span(big, [vec], close_under_ops=True)
        basisvecs = [dict(r) for _, r in sorted(span.rows.items())]
        sub = restrict_to_span(big, basisvecs)
        # coinvariants: quotient of the span by the kernel of the coinvariant
        # map, spanned by the e_b- and e_r-images, whose coordinates in the
        # span are the columns of sub's operators
        kernel = subspace_span(sub, [sub.ops[op][k] for k in range(sub.dim)
                                     for op in ("eb", "er") if sub.ops[op][k]])
        co = quotient_rep(sub, kernel)
        cert = p_extend_check(twist_rep(co, (1, 0)), l, chain_root="a")
        add(f"wedge4.coinvariants({tag})", cert.ok and co.dim == 3,
            "3-dimensional chain rep extending after tw(1,0)",
            f"dim {co.dim}, certificate {'ok' if cert.ok else cert.reason}")
        tilde_entries.append(span)
        # degree -3rho part of the kernel of the coinvariant map has no
        # length-3 potential support.  The kernel's rows are weight vectors,
        # each of its pivot's weight; at l > 0, Located puts lam in the
        # closed bottom alcove, since <lam + rho, theta_vee> = top <= l.
        bad = []
        for piv in sorted(kernel.rows):
            mu = sub.weights[piv]
            loc = A2.locate(mu, l)
            if isinstance(loc, Located) and loc.w.length == 3:
                bad.append(mu)
        add(f"wedge4.kernel-psupp3({tag})", not bad, "empty", str(bad) if bad else "empty")

    joint = Echelon(fld)
    for sp in tilde_entries:
        for _, row in sorted(sp.rows.items()):
            joint.insert(dict(row))
    covered = all(joint.contains({i: fld.one}) for i in big.indices_of_weight((-3, -3)))
    add("wedge4.minus3rho-covered", covered,
        "both -3rho basis vectors inside the generated pair", "covered" if covered else "missing")


def _two_chains_check(rep: BasedRep, top: Weight, op: str, shift: Weight, l: int):
    """(passed, expected, actual): every 2-chain v, op v extends after the
    twist by shift, for v the chain tops: the weight-top basis vectors whose
    op-images are independent."""
    fld = rep.fld
    ech = Echelon(fld)
    tops = [{i: fld.one} for i in rep.indices_of_weight(top)
            if ech.insert(rep.act(op, {i: fld.one}))]
    root = {"ea": "a", "eb": "b"}[op]
    ok = all(p_extend_check(twist_rep(restrict_to_span(rep, [v, rep.act(op, v)]), shift), l,
                            chain_root=root).ok for v in tops)
    return (ok, f"{len(tops)} two-chains extend after tw({shift[0]},{shift[1]})",
            "all certified" if ok else "failure")


def restrict_to_span(rep: BasedRep, vectors: list[dict]) -> BasedRep:
    """The span of independent weight-homogeneous vectors as a BasedRep: an
    unstable span raises InvariantError."""
    fld = rep.fld
    vecs = list(vectors)
    weights = []
    for v in vecs:
        ws = {rep.weights[i] for i in v}
        if len(ws) != 1:
            raise ValueError("basis vectors must be weight homogeneous")
        weights.append(ws.pop())
    coords = span_coords(fld, vecs)
    ops = {}
    for op in ("ea", "eb", "er"):
        cols = []
        for k, v in enumerate(vecs):
            c = coords(rep.act(op, v))
            if c is None:
                raise InvariantError(f"span is not operator stable: {op} moves vector {k} out")
            cols.append(c)
        ops[op] = tuple(cols)
    out = BasedRep(fld, tuple(weights), ops)
    out.check_grading()
    out.check_bracket()
    return out
