"""Root datum, Weyl group and dot action for SL3 (and the rank-1 SL2 case).

Conventions
-----------
Weights are integer tuples in the fundamental-weight basis.  For SL3 the
basis is (w1, w2) = (L1, -L3), where L1, L2, L3 are the diagonal characters
of the torus labelled so that L1 is the *bottom right* entry and L3 the top
left.  Then

    rho = (1, 1),   alpha = L1 - L2 = (2, -1),   beta = L2 - L3 = (-1, 2),

the positive roots are {alpha, beta, rho} (rho = alpha + beta), and pairing a
weight (a, b) with the simple coroots gives a and b respectively.  Dominant
means a >= 0 and b >= 0.  For SL2 a weight is a 1-tuple (a,) with rho = (1,)
and alpha = (2,).

The dot action is w . lam = w(lam + rho) - rho.  For a prime l, the closed
bottom alcove is

    Cbar(l) = { lam : 0 <= <lam + rho, kappa_vee> <= l  for all kappa > 0 }

and the decidable ("BWB") locus is the union of its dot translates.

Everything here is immutable and uses exact integer arithmetic only.
"""

from __future__ import annotations

import operator

from .fieldops import ZZ, Frozen, InvariantError, is_prime, mat_mul, set_field

Weight = tuple[int, ...]

# the most weights a root datum's placement table holds
PLACEMENTS_CAP = 8192


class WeylElement(Frozen):
    """An element of the Weyl group, stored with its length and action matrix.

    The matrix acts on column vectors of fundamental-weight coordinates:
    (w.matrix @ lam) is the ordinary (undotted) action.
    """

    __slots__ = ("name", "length", "matrix")
    def __init__(self, name: str, length: int, matrix: tuple[tuple[int, ...], ...]):
        set_field(self, "name", name)
        set_field(self, "length", length)
        set_field(self, "matrix", matrix)

    def act(self, lam: Weight) -> Weight:
        return tuple(sum(row[j] * lam[j] for j in range(len(lam))) for row in self.matrix)

    def __repr__(self) -> str:
        return f"W({self.name})"


class RootDatum:
    """Rank-1 or rank-2 (type A) root datum with its full Weyl group.

    Attributes:
        rank: 1 for SL2, 2 for SL3.
        rho: the half-sum of positive roots, in fundamental-weight coordinates.
        simple_roots: (alpha,) or (alpha, beta).
        positive_coroots: pairing vectors; <lam, c> = dot(lam, c).  The
            simple coroots come first.
        weyl: all Weyl elements, sorted by (length, name).

    The Weyl group's fixed data is tabulated once, here: the positive
    coroots as pairs (p, q) acting on x = mu + rho padded to (x0, x1)
    (x1 = 0 in rank 1), so that p*x0 + q*x1 is a pairing, and the Weyl
    element of each chamber, keyed by the signs of those pairings.  `place`
    reads a weight's chamber, length and alcove bound off the sorted
    epsilon-coordinates of mu + rho, and `locate` adds the Weyl element.
    `place` keeps its answers in `placements`, a plain dict of at most
    PLACEMENTS_CAP weights: like the chamber table it holds a pure function
    of the weight, so a weight that many multisets share is placed once.
    `bwb` reads the table in its one pass per multiset, the Bott summary.
    """

    def __init__(self, rank: int):
        if rank not in (1, 2):
            raise ValueError(f"unsupported rank {rank}")
        self.rank = rank
        if rank == 1:
            self.rho: Weight = (1,)
            self.simple_roots: tuple[Weight, ...] = ((2,),)
            self.positive_coroots: tuple[Weight, ...] = ((1,),)
            refl = (WeylElement("sa", 1, ((-1,),)),)
        else:
            self.rho = (1, 1)
            self.simple_roots = ((2, -1), (-1, 2))
            # alpha_vee, beta_vee, rho_vee = alpha_vee + beta_vee
            self.positive_coroots = ((1, 0), (0, 1), (1, 1))
            refl = (
                WeylElement("sa", 1, ((-1, 0), (1, 1))),
                WeylElement("sb", 1, ((1, 1), (0, -1))),
            )
        self.weyl = self._generate(refl)
        self._coroots = tuple((c[0], c[1] if rank == 2 else 0) for c in self.positive_coroots)
        # the signs of the pairings of mu + rho with the positive coroots name
        # the chamber of a regular mu; w . 0 lies in the chamber of w
        zero = (0,) * rank
        # weight -> place(weight), filled by place up to PLACEMENTS_CAP weights
        self.placements: dict[Weight, tuple[int, int, Weight | None]] = {}
        self._chamber = {self._signs(self.dot_action(w, zero)): w for w in self.weyl}
        self._check_tables()

    def _generate(self, refl: tuple[WeylElement, ...]) -> tuple[WeylElement, ...]:
        n = self.rank
        ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        seen = {ident: ("e", 0)}
        frontier = [ident]
        while frontier:
            nxt = []
            for mat in frontier:
                name, length = seen[mat]
                for s in refl:
                    m2 = tuple(map(tuple, mat_mul(ZZ, mat, s.matrix)))
                    if m2 not in seen:
                        # reduced word grows on the right
                        nm = s.name if name == "e" else name + "." + s.name
                        seen[m2] = (nm, length + 1)
                        nxt.append(m2)
            frontier = nxt
        elems = [WeylElement(name, length, mat) for mat, (name, length) in seen.items()]
        elems.sort(key=lambda w: (w.length, w.name))
        return tuple(elems)

    def _check_tables(self) -> None:
        """Coordinate identities promised by the stored root and Weyl tables;
        raises InvariantError when one fails."""
        # rho = (1, ..., 1): the tables shift by it without reading it
        for root, coroot in zip(self.simple_roots, self.positive_coroots):
            if self.pairing(root, coroot) != 2 or self.pairing(self.rho, coroot) != 1:
                raise InvariantError(f"simple root {root} and coroot {coroot} do not pair "
                                     f"as 2, or rho {self.rho} does not pair with it as 1")
        if self.rank == 1:
            if self.simple_roots[0] != (2,):
                raise InvariantError(f"the A1 simple root is {self.simple_roots[0]}, not (2,)")
        else:
            alpha, beta = self.simple_roots
            if self.add(alpha, beta) != self.rho:
                raise InvariantError(f"alpha + beta = {self.add(alpha, beta)} != rho {self.rho}")
        lengths = sorted(w.length for w in self.weyl)
        if lengths != ([0, 1] if self.rank == 1 else [0, 1, 1, 2, 2, 3]):
            raise InvariantError(f"Weyl group element lengths {lengths}")
        if len(self._chamber) != len(self.weyl):
            raise InvariantError(f"{len(self._chamber)} sign chambers for "
                                 f"{len(self.weyl)} Weyl elements")
        # the closed-form placement and the chamber table agree with the Weyl
        # group on each chamber and on a wall: w . lam for dominant lam sits
        # at (<lam + rho, theta_vee>, l(w), lam) and is located at (w, lam)
        for lam in ((0,) * self.rank, (2, 5)[:self.rank]):
            top = self.pairing(self.add(lam, self.rho), self.positive_coroots[-1])
            for w in self.weyl:
                mu = self.dot_action(w, lam)
                got = self.place(mu)
                if got != (top, w.length, lam):
                    raise InvariantError(f"place({w} . {lam}) = {got}, not {(top, w.length, lam)}")
                if self.locate(mu, 0) != Located(w, lam):
                    raise InvariantError(f"locate({w} . {lam}) = {self.locate(mu, 0)}")
        if self.place(self.neg(self.rho))[2] is not None:
            raise InvariantError("place treats -rho as regular")

    # -- basic weight arithmetic ------------------------------------------

    @staticmethod
    def pairing(lam: Weight, coroot: Weight) -> int:
        return sum(x * c for x, c in zip(lam, coroot))

    @staticmethod
    def add(a: Weight, b: Weight) -> Weight:
        return tuple(map(operator.add, a, b))

    @staticmethod
    def sub(a: Weight, b: Weight) -> Weight:
        return tuple(map(operator.sub, a, b))

    @staticmethod
    def neg(a: Weight) -> Weight:
        return tuple(map(operator.neg, a))

    def dominant(self, lam: Weight) -> bool:
        return all(x >= 0 for x in lam)

    def _shift(self, mu: Weight) -> tuple[int, int]:
        """mu + rho as the pair (x0, x1) that the tables act on."""
        return (mu[0] + 1, mu[1] + 1) if self.rank == 2 else (mu[0] + 1, 0)

    def _signs(self, mu: Weight) -> tuple[bool, ...]:
        """Which pairings of mu + rho with the positive coroots are negative."""
        x0, x1 = self._shift(mu)
        return tuple(p * x0 + q * x1 < 0 for p, q in self._coroots)

    # -- Weyl group --------------------------------------------------------

    def dot_action(self, w: WeylElement, lam: Weight) -> Weight:
        """The rho-shifted action w . lam = w(lam + rho) - rho."""
        return self.sub(w.act(self.add(lam, self.rho)), self.rho)

    # -- the bounded alcove region -------------------------------------------

    def place(self, mu: Weight) -> tuple[int, int, Weight | None]:
        """(top, length, lam): where mu lies among the dot-Weyl chambers,
        from the placement table when mu is in it (see `_place`)."""
        got = self.placements.get(mu)
        if got is None:
            got = self._place(mu)
            if len(self.placements) < PLACEMENTS_CAP:
                self.placements[mu] = got
        return got

    def _place(self, mu: Weight) -> tuple[int, int, Weight | None]:
        """(top, length, lam): where mu lies among the dot-Weyl chambers.

        top = <x, theta_vee> for the dominant element x of the W-orbit of
        mu + rho, so mu is in the BWB locus at l iff top <= l.  For regular
        mu, mu = w . lam with lam dominant and length = l(w); for singular
        mu, length is -1 and lam is None.

        In rank 2, W = S3 permutes the epsilon-coordinates (x0 + x1, x1, 0)
        of mu + rho = (x0, x1): l(w) counts their inversions, the gaps of the
        sorted triple are lam + rho, a tie is a wall, and top is max - min.
        """
        if self.rank == 1:
            x = mu[0] + 1
            if x > 0:
                return x, 0, mu
            if x < 0:
                return -x, 1, (-x - 1,)
            return 0, -1, None
        x0 = mu[0] + 1
        x1 = mu[1] + 1
        s = x0 + x1
        hi = s if s > x1 else x1
        lo = s if s < x1 else x1
        if hi < 0:
            hi = 0
        elif lo > 0:
            lo = 0
        if x0 == 0 or x1 == 0 or s == 0:
            return hi - lo, -1, None
        mid = s + x1 - hi - lo
        return hi - lo, (x0 < 0) + (x1 < 0) + (s < 0), (hi - mid - 1, mid - lo - 1)

    def locate(self, mu: Weight, l: int):
        """Place mu relative to the dot-Weyl chambers and the bound l.

        Returns Singular() when mu + rho lies on a wall; otherwise the unique
        (w, lam) with lam dominant and w . lam = mu, wrapped as Located when
        l = 0 or mu is inside the locus, and as OutsideLocus when l > 0 and
        the orbit leaves the bounded region.  lam and l(w) come from `place`,
        and w is the element of mu's sign chamber.
        """
        check_bound(l)
        top, length, lam = self.place(mu)
        if lam is None:
            return Singular()
        w = self._chamber[self._signs(mu)]
        if w.length != length:
            raise InvariantError(f"the chamber of {mu} names {w}, of length {w.length}, "
                                 f"but place gives length {length}")
        if l > 0 and top > l:
            return OutsideLocus(w, lam)
        return Located(w, lam)


class Singular(Frozen):
    __slots__ = ()


class Located(Frozen):
    __slots__ = ("w", "lam")
    def __init__(self, w: WeylElement, lam: Weight):
        set_field(self, "w", w)
        set_field(self, "lam", lam)


class OutsideLocus(Frozen):
    __slots__ = ("w", "lam")
    def __init__(self, w: WeylElement, lam: Weight):
        set_field(self, "w", w)
        set_field(self, "lam", lam)


# 0 and the primes below 100: the bounds check_bound passes without trial
# division
_SMALL_BOUNDS = frozenset({0, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
                           61, 67, 71, 73, 79, 83, 89, 97})


def check_bound(l: int) -> None:
    """Raise ValueError unless l is 0 (no bound) or a prime."""
    # an int only: 5.0 hashes like 5 but is no bound
    if type(l) is int and l in _SMALL_BOUNDS:
        return
    if l != 0 and not is_prime(l):
        raise ValueError(f"l must be 0 or a prime, got {l}")


A1 = RootDatum(1)
A2 = RootDatum(2)

# Named SL3 weights (fundamental-weight coordinates).
L1: Weight = (1, 0)
L2: Weight = (-1, 1)
L3: Weight = (0, -1)
RHO: Weight = A2.rho
ALPHA: Weight = A2.simple_roots[0]
BETA: Weight = A2.simple_roots[1]


def _check_named_weights() -> None:
    """L1 - L2 = alpha, L2 - L3 = beta, L1 - L3 = rho and L1 + L2 + L3 = 0."""
    if (A2.sub(L1, L2), A2.sub(L2, L3), A2.sub(L1, L3)) != (ALPHA, BETA, RHO):
        raise InvariantError("the named weights L1, L2, L3 do not give alpha, beta, rho")
    if A2.add(A2.add(L1, L2), L3) != (0, 0):
        raise InvariantError("L1 + L2 + L3 is not 0")


_check_named_weights()


# -- divisor class group of the special fibre (n = 3) ------------------------


class ClassGroupElement(Frozen):
    """Element of X*(T) / <3(L1 + L3)> = Z x Z/3."""

    __slots__ = ("free_part", "torsion_part")
    def __init__(self, free_part: int, torsion_part: int):
        if not 0 <= torsion_part < 3:  # residue mod 3, normalized to {0, 1, 2}
            raise ValueError("torsion part must be reduced mod 3")
        set_field(self, "free_part", free_part)
        set_field(self, "torsion_part", torsion_part)

    def __str__(self) -> str:
        return f"({self.free_part}, {self.torsion_part} mod 3)"


def class_reduce(lam: Weight) -> ClassGroupElement:
    """Reduction X*(T) -> Z x Z/3, (a, b) -> (a + b, b mod 3).

    The kernel is exactly the subgroup generated by 3(L1 + L3) = (3, -3).
    """
    a, b = lam
    return ClassGroupElement(a + b, b % 3)


def iota(lam: Weight) -> Weight:
    """Involution induced by A -> A^{-T}: interchanges L1 and -L3, i.e. swaps
    fundamental-weight coordinates."""
    a, b = lam
    return (b, a)


def self_dual_classes(omega: Weight = RHO) -> list[tuple[ClassGroupElement, Weight]]:
    """All classes [lam] with [omega - lam] = [iota(lam)] in the class group.

    Returned as (class, canonical representative) pairs; representatives are
    chosen with second coordinate in {0, 1, -1}.  For omega = rho these are
    the classes of L1, -L3 and 2L1 + L3.
    """
    # [omega] = [lam] + [iota lam]; with s = a + b this reads
    # 2s = free(omega) and s = torsion(omega) mod 3.
    target = class_reduce(omega)
    if target.free_part % 2 != 0:
        return []
    s = target.free_part // 2
    if s % 3 != target.torsion_part % 3:
        return []
    out = []
    for b in (0, 1, -1):
        rep = (s - b, b)
        out.append((class_reduce(rep), rep))
    return out
