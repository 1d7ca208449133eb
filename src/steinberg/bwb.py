"""Line-bundle cohomology bookkeeping on the flag variety.

Exact statements only: Bott's theorem in characteristic zero; in
characteristic l the Borel-Weil-Bott statement inside the bounded alcove
region, plus the characteristic-free vanishing for weights mu with
<mu, kappa_vee> = -1 for a simple root kappa (equivalently, mu + rho on a
simple wall).  Everything else is refused with NotDecidable rather than
guessed.

Euler characteristics, potential supports (psupp) and the table verifier are
combinatorial in the weight multiset and need no cohomology beyond this.
Each multiset is placed once: its Bott summary (the largest alcove bound,
chi and the per-degree sums, none depending on l) is read off one pass over
its weights and kept in the multiset, and `euler_char`, `bwb_good` and
`psupp` answer from it.  l = 0 is characteristic zero throughout.
"""

from __future__ import annotations

from .breps import WeightMultiset, build_rep
from .fieldops import Frozen, InvariantError, set_field
from .weights import A2, RootDatum, Weight, check_bound


class NotDecidable(Exception):
    """Cohomology cannot be pinned down by the implemented statements."""


class NotBWBGood(Exception):
    """A weight multiset leaves the decidable locus; carries the witnesses."""

    def __init__(self, witnesses: WeightMultiset):
        super().__init__(f"weights outside the BWB locus: {witnesses}")
        self.witnesses = witnesses


class GrothendieckElement(Frozen):
    """Formal integer combination of dominant weights, sum of c_lam [V(lam)]."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        acc: dict[Weight, int] = {}
        pairs = terms.items() if isinstance(terms, dict) else terms
        for lam, c in pairs:
            if any(x < 0 for x in lam):
                raise ValueError(f"non-dominant weight {lam} in a Grothendieck class")
            if c:
                acc[lam] = acc.get(lam, 0) + c
        set_field(self, "terms", tuple(sorted((lam, c) for lam, c in acc.items() if c)))

    @classmethod
    def of(cls, lam: Weight) -> "GrothendieckElement":
        return cls([(lam, 1)])

    @classmethod
    def zero(cls) -> "GrothendieckElement":
        return cls()

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        return GrothendieckElement(list(self.terms) + list(other.terms))

    def scale(self, n: int) -> "GrothendieckElement":
        return GrothendieckElement([(l, n * c) for l, c in self.terms])

    def dimension(self, datum: RootDatum = A2) -> int:
        return sum(c * weyl_dim(lam, datum) for lam, c in self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        # descending weights read better: [V(1,1)] before [V(0,0)]
        parts = []
        for lam, c in sorted(self.terms, reverse=True):
            v = "[V(" + ",".join(str(x) for x in lam) + ")]"
            if not parts:
                if c == 1:
                    parts.append(v)
                elif c == -1:
                    parts.append("-" + v)
                else:
                    parts.append(f"{c}{v}")
            else:
                sign = " + " if c > 0 else " - "
                a = abs(c)
                parts.append(sign + (v if a == 1 else f"{a}{v}"))
        return "".join(parts)

    def __repr__(self):
        return f"<{self}>"


def weyl_dim(lam: Weight, datum: RootDatum = A2) -> int:
    """Dimension of the characteristic-zero irreducible V(lam)."""
    if not datum.dominant(lam):
        raise ValueError(f"weyl_dim needs a dominant weight, got {lam}")
    shifted = datum.add(lam, datum.rho)
    num = 1
    den = 1
    for c in datum.positive_coroots:
        num *= datum.pairing(shifted, c)
        den *= datum.pairing(datum.rho, c)
    if num % den:
        raise InvariantError(f"Weyl's dimension formula gives {num}/{den} at {lam}")
    return num // den


def _bott(rep: WeightMultiset, datum: RootDatum) -> tuple:
    """(datum, top, chi, degrees): the Bott summary of rep over datum, read
    off one pass over its weights and kept in `rep.bott`.

    top is the largest `place(mu)[0]`, so rep lies in the BWB locus at a
    prime l iff top <= l; chi is the Euler characteristic; degrees[i] sums
    the regular mu of length i at their dominant lam, as a dict that psupp
    copies into a multiset.  None of these depends on l.  A summary over
    another datum is replaced, not reused.
    """
    got = rep.bott
    if got is not None and got[0] is datum:
        return got
    placed, place = datum.placements.get, datum.place
    top_max = 0
    degrees: list[dict[Weight, int]] = [{} for _ in range(datum.weyl[-1].length + 1)]
    for mu, mult in rep:
        top, length, lam = placed(mu) or place(mu)
        if top > top_max:
            top_max = top
        if lam is not None:
            acc = degrees[length]
            acc[lam] = acc.get(lam, 0) + mult
    # chi = sum_i (-1)^i psupp^i, summed over every degree
    chi = GrothendieckElement([(lam, -m if i & 1 else m)
                               for i, acc in enumerate(degrees) for lam, m in acc.items()])
    got = (datum, top_max, chi, degrees)
    set_field(rep, "bott", got)
    return got


def _witnesses(rep: WeightMultiset, l: int) -> WeightMultiset:
    """The weights of rep outside the BWB locus at the prime l."""
    placed, place = A2.placements.get, A2.place
    return WeightMultiset({mu: mult for mu, mult in rep if (placed(mu) or place(mu))[0] > l})


def euler_char(rep: WeightMultiset, datum: RootDatum = A2) -> GrothendieckElement:
    """chi(V) = sum over weights of (-1)^{l(w)} [V(w . mu)], zero on walls.

    Characteristic independent and total: this is the Weyl/Bott algorithm in
    the Grothendieck group, read from the Bott summary of rep.
    """
    return _bott(rep, datum)[2]


def line_cohomology(mu: Weight, l: int) -> dict[int, GrothendieckElement]:
    """H^i(G/B, O(mu)) as {degree: class}, omitting zero groups.

    l = 0 is Bott's theorem.  For prime l the answer is asserted only when
    <mu + rho, kappa_vee> = 0 for a simple kappa (characteristic-free
    vanishing) or the dot orbit of mu meets the closed bottom alcove;
    otherwise NotDecidable is raised.  Everything is read off
    (top, length, lam) = A2.place(mu): mu is singular iff lam is None, and in
    the locus iff top <= l.
    """
    check_bound(l)
    top, length, lam = A2.place(mu)
    if lam is None:
        # mu + rho on a simple wall (<mu, kappa_vee> = -1) vanishes in every
        # characteristic; on the rho wall alone, only inside the locus
        if l == 0 or mu[0] == -1 or mu[1] == -1 or top <= l:
            return {}
        raise NotDecidable(f"singular weight {mu} outside the bounded region at l={l}")
    if l > 0 and top > l:
        raise NotDecidable(f"regular weight {mu} outside the bounded region at l={l}")
    return {length: GrothendieckElement.of(lam)}


def bwb_good(rep: WeightMultiset, l: int) -> tuple[bool, WeightMultiset]:
    """Whether every weight lies in the BWB locus; witnesses on failure.

    l = 0 is characteristic zero, where Bott's theorem holds for every
    weight.  Raises ValueError unless l is 0 or a prime, as `locate` does.
    Only a failing l makes a second pass over the weights, for witnesses.
    """
    check_bound(l)
    if l and _bott(rep, A2)[1] > l:
        return False, _witnesses(rep, l)
    return True, WeightMultiset({})


def psupp(rep: WeightMultiset, i: int, l: int) -> WeightMultiset:
    """Potential support in cohomological degree i for a BWB-good multiset.

    The multiplicity of a dominant lam in the bounded region is the sum of
    the multiplicities of w . lam over all w of length i, read from the Bott
    summary of rep.  Raises ValueError for an l that `locate` rejects or an
    i outside 0..max l(w), and NotBWBGood when a weight leaves the locus
    (never at l = 0).
    """
    check_bound(l)
    if not 0 <= i <= A2.weyl[-1].length:
        raise ValueError(f"degree i must lie in 0..{A2.weyl[-1].length}, got {i}")
    _, top, _, degrees = _bott(rep, A2)
    if l and top > l:
        raise NotBWBGood(_witnesses(rep, l))
    return WeightMultiset(degrees[i])


# -- claimed cohomology tables -------------------------------------------------

UNKNOWN = "?"


class TableRow(Frozen):
    __slots__ = ("family", "j", "rep_text", "claims")
    def __init__(self, family: str, j: int, rep_text: str, claims: tuple):
        set_field(self, "family", family)
        set_field(self, "j", j)
        set_field(self, "rep_text", rep_text)
        # cohomology claims per degree 0..3; GrothendieckElement or UNKNOWN
        set_field(self, "claims", claims)

    def alternating_sum(self) -> GrothendieckElement | None:
        """sum_i (-1)^i H^i of the claims; None when the row has an UNKNOWN."""
        if any(c == UNKNOWN for c in self.claims):
            return None
        total = GrothendieckElement.zero()
        for i, c in enumerate(self.claims):
            total = total + c.scale((-1) ** i)
        return total


class CohomologyTable(Frozen):
    __slots__ = ("name", "l_min", "rows")
    def __init__(self, name: str, l_min: int, rows: tuple[TableRow, ...]):
        set_field(self, "name", name)
        set_field(self, "l_min", l_min)
        set_field(self, "rows", rows)


MAX_DEGREE = 3  # dim G/B for SL3


def serialize_table(table: CohomologyTable) -> str:
    lines = [f"table {table.name} lmin={table.l_min}"]
    for row in table.rows:
        for i in range(MAX_DEGREE + 1):
            claim = row.claims[i]
            body = claim if claim == UNKNOWN else _print_claim(claim)
            lines.append(f'{table.name} {row.family} j={row.j} i={i} rep="{row.rep_text}" : {body}')
    return "\n".join(lines) + "\n"


def _print_claim(el: GrothendieckElement) -> str:
    if not el.terms:
        return "0"
    parts = []
    for lam, c in sorted(el.terms, reverse=True):
        parts.append(f"{c}*V(" + ",".join(str(x) for x in lam) + ")")
    return " + ".join(parts)


def _parse_claim(text: str) -> GrothendieckElement:
    text = text.strip()
    if text == "0":
        return GrothendieckElement.zero()
    terms = []
    for part in text.split(" + "):
        coeff_s, v = part.split("*V(")
        coords = tuple(int(x) for x in v.rstrip(")").split(","))
        terms.append((coords, int(coeff_s)))
    return GrothendieckElement(terms)


def serialize_tables(tables: dict[str, CohomologyTable]) -> str:
    return "".join(serialize_table(t) for t in tables.values())


def parse_tables(text: str) -> dict[str, CohomologyTable]:
    """Parse the shipped table format; inverse of serialize_table per table."""
    headers: dict[str, int] = {}
    rows: dict[tuple[str, str, int], dict] = {}
    order: list[tuple[str, str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("table "):
            _, name, lmin = line.split()
            headers[name] = int(lmin.removeprefix("lmin="))
            continue
        head, _, body = line.partition(" : ")
        fields = head.split()
        if len(fields) < 5:
            raise ValueError(f"line {lineno}: malformed table entry {raw!r}")
        tname, family = fields[0], fields[1]
        j = int(fields[2].removeprefix("j="))
        i = int(fields[3].removeprefix("i="))
        rep_text = head.split('rep="', 1)[1].rsplit('"', 1)[0]
        key = (tname, family, j)
        if key not in rows:
            rows[key] = {"rep": rep_text, "claims": [None] * (MAX_DEGREE + 1)}
            order.append(key)
        body = body.strip()
        rows[key]["claims"][i] = UNKNOWN if body == UNKNOWN else _parse_claim(body)
    tables: dict[str, CohomologyTable] = {}
    for name, lmin in headers.items():
        trows = []
        for key in order:
            if key[0] != name:
                continue
            data = rows[key]
            claims = tuple(
                GrothendieckElement.zero() if c is None else c for c in data["claims"]
            )
            trows.append(TableRow(key[1], key[2], data["rep"], claims))
        tables[name] = CohomologyTable(name, lmin, tuple(trows))
    return tables


def verify_table(em, table: CohomologyTable, l: int) -> None:
    """Consistency checks for a claimed cohomology table at characteristic l,
    added to the Emitter em under bwb.l<l>.<table>.<family>.j<j>.

    Per entry: (a) a vanishing psupp forces a vanishing claim; (b) claimed
    multiplicities are bounded by psupp multiplicities; per row: (c) the
    alternating sum of known claims equals the Euler characteristic.  Rows
    with unknown entries skip (c); unknown entries skip (a) and (b).  An
    empty psupp bounds every multiplicity by 0, so (b) covers (a).
    """
    anchor = table.name if table.name in ("tab1", "tab2") else "calc1-2"
    for row in table.rows:
        rep = build_rep(row.rep_text)
        rid = f"bwb.l{l}.{table.name}.{row.family}.j{row.j}"
        good, witnesses = bwb_good(rep, l)
        if not good:
            em.add(f"{rid}.bwb-good", False, "all weights in locus", f"witnesses {witnesses}",
                   anchor)
            continue
        for i, claim in enumerate(row.claims):
            if claim == UNKNOWN:
                em.add(f"{rid}.i{i}", True, anchor=anchor, skipped=True)
                continue
            support = psupp(rep, i, l)
            ok = all(0 <= c <= support.multiplicity(lam) for lam, c in claim.terms)
            em.add(f"{rid}.i{i}", ok, f"claims within psupp^{i} = {support}",
                   _print_claim(claim), anchor)
        total = row.alternating_sum()
        if total is None:
            em.add(f"{rid}.chi", True, anchor=anchor, skipped=True)
        else:
            chi = euler_char(rep)
            em.add(f"{rid}.chi", total == chi, chi, total, anchor)
