"""The mutation matrix: each mutation of an input of `verify all` must turn
named check ids to fail.

A data file is mutated in a copy read through STEINBERG_DATA_DIR, a
generator list through a patched `build_case`.  Each mutation runs one
`verify all` (seed 0, 5 trials) on a memo of its own.  The report's ids that
no mutation turns to fail are printed (`pytest -s`): checks that no input
mutation here reaches.

The census is a ratchet: `mutation_census.json` records, family by family,
the ids each mutant fails, or "survived":
- tables: every χ-preserving two-cell change of a known table row at l = 5,
  through `bwb.verify_table`;
- multiplicities: every value of multiplicities.txt ±1, through
  `campaigns.multiplicities_campaign`;
- generators: every coefficient of a case's generator list doubled, and
  negated, through `campaigns.ideal_campaign` at each (case, char, bound) of
  `verify all`.  n3-z, n3-x and gl-n3 take about seven minutes, so they are
  marked `slow` (deselected by default; `pytest -m slow` runs them) and
  their entries list the survivors only;
- python-values: every coefficient of `liealg._BASE_IDENTITIES` (an
  identity's coeff and each coefficient of its bracket and extra terms)
  negated, and doubled, through `campaigns.identities_campaign` over Q; and
  every multiplicity of the spot values of `campaigns.bwb_tables_campaign`
  (`CHI_BXB`, `CHI_W2BXB`, each cell of `PSUPP_W2BXB`) moved by ±1, through
  that campaign at l = 5.
"""

import json
import re
import shutil
from itertools import combinations
from pathlib import Path

import pytest

from steinberg import bwb, campaigns, cases, liealg
from steinberg.breps import build_rep
from steinberg.bwb import CohomologyTable, GrothendieckElement, TableRow
from steinberg.fieldops import mat_add, mat_mul, mat_sub
from steinberg.report import FAIL, Emitter

DATA = Path(cases.__file__).parent / "data"
CENSUS = Path(__file__).with_name("mutation_census.json")


def _edit_data(m, tmp, name, edits):
    """Point STEINBERG_DATA_DIR at a copy of the data files in which each
    (old, new) of edits is applied to the file `name`, once."""
    for data_file in DATA.glob("*.txt"):
        shutil.copy(data_file, tmp / data_file.name)
    text = (tmp / name).read_text()
    for old, new in edits:
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    (tmp / name).write_text(text)
    m.setenv("STEINBERG_DATA_DIR", str(tmp))


def _edit_case(m, tag, change):
    """Patch build_case so that the case `tag`, at every characteristic,
    reads its generator list through change(ring, gens)."""
    built = cases.build_case

    def faulty(case):
        data = built(case)
        if case.tag != tag:
            return data
        return cases.CaseData(data.ring, change(data.ring, list(data.gens)), data.mats)

    m.setattr(cases, "build_case", faulty)
    m.setattr(campaigns, "build_case", faulty)


def _flip_a_sign(ring, gens):
    """Generator 5 of n3-z, the first entry of M^2 N, with the sign of its
    first term flipped."""
    mono = next(iter(gens[5]))
    gens[5] = ring.sub(gens[5], ring.scale({mono: gens[5][mono]}, 2))
    return gens


def _sigma_q_without_cq2(ring, gens):
    """gl-n3 with its nine commutator entries taken with Sigma^q = I +
    q(Sigma - I), the C(q, 2)(Sigma - I)^2 term dropped."""
    Phi = [[ring.var(f"f{i}{j}") for j in (1, 2, 3)] for i in (1, 2, 3)]
    Sigma = [[ring.var(f"s{i}{j}") for j in (1, 2, 3)] for i in (1, 2, 3)]
    one = [[ring.const(int(i == j)) for j in range(3)] for i in range(3)]
    q_nil = [[ring.mul(ring.var("q"), x) for x in row] for row in mat_sub(ring, Sigma, one)]
    comm = mat_sub(ring, mat_mul(ring, Phi, Sigma), mat_mul(ring, mat_add(ring, one, q_nil), Phi))
    return [x for row in comm for x in row] + gens[9:]


# mutation -> (how it is applied, the ids it must turn to fail)
MUTATIONS = {
    "tables-claim-above-psupp": (
        lambda m, tmp: _edit_data(m, tmp, "tables.txt", [
            ('j=3 i=2 rep="wedge^2(b)*b" : 2*V(1,1)', 'j=3 i=2 rep="wedge^2(b)*b" : 3*V(1,1)')]),
        [f"bwb.l{l}.{name}" for l in (5, 7)
         for name in ("aux.w2b_x_b.j3.i2", "aux.w2b_x_b.j3.chi", "chi.rows")]),
    "multiplicity-value": (
        lambda m, tmp: _edit_data(m, tmp, "multiplicities.txt", [
            ("(1,0)    L1        3", "(1,0)    L1        4")]),
        ["multiplicity.L1"]),
    "n3-z-generator-sign": (
        lambda m, tmp: _edit_case(m, "n3-z", _flip_a_sign),
        [f"ideal.n3-z.c{char}.{name}" for char in (0, 5, 7)
         for name in ("mingens", "hilbert-cross", "points")] + ["ideal.n3-x.c5.containment"]),
    "gl-n3-sigma-q-without-cq2": (
        lambda m, tmp: _edit_case(m, "gl-n3", _sigma_q_without_cq2),
        ["ideal.gl-n3.c5.chart-symbolic", "ideal.gl-n3.c5.points"]),
}


@pytest.fixture(scope="module")
def matrix(tmp_path_factory):
    """mutation -> {check id: status} of one `verify all` under it."""
    out = {}
    for name, (apply, _) in MUTATIONS.items():
        with pytest.MonkeyPatch.context() as m:
            apply(m, tmp_path_factory.mktemp(name))
            m.setattr(cases, "_memo", {})
            em = Emitter()
            campaigns.verify_all(em, seed=0, trials=5)
        out[name] = {e.check_id: e.status for e in em.entries}
    return out


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_a_mutation_turns_its_checks_to_fail(matrix, name):
    failed = {cid for cid, status in matrix[name].items() if status == FAIL}
    assert set(MUTATIONS[name][1]) <= failed, sorted(failed)


@pytest.mark.xfail(strict=True, reason="the psupp bounds cannot see a cancelling pair; "
                                       "the cobar complex of ROADMAP item 15 can")
def test_a_cancelling_trivial_pair_turns_a_check_to_fail(tmp_path):
    """V(0,0) added to degrees 0 and 1 of tab1 wedge^1(b): the alternating
    sum is unchanged, and psupp^0 and psupp^1 both hold V(0,0)."""
    line = 'tab1 wedge_b j=1 i={} rep="wedge^1(b)" : '
    with pytest.MonkeyPatch.context() as m:
        _edit_data(m, tmp_path, "tables.txt",
                   [(line.format(i) + "0\n", line.format(i) + "1*V(0,0)\n") for i in (0, 1)])
        em = Emitter()
        for l in (5, 7):
            campaigns.bwb_tables_campaign(em, l)
    assert [e.check_id for e in em.entries if e.status == FAIL]


def test_print_the_ids_no_mutation_flips(matrix):
    ids = set().union(*matrix.values())
    flipped = {cid for statuses in matrix.values()
               for cid, status in statuses.items() if status == FAIL}
    unflipped = sorted(ids - flipped)
    print(f"\n{len(unflipped)} of {len(ids)} `verify all` ids flipped by no mutation:")
    print("\n".join(unflipped))
    assert flipped < ids


# -- the census of table mutants ------------------------------------------------------

# weights each row is mutated in, besides those of its psupp^0..3
_CENSUS_WEIGHTS = {(0, 0), (1, 0), (0, 1), (1, 1), (2, 2)}


def _table_mutants(l=5):
    """name -> one-row CohomologyTable, for each row of tables.txt with no
    `?` cell: one λ changed by ±1 in two degrees i < j, with the same sign
    when j - i is odd and opposite signs when it is even (so the alternating
    sum is unchanged), and no multiplicity negative.  λ ranges over the
    weights of psupp^0..3 of the row and _CENSUS_WEIGHTS."""
    tables = bwb.parse_tables((DATA / "tables.txt").read_text())
    for table in tables.values():
        for row in table.rows:
            if bwb.UNKNOWN in row.claims:
                continue
            rep = build_rep(row.rep_text)
            weights = {w for i in range(4) for w, _ in bwb.psupp(rep, i, l)} | _CENSUS_WEIGHTS
            for lam in sorted(weights):
                for i, j in combinations(range(4), 2):
                    for s in (1, -1):
                        t = s if (j - i) % 2 else -s
                        claims = list(row.claims)
                        claims[i] += GrothendieckElement([(lam, s)])
                        claims[j] += GrothendieckElement([(lam, t)])
                        if any(c < 0 for k in (i, j) for _, c in claims[k].terms):
                            continue
                        name = (f"{table.name}.{row.family}.j{row.j} V({lam[0]},{lam[1]}) "
                                f"i{i}{s:+d} i{j}{t:+d}")
                        mutant = TableRow(row.family, row.j, row.rep_text, tuple(claims))
                        yield name, CohomologyTable(table.name, table.l_min, (mutant,))


def _failed(em):
    return [e.check_id for e in em.entries if e.status == FAIL] or "survived"


def table_census(l=5) -> dict:
    """mutant name -> the ids verify_table fails on it at l, or "survived"."""
    out = {}
    for name, table in _table_mutants(l):
        em = Emitter()
        bwb.verify_table(em, table, l)
        out[name] = _failed(em)
    return out


def _against_the_census(listed, got):
    """A mutant not listed must be killed; a listed survivor must survive; a
    listed killed mutant must still fail each of its listed ids."""
    assert not set(listed) - set(got), f"no such mutants: {sorted(set(listed) - set(got))}"
    new = [m for m, ids in got.items() if ids == "survived" and listed.get(m) != "survived"]
    assert not new, f"new survivors, the checks lost power: {new}"
    killed = [m for m, ids in listed.items() if ids == "survived" and got[m] != "survived"]
    assert not killed, f"listed survivors now killed; delete their entries from {CENSUS.name}: " \
                       f"{killed}"
    weaker = {m: sorted(set(ids) - set(got[m])) for m, ids in listed.items()
              if ids != "survived" and not set(ids) <= set(got[m])}
    assert not weaker, f"listed ids that pass now, the checks lost power: {weaker}"


def _listed(family):
    return json.loads(CENSUS.read_text())[family]


def test_table_mutants_against_the_census():
    _against_the_census(_listed("tables"), table_census())


# -- the census of multiplicities.txt values --------------------------------------------


def _multiplicity_mutants():
    """name -> the (old, new) edit of the line of multiplicities.txt that
    moves its value by ±1."""
    for line in (DATA / "multiplicities.txt").read_text().splitlines():
        if line and not line.startswith("#"):
            _, name, value = line.split()
            for s in (1, -1):
                yield f"{name} {s:+d}", (line, line.removesuffix(value) + str(int(value) + s))


def multiplicity_census(tmp) -> dict:
    """mutant name -> the ids multiplicities_campaign fails on it, or "survived"."""
    out = {}
    for name, edit in _multiplicity_mutants():
        with pytest.MonkeyPatch.context() as m:
            _edit_data(m, tmp, "multiplicities.txt", [edit])
            em = Emitter()
            campaigns.multiplicities_campaign(em)
        out[name] = _failed(em)
    return out


def test_multiplicity_mutants_against_the_census(tmp_path):
    _against_the_census(_listed("multiplicities"), multiplicity_census(tmp_path))


# -- the census of generator coefficients -----------------------------------------------


def _scale_term(k, mono, factor):
    """change(ring, gens) for _edit_case: the term mono of generator k times
    factor."""
    def change(ring, gens):
        gens[k] = ring.add(gens[k], ring.scale({mono: gens[k][mono]}, factor - 1))
        return gens
    return change


def generator_census(tag, char, bound) -> dict:
    """mutant name -> the ids ideal_campaign (5 trials, seed 0) fails with one
    coefficient of the case's generator list at char doubled or negated, or
    "survived".  Each mutant runs on an empty case memo."""
    data = cases.build_case(cases.IdealCase(tag, char))
    out = {}
    try:
        for k, gen in enumerate(data.gens):
            for mono in gen:
                term = data.ring.to_text({mono: 1}).removeprefix("1*")
                for factor, how in ((2, "x2"), (-1, "neg")):
                    with pytest.MonkeyPatch.context() as m:
                        _edit_case(m, tag, _scale_term(k, mono, factor))
                        cases.clear_case_memo()
                        em = Emitter()
                        campaigns.ideal_campaign(em, tag, char, bound, 5, 0)
                    out[f"g{k} {term} {how}"] = _failed(em)
    finally:
        cases.clear_case_memo()
    return out


@pytest.mark.parametrize("tag, char, bound", [
    ("n2", 0, 6), ("n2", 5, 6), ("gl-n2", 5, 4), ("cnil", 0, 4),
    *(pytest.param(*run, marks=pytest.mark.slow)
      for run in (("n3-z", 0, 5), ("n3-z", 5, 5), ("n3-z", 7, 5), ("n3-x", 5, 5), ("gl-n3", 5, 4))),
])
def test_generator_mutants_against_the_census(tag, char, bound):
    """No mutant raises: a wrong generator list is a failed check, not an
    error that stops `verify all`."""
    _against_the_census(_listed("generators")[f"{tag}.c{char}"],
                        generator_census(tag, char, bound))


# -- the census of Python values: the coefficients of the base identities ----------------


def _scaled(terms, t, factor):
    return [(c * factor if s == t else c, term) for s, (c, term) in enumerate(terms)]


def _identity_mutants():
    """name -> `liealg._BASE_IDENTITIES` with one coefficient negated or
    doubled: an identity's coeff, or the coefficient of one of its bracket
    or extra terms."""
    base = liealg._BASE_IDENTITIES
    for k, (name, lhs, op, coeff, bracket, extra) in enumerate(base):
        for factor, how in ((-1, "neg"), (2, "x2")):
            rows = [("coeff", (name, lhs, op, coeff * factor, bracket, extra))]
            rows += [(f"bracket{t}", (name, lhs, op, coeff, _scaled(bracket, t, factor), extra))
                     for t in range(len(bracket))]
            rows += [(f"extra{t}", (name, lhs, op, coeff, bracket, _scaled(extra, t, factor)))
                     for t in range(len(extra))]
            for site, row in rows:
                yield f"{name} {site} {how}", base[:k] + [row] + base[k + 1:]


_TERM = re.compile(r"(-?\d*)\[V\((\d+),(\d+)\)\]|\((\d+),(\d+)\)(?:\^(\d+))?")


def _terms(text):
    """[(weight, multiplicity)] of a Grothendieck text such as
    "2[V(1,1)] + [V(0,0)]", or of a multiset text such as "{(0,0)^14 (1,1)^2}"."""
    out = []
    for c, a, b, ma, mb, e in _TERM.findall(text):
        if a:
            out.append(((int(a), int(b)), -1 if c == "-" else int(c or 1)))
        else:
            out.append(((int(ma), int(mb)), int(e or 1)))
    return out


def _value_mutants():
    """name -> (constant of campaigns, its mutated value): each multiplicity
    of the spot χ values and of each psupp cell of wedge^2(b) (x) b moved
    by ±1, a multiplicity 0 dropping its term."""
    for const, i in (("CHI_BXB", None), ("CHI_W2BXB", None),
                     *(("PSUPP_W2BXB", i) for i in range(4))):
        text = getattr(campaigns, const) if i is None else campaigns.PSUPP_W2BXB[i]
        terms = _terms(text)
        for t, (w, c) in enumerate(terms):
            for s in (1, -1):
                moved = [(v, c + s if u == t else c) for u, (v, c) in enumerate(terms)]
                moved = [(v, c) for v, c in moved if c]
                if i is None:
                    value = str(GrothendieckElement(moved))
                else:
                    cells = list(campaigns.PSUPP_W2BXB)
                    cells[i] = campaigns.fmt_multiset(moved)
                    value = tuple(cells)
                cell = const if i is None else f"{const}[{i}]"
                yield f"{cell} V({w[0]},{w[1]}) {s:+d}", (const, value)


def python_value_census() -> dict:
    """mutant name -> the ids identities_campaign fails over Q with one
    coefficient of the base identities changed, or bwb_tables_campaign at
    l = 5 with one spot value changed, or "survived"."""
    out = {}
    for name, identities in _identity_mutants():
        with pytest.MonkeyPatch.context() as m:
            m.setattr(liealg, "_BASE_IDENTITIES", identities)
            em = Emitter()
            campaigns.identities_campaign(em, 0)
        out[name] = _failed(em)
    for name, (const, value) in _value_mutants():
        with pytest.MonkeyPatch.context() as m:
            m.setattr(campaigns, const, value)
            em = Emitter()
            campaigns.bwb_tables_campaign(em, 5)
        out[name] = _failed(em)
    return out


def test_python_value_mutants_against_the_census():
    """An identity is checked up to a unit in {1, -1}, so negating the whole
    right-hand side survives: the coeff of an identity without extra terms,
    or its one bracket coefficient when it has no other."""
    _against_the_census(_listed("python-values"), python_value_census())
