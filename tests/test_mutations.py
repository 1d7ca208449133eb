"""The mutation matrix: each mutation of an input of `verify all` must turn
named check ids to fail.

A data file is mutated in a copy read through STEINBERG_DATA_DIR, a
generator list through a patched `build_case`.  Each mutation runs one
`verify all` (seed 0, 5 trials) on a memo of its own.  The report's ids that
no mutation turns to fail are printed (`pytest -s`): checks that no input
mutation here reaches.

The census of table mutants is a ratchet: `mutation_census.json` records,
for every χ-preserving two-cell change of a known table row at l = 5, the
ids that `bwb.verify_table` fails on it, or "survived".
"""

import json
import shutil
from itertools import combinations
from pathlib import Path

import pytest

from steinberg import bwb, campaigns, cases
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


def table_census(l=5) -> dict:
    """mutant name -> the ids verify_table fails on it at l, or "survived"."""
    out = {}
    for name, table in _table_mutants(l):
        em = Emitter()
        bwb.verify_table(em, table, l)
        out[name] = [e.check_id for e in em.entries if e.status == FAIL] or "survived"
    return out


def test_table_mutants_against_the_census():
    """A mutant not listed must be killed; a listed survivor must survive; a
    listed killed mutant must still fail each of its listed ids."""
    listed, got = json.loads(CENSUS.read_text()), table_census()
    assert not set(listed) - set(got), f"no such mutants: {sorted(set(listed) - set(got))}"
    new = [m for m, ids in got.items() if ids == "survived" and listed.get(m) != "survived"]
    assert not new, f"new survivors, the table checks lost power: {new}"
    killed = [m for m, ids in listed.items() if ids == "survived" and got[m] != "survived"]
    assert not killed, f"listed survivors now killed; delete their entries from {CENSUS.name}: " \
                       f"{killed}"
    weaker = {m: sorted(set(ids) - set(got[m])) for m, ids in listed.items()
              if ids != "survived" and not set(ids) <= set(got[m])}
    assert not weaker, f"listed ids that pass now, the table checks lost power: {weaker}"
