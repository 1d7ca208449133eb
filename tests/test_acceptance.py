"""Acceptance suite: the eleven exit criteria, exact equalities throughout.

Each test prints one PASS/FAIL line.  Two tabulated constants are asserted in
corrected form (the Euler characteristic of wedge^2(b) (x) b and the fourth
potential-support count); the correction is forced by the claimed H^2 and by
the wedge-power decomposition identities, both of which are cross-checked
here before the corrected values are used.
"""

import io
import itertools
import json
import time
from contextlib import redirect_stdout

from steinberg import bwb, liealg
from steinberg.breps import WeightMultiset, build_rep
from steinberg.campaigns import bwb_tables_campaign, dims_campaign
from steinberg.cases import (IdealCase, cn_ideal_reduction, commutator_layer_check,
                             hilbert_cross_check, make_ideal, multiplicity,
                             parametrization_check, span17_check)
from steinberg.cli import main as cli_main
from steinberg.liealg import identity_suite, span_check
from steinberg.polyalg import groebner, hilbert_function, min_gen_degrees, normal_form
from steinberg.report import Emitter, load_data_text
from steinberg.weights import A2, ClassGroupElement, class_reduce, iota, self_dual_classes


def report(criterion, ok, detail=""):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_bwb_table_consistency():
    start = time.monotonic()
    em = Emitter()
    bwb_tables_campaign(em, 5)
    table_entries = [e for e in em.entries if e.check_id.startswith("bwb.l5.tab")]
    ok = all(e.status in ("pass", "skipped") for e in table_entries)
    # alternating sums equal chi for every fully known row
    tables = bwb.parse_tables(load_data_text("tables.txt"))
    for table in tables.values():
        for row in table.rows:
            if any(c == bwb.UNKNOWN for c in row.claims):
                continue
            total = bwb.GrothendieckElement.zero()
            for i, c in enumerate(row.claims):
                total = total + c.scale((-1) ** i)
            ok = ok and total == bwb.euler_char(build_rep(row.rep_text))
    ok = ok and str(bwb.euler_char(build_rep("b*b"))) == "-[V(0,0)]"
    # corrected sign: forced by H^2 = g^2 (+) F and by the decomposition identity
    w3b = build_rep("wedge^3(b)")
    w2bxb = build_rep("wedge^2(b)*b")
    lhs = build_rep("wedge^3(b + b)")
    ok = ok and lhs == w3b.add(w3b).add(w2bxb).add(w2bxb)
    forced = bwb.euler_char(lhs) + bwb.euler_char(w3b).scale(-2)
    chi = bwb.euler_char(w2bxb)
    ok = ok and forced == chi.scale(2)
    ok = ok and str(chi) == "2[V(1,1)] + [V(0,0)]"
    elapsed = time.monotonic() - start
    report(1, ok and elapsed < 60,
           f"tables at l=5 plus chi values, corrected second sign; {elapsed:.2f}s")


def test_criterion_02_psupp_exactness():
    start = time.monotonic()
    rep = build_rep("wedge^2(b)*b")
    got = [bwb.psupp(rep, i, 5) for i in range(4)]
    expect = [WeightMultiset({(0, 0): 2}), WeightMultiset({(0, 0): 10}),
              WeightMultiset({(0, 0): 14, (1, 1): 2}), WeightMultiset({(0, 0): 5})]
    ok = got == expect
    # the corrected fourth count is pinned by direct enumeration of -2rho
    bweights = [(0, 0), (0, 0), (-2, 1), (1, -2), (-1, -1)]
    count = 0
    for (i, j) in itertools.combinations(range(5), 2):
        for k in range(5):
            s = tuple(bweights[i][t] + bweights[j][t] + bweights[k][t] for t in (0, 1))
            if s == (-2, -2):
                count += 1
    ok = ok and count == 5
    elapsed = time.monotonic() - start
    report(2, ok and elapsed < 60, f"psupp^3 count corrected to 5 by enumeration; {elapsed:.2f}s")


def test_criterion_03_lie_algebra_identities():
    start = time.monotonic()
    ok = True
    for char in (0, 5, 7, 11):
        em = Emitter()
        identity_suite(em, char)
        ok = ok and len(em.entries) == 17 and all(e.status == "pass" for e in em.entries)
    dim, joint, _, _ = span_check(0)
    ok = ok and dim == 17 and joint == 17
    big = liealg.build_based_rep("wedge^2(b)*wedge^2(b)", 0)
    ok = ok and WeightMultiset(big.weights).multiplicity((-3, -3)) == 2
    fld = big.fld
    v = liealg.pure_tensor_vector(big, (("fr", "fb"), ("fb", "ta")))
    target = liealg.pure_tensor_vector(big, (("fr", "fb"), ("fr", "fa")))
    ea2 = big.act("ea", big.act("ea", v))
    units = [u for u in (1, -1)
             if ea2 == {k: fld.of(2 * u) * c for k, c in target.items()}]
    ok = ok and units == [-1]
    elapsed = time.monotonic() - start
    report(3, ok and elapsed < 60,
           f"17 identities over Q, F5, F7, F11; span 17; coefficient 2 (unit -1); {elapsed:.2f}s")


def test_criterion_04_n2_presentation():
    start = time.monotonic()
    ok = True
    for char in (0, 5):
        gb = groebner(make_ideal(IdealCase("n2", char)), 5)
        ok = ok and min_gen_degrees(gb, 5).dims == (0, 0, 6, 0, 0, 0)
    passed, _, _ = hilbert_cross_check(IdealCase("n2", 5), 6)
    ok = ok and passed
    elapsed = time.monotonic() - start
    report(4, ok and elapsed < 60, f"6 generators in degree 2; cross check to 6; {elapsed:.2f}s")


def test_criterion_05_n3_presentation():
    start = time.monotonic()
    ok = True
    dims_by_char = {}
    for char in (0, 5, 7):
        gb = groebner(make_ideal(IdealCase("n3-z", char)), 5)
        ok = ok and min_gen_degrees(gb, 5).dims == (0, 0, 3, 36, 0, 0)
        dims_by_char[char] = hilbert_function(gb, 5).dims
        if char == 0:
            from steinberg.cases import build_case, mat_mul

            data = build_case(IdealCase("n3-z", 0))
            ring, M, N = data.ring, data.mats["M"], data.mats["N"]
            mnm = mat_mul(ring, mat_mul(ring, M, N), M)
            ok = ok and all(not normal_form(mnm[i][j], gb) for i in range(3) for j in range(3))
    passed, _, _ = hilbert_cross_check(IdealCase("n3-z", 5), 5)
    ok = ok and passed
    ok = ok and dims_by_char[0] == dims_by_char[5] == dims_by_char[7]
    elapsed = time.monotonic() - start
    report(5, ok and elapsed < 300,
           f"(3, 36) generators; MNM reduces to 0; cross check and flatness; {elapsed:.2f}s")


def test_criterion_06_commutator_layer():
    start = time.monotonic()
    passed, _, actual = commutator_layer_check(5, 5)
    ok = passed and actual.startswith("8 new; ")
    elapsed = time.monotonic() - start
    report(6, ok and elapsed < 60, f"8 degree-2 generators over the pair ring; {elapsed:.2f}s")


def test_criterion_07_span17_and_invariant_factors():
    start = time.monotonic()
    ok = True
    for char in (0, 5):
        passed, _, actual = span17_check(char)["traceless"]
        ok = ok and passed and actual == "rank 17, free 17, torsion [], snf primes [2]"
    elapsed = time.monotonic() - start
    report(7, ok and elapsed < 60, f"rank 17 over Q and F5; snf primes within {{2}}; {elapsed:.2f}s")


def test_criterion_08_parametrization_containment():
    start = time.monotonic()
    ok = True
    for tag in ("n3-z", "n3-x", "gl-n2", "gl-n3"):
        pr = parametrization_check(IdealCase(tag), trials=200, seed=0)
        ok = ok and pr.passed and pr.bound_exponent >= 6
    cn = cn_ideal_reduction(None)
    ok = ok and cn.principal and cn.passed
    ok = ok and cn.normalized_text == "1*q^2*e - 1*c*d + 1*a*f - 1*e"
    ok = ok and cn.generator_text == "-1*q*c*d + 1*q^2*e - 1*q*e + 1*a*f"
    elapsed = time.monotonic() - start
    report(8, ok and elapsed < 120,
           f"200-trial containment; symbolic generator normalizes to (q^2-1)e+af-dc; {elapsed:.2f}s")


def test_criterion_09_dimensions():
    start = time.monotonic()
    em = Emitter()
    dims_campaign(em)
    by_id = {e.check_id: e for e in em.entries}
    ok = all(e.status == "pass" for e in em.entries)
    expected = {"dims.c7.hypersurface": "5", "dims.c7.nonregular-locus": "4",
                "dims.c7.fibre": "8", "dims.c7.fibre-squares": "6"}
    for cid, val in expected.items():
        ok = ok and by_id[cid].actual == val
    elapsed = time.monotonic() - start
    report(9, ok and elapsed < 300, f"dimensions 5, 4, 8, 6; {elapsed:.2f}s")


def test_criterion_10_class_group_and_multiplicities():
    start = time.monotonic()
    ok = True
    for a in range(-30, 31):
        for b in range(-30, 31):
            in_kernel = class_reduce((a, b)) == ClassGroupElement(0, 0)
            ok = ok and in_kernel == (a + b == 0 and b % 3 == 0)
    sd = self_dual_classes((1, 1))
    ok = ok and [rep for _, rep in sd] == [(1, 0), (0, 1), (2, -1)]
    ok = ok and all(class_reduce(A2.sub((1, 1), r)) == class_reduce(iota(r)) for _, r in sd)
    ok = ok and [multiplicity(w) for w in ((1, 0), (0, 1), (2, -1), (1, 1))] == [3, 3, 16, 8]
    elapsed = time.monotonic() - start
    report(10, ok and elapsed < 60, f"kernel box, three self-dual classes, (3,3,16,8); {elapsed:.2f}s")


def _run_cli(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli_main(argv)
    return code, out.getvalue()


def test_criterion_11_determinism():
    start = time.monotonic()
    ok = True
    commands = [
        ["verify", "multiplicities", "--format", "json", "--seed", "5"],
        ["verify", "classgroup", "--format", "json", "--seed", "5"],
        ["verify", "span", "--char", "5", "--format", "json", "--seed", "5"],
        ["verify", "ideal", "--case", "n2", "--char", "5", "--degree-bound", "4",
         "--trials", "25", "--seed", "5", "--format", "json"],
        ["verify", "ideal", "--case", "cnil", "--char", "0", "--degree-bound", "3",
         "--trials", "25", "--seed", "5", "--format", "json"],
        ["verify", "bwb-tables", "--l", "5", "--format", "json"],
        ["verify", "dims", "--format", "json"],
        ["compute", "chi", "--rep", "wedge^2(b)*b"],
        ["compute", "psupp", "--rep", "b*b", "--i", "1", "--l", "5"],
    ]
    for argv in commands:
        code1, out1 = _run_cli(list(argv))
        code2, out2 = _run_cli(list(argv))
        ok = ok and code1 == code2 and out1 == out2
        if argv[0] == "verify":
            ok = ok and code1 == 0 and json.loads(out1)["summary"]["fail"] == 0
    elapsed = time.monotonic() - start
    report(11, ok and elapsed < 300, f"byte-identical repeated reports; {elapsed:.2f}s")
