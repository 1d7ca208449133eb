"""Verification campaigns wired together for the CLI driver.

Each campaign writes its entries to one Emitter under a unique id prefix, so
the aggregate run is exactly the disjoint union of the individual campaigns.
The library checks a campaign calls (bwb.verify_table, liealg.identity_suite,
liealg.wedge4_campaign) call em.add themselves where they decide each check.
"""

from __future__ import annotations

from . import bwb, liealg
from .breps import WeightMultiset, build_rep
from .cases import (IdealCase, _entries, build_case, case_basis, case_cn_reduction,
                    case_hilbert, case_points, chart_symbolic_check, clear_case_memo,
                    cn_ideal_reduction, commutator_layer_check, gl_specialization_check,
                    hilbert_cross_check, multiplicity, span17_check)
from .fieldops import mat_mul, mat_sub, mat_trace
from .helper import forked
from .polyalg import IdealBasis, groebner, krull_dim, min_gen_degrees, normal_form
from .report import Emitter, load_data_text
from .weights import A2, ClassGroupElement, class_reduce, iota, self_dual_classes


def fmt_multiset(ms: WeightMultiset) -> str:
    parts = []
    for w, m in ms:
        coord = "(" + ",".join(str(x) for x in w) + ")"
        parts.append(coord if m == 1 else f"{coord}^{m}")
    return "{" + " ".join(parts) + "}"


# -- bwb tables ---------------------------------------------------------------------


def bwb_tables_campaign(em: Emitter, l: int) -> None:
    tables = bwb.parse_tables(load_data_text("tables.txt"))
    pre = f"bwb.l{l}"
    for table in tables.values():
        bwb.verify_table(em, table, l)
    # alternating sums of every table row against euler_char, stated directly
    rows_ok = all(total == bwb.euler_char(build_rep(row.rep_text))
                  for table in tables.values() for row in table.rows
                  if (total := row.alternating_sum()) is not None)
    em.add(f"{pre}.chi.rows", rows_ok, "alternating sums equal chi", str(rows_ok), anchor="tab1")
    # Euler characteristic spot values
    chi_bxb = bwb.euler_char(build_rep("b*b"))
    em.add(f"{pre}.chi.bxb", str(chi_bxb) == "-[V(0,0)]", "-[V(0,0)]", str(chi_bxb), anchor="calc1")
    chi_w2 = bwb.euler_char(build_rep("wedge^2(b)*b"))
    em.add(f"{pre}.chi.w2bxb", str(chi_w2) == "2[V(1,1)] + [V(0,0)]",
           "2[V(1,1)] + [V(0,0)] (sign of the second term corrected)", str(chi_w2),
           anchor="calc2")
    # psupp exactness for wedge^2(b) (x) b
    expected_psupp = ["{(0,0)^2}", "{(0,0)^10}", "{(0,0)^14 (1,1)^2}", "{(0,0)^5}"]
    rep = build_rep("wedge^2(b)*b")
    good, witnesses = bwb.bwb_good(rep, l)
    for i in range(4):
        # outside the locus psupp is undefined: the check fails on the witnesses
        got = fmt_multiset(bwb.psupp(rep, i, l)) if good else f"witnesses {witnesses}"
        note = " (count corrected from 7)" if i == 3 else ""
        em.add(f"{pre}.psupp.w2bxb.i{i}", got == expected_psupp[i],
               expected_psupp[i] + note, got, anchor="calc2")
    # BWB-good examples
    good, _ = bwb.bwb_good(build_rep("b*b"), l)
    em.add(f"{pre}.good.bxb", good, "True", str(good), anchor="calc1")
    good2, wit = bwb.bwb_good(build_rep("g/b*(g/b)"), l)
    if l == 5:
        em.add(f"{pre}.good.gbxgb", (not good2) and fmt_multiset(wit) == "{(2,2)}",
               "False with witness {(2,2)}", f"{good2} witness {fmt_multiset(wit)}", anchor="calc1")
    # line cohomology examples
    trivial = bwb.GrothendieckElement.of((0, 0))
    for name, mu, want, text in (("trivial", (0, 0), {0: trivial}, "{0: [V(0,0)]}"),
                                 ("singular", (-1, -1), {}, "{}"),
                                 ("salpha", (-2, 1), {1: trivial}, "{1: [V(0,0)]}")):
        h = bwb.line_cohomology(mu, l)
        em.add(f"{pre}.line.{name}", h == want, text, str({k: str(v) for k, v in h.items()}),
               anchor="thm:BWB")


# -- identities / span ---------------------------------------------------------------


def identities_campaign(em: Emitter, char: int) -> None:
    liealg.identity_suite(em, char)
    liealg.wedge4_campaign(em, char)


def span_campaign(em: Emitter, char: int) -> None:
    pre = f"span.c{char}"
    dim, joint, ra, rb = liealg.span_check(char)
    em.add(f"{pre}.rep-side", joint == dim == 17, "dim V_(-2rho) = 17 with span equality",
           f"dim {dim}, joint rank {joint}, single ranks {ra}/{rb}", anchor="calc:wedge4")
    for ambient, (passed, expected, actual) in span17_check(char).items():
        em.add(f"{pre}.groebner-side.{ambient}", passed, expected, actual,
               anchor="thm:Z-ideal-sl3")


# -- per-case ideal campaigns ----------------------------------------------------------


def ideal_campaign(em: Emitter, tag: str, char: int, bound: int, trials: int, seed: int) -> None:
    pre = f"ideal.{tag}.c{char}"
    case = IdealCase(tag, char)
    anchor = {
        "n2": "thm:gl2-eqns", "n3-z": "thm:Z-ideal-sl3", "n3-x": "thm:X-ideal-sl3",
        "gl-n2": "cor:Xc-eqns-sl2", "gl-n3": "cor:Xc-equations-sl3", "cnil": "lem:ZYproperties",
    }[tag]

    if tag == "cnil":
        rep = case_cn_reduction(IdealCase(tag, 0))
        em.add(f"{pre}.symbolic", rep.principal and rep.passed,
               "single generator; normalized form q^2*e - e + a*f - d*c",
               f"raw {rep.generator_text}; normalized {rep.normalized_text}", anchor=anchor)
        rep1 = cn_ideal_reduction(1, 3, char)
        em.add(f"{pre}.q1", rep1.passed, "a*f - c*d", rep1.generator_text, anchor=anchor)
        rep5 = cn_ideal_reduction(1, 3, 5)
        em.add(f"{pre}.q1-f5", rep5.passed, "a*f - c*d over GF(5)", rep5.generator_text,
               anchor=anchor)
        rep2 = cn_ideal_reduction(1, 2, char)
        em.add(f"{pre}.n2", rep2.passed and not rep2.entries, "zero ideal", str(rep2.entries),
               anchor=anchor)
    if tag in ("n2", "n3-z"):
        gb = case_basis(case, bound)
        mg = min_gen_degrees(gb, min(bound, 5))
        dims, text = {"n2": ((0, 0, 6, 0, 0, 0), "6 minimal generators, all in degree 2"),
                      "n3-z": ((0, 0, 3, 36, 0, 0), "(0, 0, 3, 36, 0, 0)")}[tag]
        em.add(f"{pre}.mingens", tuple(mg.dims) == dims[: len(mg.dims)], text, str(mg),
               anchor=anchor)
        passed, expected, actual = hilbert_cross_check(case, bound)
        em.add(f"{pre}.hilbert-cross", passed, expected, actual, anchor=anchor)
    if tag == "n3-z":
        data = build_case(case)
        ring, M, N = data.ring, data.mats["M"], data.mats["N"]
        bad = sum(1 for x in _entries(mat_mul(ring, mat_mul(ring, M, N), M),
                                      mat_mul(ring, mat_mul(ring, N, M), N))
                  if normal_form(x, gb))
        em.add(f"{pre}.mnm-normal-forms", bad == 0,
               "all 18 entries of MNM and NMN reduce to 0", f"{bad} nonzero", anchor=anchor)
        if char == 0:
            dims0 = case_hilbert(case, bound)
            same = all(case_hilbert(IdealCase(tag, l), bound).dims == dims0.dims for l in (5, 7))
            em.add(f"{pre}.flatness", same,
                   "graded dimensions agree over Q, F5, F7", str(dims0), anchor="lem:ZYproperties")
    elif tag == "n3-x":
        passed, expected, actual = commutator_layer_check(char if char else 5, min(bound, 5))
        em.add(f"{pre}.commutator-layer", passed, expected, actual, anchor=anchor)
        passed, expected, actual = _containment_dictionary(char if char else 5)
        em.add(f"{pre}.containment", passed, expected, actual, anchor=anchor)
    if tag.startswith("gl"):
        passed, expected, actual = gl_specialization_check(tag, char if char else 7)
        em.add(f"{pre}.q1-specialization", passed, expected, actual, anchor=anchor)
        passed, expected, actual = chart_symbolic_check(tag)
        em.add(f"{pre}.chart-symbolic", passed, expected, actual, anchor=anchor)
    # vanishing on the parametrized points is a characteristic-free identity:
    # evaluate the char-0 generator list modulo the fixed 31-bit prime, with a
    # fresh generic q per trial for the gl cases; one run serves every char
    pr = case_points(IdealCase(tag, 0), trials, seed)
    em.add(f"{pre}.points", pr.passed,
           f"all generators vanish on {trials} samples; bound {pr.bound_text}",
           f"failures {len(pr.failures)}, control detected {pr.control_detected}", anchor=anchor)


def _containment_dictionary(char: int) -> tuple[bool, str, str]:
    """(passed, expected, actual): the n3-z generators, mapped into the n3-x
    ring, with the traces and the commutator entries generate the n3-x ideal."""
    zcase = build_case(IdealCase("n3-z", char))
    xcase = build_case(IdealCase("n3-x", char))
    ring = xcase.ring
    mapped = [zcase.ring.substitute(g, {}, ring) for g in zcase.gens]
    M, N = xcase.mats["M"], xcase.mats["N"]
    comm = _entries(mat_sub(ring, mat_mul(ring, M, N), mat_mul(ring, N, M)))
    traces = [mat_trace(ring, M), mat_trace(ring, N)]
    gx = case_basis(IdealCase("n3-x", char), None)
    ga = groebner(IdealBasis(ring, mapped + traces + comm), 3)
    forward = all(not normal_form(g, gx) for g in mapped + traces + comm)
    backward = all(not normal_form(g, ga) for g in xcase.gens)
    return (forward and backward,
            "n3-z maps into n3-x; together with traces and commutators they generate it",
            "mutual normal forms vanish" if forward and backward
            else f"forward {forward}, backward {backward}")


# -- dimensions, multiplicities, class group --------------------------------------------


def dims_campaign(em: Emitter) -> None:
    char = 7
    pre = f"dims.c{char}"
    anchor = "lem:YtoF"
    # the q = 1 chart equation a*f - c*d of the ideal.cnil q1 checks, in a..f;
    # both ideals rest on it, so they pass only with its reduction
    chart = cn_ideal_reduction(1, 3, char)
    hypersurface = [e for _, e in chart.entries]
    a, c, d, f = (chart.ring.var(x) for x in "acdf")
    cases = [
        ("hypersurface", hypersurface, 5),
        ("nonregular-locus", hypersurface + [chart.ring.mul(a, c), chart.ring.mul(d, f)], 4),
    ]
    for name, gens, expected in cases:
        g = groebner(IdealBasis(chart.ring, gens), None)
        dim = krull_dim(g)
        em.add(f"{pre}.{name}", dim == expected and chart.passed, expected, dim, anchor=anchor)
    fibre = IdealCase("n3-x", char)
    data = build_case(fibre)
    ring, M, N = data.ring, data.mats["M"], data.mats["N"]
    squares = _entries(mat_mul(ring, M, M), mat_mul(ring, N, N))
    for name, basis, expected in (
        ("fibre", case_basis(fibre, None), 8),
        ("fibre-squares", groebner(IdealBasis(ring, list(data.gens) + squares), None), 6),
    ):
        dim = krull_dim(basis)
        em.add(f"{pre}.{name}", dim == expected, expected, dim, anchor=anchor)


def _multiplicity_rows():
    """(coordinate text, name, tabulated value, weight) per line of multiplicities.txt."""
    for line in load_data_text("multiplicities.txt").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        coord, name, expected = line.split()
        yield coord, name, expected, tuple(int(x) for x in coord.strip("()").split(","))


def multiplicities_campaign(em: Emitter) -> None:
    for _, name, expected, lam in _multiplicity_rows():
        got = multiplicity(lam)
        em.add(f"multiplicity.{name}", got == int(expected), expected, got, anchor="tab3")


def classgroup_campaign(em: Emitter) -> None:
    anchor = "thm:class-group"
    box = range(-30, 31)
    kernel_ok = True
    hom_ok = True
    for a in box:
        for b in box:
            cls = class_reduce((a, b))
            in_kernel = cls == ClassGroupElement(0, 0)
            expected = (a + b == 0) and (b % 3 == 0)
            if in_kernel != expected:
                kernel_ok = False
            other = ((a * 7 + 3) % 61 - 30, (b * 5 + 7) % 61 - 30)
            s = class_reduce((a + other[0], b + other[1]))
            t = cls, class_reduce(other)
            if (s.free_part != t[0].free_part + t[1].free_part
                    or s.torsion_part != (t[0].torsion_part + t[1].torsion_part) % 3):
                hom_ok = False
    em.add("classgroup.kernel", kernel_ok,
           "kernel on the box is exactly the multiples of (3,-3)", str(kernel_ok), anchor=anchor)
    em.add("classgroup.homomorphism", hom_ok, "additive on the box", str(hom_ok), anchor=anchor)
    iota_ok = all(iota(iota((a, b))) == (a, b) for a in box for b in box) and iota((1, 1)) == (1, 1)
    em.add("classgroup.involution", iota_ok,
           "iota is an involution fixing rho", str(iota_ok), anchor="prop:self-dual")
    sd = self_dual_classes((1, 1))
    reps = [rep for _, rep in sd]
    classes = [str(c) for c, _ in sd]
    em.add("classgroup.self-dual-count", len(sd) == 3, "3", len(sd), anchor="prop:self-dual")
    em.add("classgroup.self-dual-reps", reps == [(1, 0), (0, 1), (2, -1)],
           "[(1, 0), (0, 1), (2, -1)]", str(reps), anchor="prop:self-dual")
    defining = all(class_reduce(A2.sub((1, 1), rep)) == class_reduce(iota(rep)) for rep in reps)
    em.add("classgroup.self-dual-defining", defining,
           "class(rho - w) = class(iota w) for every representative", str(defining),
           anchor="prop:self-dual")
    em.add("classgroup.classes", classes == ["(1, 0 mod 3)", "(1, 1 mod 3)", "(1, 2 mod 3)"],
           "(1, 0), (1, 1), (1, 2) mod 3", "; ".join(classes), anchor="prop:self-dual")


# -- aggregate -----------------------------------------------------------------------


def _run(em: Emitter, calls) -> None:
    for campaign, *args in calls:
        campaign(em, *args)


def _entries_of(calls) -> list:
    em = Emitter()
    _run(em, calls)
    return em.entries


def verify_all(em: Emitter, seed: int = 0, trials: int = 200) -> None:
    """Every campaign, from two lists: a forked helper runs its list while
    the caller runs the other, and the helper's entries join em; Report
    sorts them by check id.  Each process has its own per-run store, so a
    campaign may go on either list: the split balances the two sides' times.
    When no helper is forked, or it dies or its pipe ends early, the caller
    runs the helper's whole list itself.  With a helper forked, neither
    process splits a Groebner degree (see `helper`)."""
    helper_calls = [
        (ideal_campaign, "n3-x", 5, 5, trials, seed),
        (ideal_campaign, "gl-n3", 5, 4, trials, seed),
        (dims_campaign,),
    ]
    calls = [
        (bwb_tables_campaign, 5), (bwb_tables_campaign, 7),
        (identities_campaign, 0), (identities_campaign, 5), (identities_campaign, 7),
        (span_campaign, 0), (span_campaign, 5),
        (ideal_campaign, "n2", 0, 6, trials, seed),
        (ideal_campaign, "n2", 5, 6, trials, seed),
        (ideal_campaign, "n3-z", 0, 5, trials, seed),
        (ideal_campaign, "n3-z", 5, 5, trials, seed),
        (ideal_campaign, "n3-z", 7, 5, trials, seed),
        (ideal_campaign, "gl-n2", 5, 4, trials, seed),
        (ideal_campaign, "cnil", 0, 4, trials, seed),
        (multiplicities_campaign,), (classgroup_campaign,),
    ]
    # the per-case memo lives for one run: its bases are freed on return
    try:
        with forked(lambda: _entries_of(helper_calls)) as join:
            _run(em, calls)
            entries = join() if join else None
            # inside the block: a caller whose helper died splits no Groebner
            # degree of the helper's list, as the helper would not have
            if entries is None:
                _run(em, helper_calls)
            else:
                em.entries.extend(entries)
    finally:
        clear_case_memo()


def tables_markdown() -> str:
    """Claimed cohomology tables next to the computed Euler characteristics,
    plus the multiplicity table, for human diffing."""
    out = []
    tables = bwb.parse_tables(load_data_text("tables.txt"))
    for name, table in tables.items():
        out.append(f"## table {name} (valid for l >= {table.l_min})")
        out.append("")
        out.append("| j | H^0 | H^1 | H^2 | H^3 | claimed chi | computed chi |")
        out.append("|---|---|---|---|---|---|---|")
        for row in table.rows:
            cells = ["?" if c == bwb.UNKNOWN else str(c) for c in row.claims]
            total = row.alternating_sum()
            claimed = "n/a" if total is None else str(total)
            computed = str(bwb.euler_char(build_rep(row.rep_text)))
            out.append(f"| {row.j} ({row.rep_text}) | " + " | ".join(cells)
                       + f" | {claimed} | {computed} |")
        out.append("")
    out.append("## multiplicities")
    out.append("")
    out.append("| weight | name | tabulated | computed |")
    out.append("|---|---|---|---|")
    for coord, name, expected, lam in _multiplicity_rows():
        out.append(f"| {coord} | {name} | {expected} | {multiplicity(lam)} |")
    out.append("")
    return "\n".join(out)
