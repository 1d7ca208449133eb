"""The three benchmark workloads and their correctness gates.

Every workload is a closed loop with one caller in one thread.  Each has a
``setup`` (timed as ``setup_s``) and a ``body`` that runs operations until
its time is up (or until ``max_ops`` operations, for the traced replay) and
checks every answer:

* ``certify-all``: one operation is ``campaigns.verify_all`` plus
  ``Report.to_json``; each of its checks is compared with the reference
  report recorded in ``reference/certify-all.json``.
* ``rep-queries``: one operation is a bundle of character-side and
  Lie-model queries on one random rep expression.  Dimensions, Euler
  characteristics and Lie-model weights have independent oracles; the
  remaining answers are compared with per-item digests in
  ``reference/rep-queries.txt``.
* ``ideal-queries``: one operation is one ``normal_form`` call against a
  degree-truncated n3-z basis; members must reduce to 0 and a member plus a
  standard monomial to that monomial.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from time import perf_counter

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

VERIFY_TRIALS = 200
# wall_s of the query workloads is the median time of a round of this many
# consecutive operations; a certify-all round is one certification
ROUND_OPS = 64


@dataclass
class Body:
    """Outcome of one timed body."""

    start: tuple = ()  # Speedometer marks around the whole body
    end: tuple = ()
    op_marks: list = field(default_factory=list)  # marks around each library call
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.problems) < 10:
            self.problems.append(message)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# -- certify-all ---------------------------------------------------------------------


def report_reference(report_json: str) -> dict:
    """Digests of a report, with its seed normalised to 0."""
    doc = json.loads(report_json)
    doc["seed"] = 0
    return {
        "sha256": hashlib.sha256(json.dumps(doc, indent=2, sort_keys=True).encode()).hexdigest(),
        "summary": doc["summary"],
        "checks": {e["check_id"]: digest(json.dumps(e, sort_keys=True)) for e in doc["entries"]},
    }


def compare_report(ref: dict, got: dict) -> tuple[int, str]:
    """(number of wrong checks, description) of a report against the reference;
    a difference outside the check entries counts as one wrong check."""
    wrong = sorted(k for k in ref["checks"].keys() | got["checks"].keys()
                   if ref["checks"].get(k) != got["checks"].get(k))
    if wrong:
        return len(wrong), f"checks differ from the reference: {wrong[:5]}"
    if got["sha256"] != ref["sha256"] or got["summary"] != ref["summary"]:
        return 1, "report differs from the reference outside the check entries"
    return 0, ""


def certify(lib, seed: int) -> str:
    em = lib.report.Emitter()
    lib.campaigns.verify_all(em, seed=seed, trials=VERIFY_TRIALS)
    return lib.report.Report(em.entries, seed=seed).to_json()


class CertifyAll:
    name = "certify-all"
    round_ops = 1
    setup_repeats = 9

    def setup(self, lib, seed: int):
        lib.bwb.parse_tables(lib.report.load_data_text("tables.txt"))
        lib.report.load_data_text("multiplicities.txt")
        return json.loads((REFERENCE_DIR / "certify-all.json").read_text())

    def body(self, lib, ref, seed, seconds, clock, max_ops=None, fresh=None) -> Body:
        """One verify_all per operation; a later operation re-imports the
        library first (``fresh``), so no module-level cache carries over."""
        out = Body(start=clock.mark())
        while True:
            t0 = clock.mark()
            report_json = certify(lib, seed)
            out.op_marks.append((t0, clock.mark()))
            out.attempted += len(ref["checks"])
            failed, message = compare_report(ref, report_reference(report_json))
            if failed:
                out.fail(failed, message)
            if max_ops is not None and len(out.op_marks) >= max_ops:
                break
            # passes are counted in calibrated time, so a slow host does not
            # change how many a run makes
            if max_ops is None and clock.calibrated(out.start, clock.mark()) >= seconds:
                break
            lib = fresh()
        out.end = clock.mark()
        return out


# -- rep-queries ---------------------------------------------------------------------

# Items are drawn from a fixed universe, so the digests recorded once cover
# every workload seed; the seed chooses the order in which items are asked.
REP_UNIVERSE = 8192
REP_DIM_MAX = 600  # dimension of the queried representation
REP_WORK_MAX = 6000  # sum over the expression tree of the weights enumerated
LIE_DIM_MAX = 300  # dimension of an explicit Lie-algebra model
LIE_SHARE = 0.3  # share of items whose expression is in b and gets a Lie model
PRIMES = (5, 7, 11)
LIE_CHARS = (0, 5, 7, 11)
ATOM_DIMS = {"b": 5, "n": 3, "g": 8, "g/b": 3}


def weyl_dim_poly(mu) -> int:
    """Weyl's dimension polynomial prod <mu+rho, a_vee> / prod <rho, a_vee>
    for SL3, evaluated at any weight (signed, zero on the walls)."""
    a, b = mu
    return (a + 1) * (b + 1) * (a + b + 2) // 2


@dataclass
class Expr:
    text: str
    dim: int
    work: int
    binary: bool = False

    def arg(self) -> str:
        return f"({self.text})" if self.binary else self.text


def random_expr(rng: random.Random, depth: int, b_only: bool) -> Expr:
    """A random rep expression whose dimension and build work are known
    analytically, before anything is built."""
    if depth == 0 or rng.random() < 0.25:
        if b_only:
            return Expr("b", 5, 5)
        if rng.random() < 0.2:
            a, b = rng.randint(0, 2), rng.randint(0, 2)
            d = weyl_dim_poly((a, b))
            return Expr(f"F({a},{b})", d, 6 * (a + b + 1) ** 2)
        name = rng.choice(sorted(ATOM_DIMS))
        return Expr(name, ATOM_DIMS[name], ATOM_DIMS[name])
    ops = ("tensor", "sum", "wedge", "twist") if b_only else \
        ("tensor", "sum", "wedge", "sym", "dual", "twist")
    op = rng.choice(ops)
    if op in ("tensor", "sum"):
        left = random_expr(rng, depth - 1, b_only)
        right = random_expr(rng, depth - 1, b_only)
        if op == "tensor":
            dim = left.dim * right.dim
            return Expr(f"{left.arg()}*{right.arg()}", dim, left.work + right.work + dim, True)
        dim = left.dim + right.dim
        return Expr(f"{left.arg()} + {right.arg()}", dim, left.work + right.work + dim, True)
    inner = random_expr(rng, depth - 1, b_only)
    if op == "wedge":
        j = rng.randint(2, 4)
        dim = comb(inner.dim, j)
        return Expr(f"wedge^{j}({inner.text})", dim, inner.work + j * dim)
    if op == "sym":
        k = rng.randint(2, 4)
        dim = comb(inner.dim + k - 1, k)
        return Expr(f"sym^{k}({inner.text})", dim, inner.work + k * dim)
    if op == "dual":
        return Expr(f"dual({inner.text})", inner.dim, inner.work + inner.dim)
    a, b = rng.randint(-2, 2), rng.randint(-2, 2)
    return Expr(f"tw({a},{b})({inner.text})", inner.dim, inner.work + inner.dim)


@dataclass
class RepItem:
    index: int
    expr: Expr
    l: int
    weights: list
    lie_char: int | None  # characteristic of the Lie model, None for no model


def rep_item(index: int) -> RepItem:
    rng = random.Random(f"rep-queries/{index}")
    lie = rng.random() < LIE_SHARE
    dim_max = LIE_DIM_MAX if lie else REP_DIM_MAX
    while True:
        expr = random_expr(rng, 3, b_only=lie)
        if 0 < expr.dim <= dim_max and expr.work <= REP_WORK_MAX:
            break
    l = rng.choice(PRIMES)
    weights = [(rng.randint(-3 * l, 3 * l), rng.randint(-3 * l, 3 * l)) for _ in range(3)]
    return RepItem(index, expr, l, weights, rng.choice(LIE_CHARS) if lie else None)


def _multiset_text(ms) -> str:
    return repr(tuple(ms))


def ask_rep_item(lib, item: RepItem):
    """Run every query of one item; returns the answers as a dict."""
    bwb, weights = lib.bwb, lib.weights
    rep = lib.breps.build_rep(item.expr.text)
    chi = bwb.euler_char(rep)
    good, witnesses = bwb.bwb_good(rep, item.l)
    psupp = [bwb.psupp(rep, i, item.l) for i in range(4)] if good else []
    located, lines, classes = [], [], []
    for mu in item.weights:
        located.append(weights.A2.locate(mu, item.l))
        try:
            lines.append(bwb.line_cohomology(mu, item.l))
        except bwb.NotDecidable:
            lines.append(None)
        classes.append(weights.class_reduce(mu))
    model = lib.liealg.build_based_rep(item.expr.text, item.lie_char) \
        if item.lie_char is not None else None
    return {"rep": rep, "chi": chi, "good": good, "witnesses": witnesses, "psupp": psupp,
            "located": located, "lines": lines, "classes": classes, "model": model}


def rep_answer_digest(ans) -> str:
    parts = [_multiset_text(ans["rep"]), str(ans["chi"]), str(ans["good"]),
             _multiset_text(ans["witnesses"])]
    parts += [_multiset_text(p) for p in ans["psupp"]]
    for res in ans["located"]:
        w = getattr(res, "w", None)
        parts.append(f"{type(res).__name__}:{w.name if w else ''}:{getattr(res, 'lam', '')}")
    for h in ans["lines"]:
        parts.append("not-decidable" if h is None
                     else repr(sorted((k, str(v)) for k, v in h.items())))
    parts += [f"{c.free_part},{c.torsion_part}" for c in ans["classes"]]
    model = ans["model"]
    if model is not None:
        parts.append(repr([sorted((j, len(col)) for j, col in enumerate(model.ops[name]))
                           for name in sorted(model.ops)]))
    return digest("\n".join(parts))


def rep_oracle_errors(lib, item: RepItem, ans) -> list[str]:
    """Independent checks: analytic dimension, Weyl-polynomial chi, and the
    Lie model's weights against the character-level multiset."""
    errors = []
    rep = ans["rep"]
    if rep.dimension != item.expr.dim:
        errors.append(f"dim {rep.dimension} != analytic {item.expr.dim}")
    chi_dim = sum(m * weyl_dim_poly(mu) for mu, m in rep)
    if ans["chi"].dimension() != chi_dim:
        errors.append(f"chi dimension {ans['chi'].dimension()} != Weyl sum {chi_dim}")
    model = ans["model"]
    if model is not None and lib.breps.WeightMultiset(model.weights) != rep:
        errors.append(f"Lie model weights differ at char {item.lie_char}")
    return errors


def rep_order(seed: int) -> list[int]:
    """The order in which a workload seed asks the universe's items."""
    order = list(range(REP_UNIVERSE))
    random.Random(f"rep-queries/order/{seed}").shuffle(order)
    return order


class RepQueries:
    name = "rep-queries"
    round_ops = ROUND_OPS
    setup_repeats = 9

    def setup(self, lib, seed: int):
        lib.bwb.parse_tables(lib.report.load_data_text("tables.txt"))
        path = REFERENCE_DIR / "rep-queries.txt"
        digests = path.read_text().split()
        if len(digests) != REP_UNIVERSE:
            raise ValueError(f"{path} holds {len(digests)} digests, expected {REP_UNIVERSE}")
        return digests

    def body(self, lib, digests, seed, seconds, clock, max_ops=None, fresh=None) -> Body:
        order = rep_order(seed)
        if max_ops is not None:
            order = order[:max_ops]
        out = Body(start=clock.mark())
        start = perf_counter()
        for index in order:
            if max_ops is None and perf_counter() - start >= seconds:
                break
            item = rep_item(index)
            out.attempted += 1
            t0 = clock.mark()
            try:
                ans = ask_rep_item(lib, item)
            except Exception as e:  # a failed query is counted, not fatal
                out.op_marks.append((t0, clock.mark()))
                out.fail(1, f"item {index} {item.expr.text!r}: {type(e).__name__}: {e}")
                continue
            out.op_marks.append((t0, clock.mark()))
            errors = rep_oracle_errors(lib, item, ans)
            if rep_answer_digest(ans) != digests[index]:
                errors.append("answers differ from the reference digest")
            if errors:
                out.fail(1, f"item {index} {item.expr.text!r}: {'; '.join(errors)}")
        out.end = clock.mark()
        return out


# -- ideal-queries -------------------------------------------------------------------

# (characteristic, degree bound) of the n3-z bases built in set-up
IDEAL_BASES = ((0, 5), (5, 6))


@dataclass
class BasisState:
    ring: object
    gens: list
    basis: object
    bound: int
    lts: list


class IdealQueries:
    name = "ideal-queries"
    round_ops = ROUND_OPS
    setup_repeats = 3  # each set-up builds two Groebner bases

    def setup(self, lib, seed: int):
        cases, polyalg = lib.cases, lib.polyalg
        lib.bwb.parse_tables(lib.report.load_data_text("tables.txt"))
        states = []
        for char, bound in IDEAL_BASES:
            ideal = cases.make_ideal(cases.IdealCase("n3-z", char))
            basis = polyalg.groebner(ideal, bound)
            ring = ideal.ring
            states.append(BasisState(ring, [g for g in ideal.gens if g], basis, bound,
                                     [ring.lm(g) for g in basis.gb]))
        return states

    @staticmethod
    def _monomial(rng, n: int, degree: int) -> tuple:
        e = [0] * n
        for _ in range(degree):
            e[rng.randrange(n)] += 1
        return tuple(e)

    def _member(self, rng, st: BasisState) -> dict:
        """A random nonzero homogeneous element of the ideal, of degree at
        most the basis bound: a combination of generators times monomials."""
        ring = st.ring
        while True:
            degree = rng.randint(2, st.bound)
            p = ring.zero()
            for _ in range(rng.randint(1, 4)):
                g = rng.choice(st.gens)
                dg = ring.degree(g)
                if dg > degree:
                    continue
                c = ring.domain.of(rng.choice((-3, -2, -1, 1, 2, 3)))
                p = ring.add(p, ring.mul_term(g, self._monomial(rng, ring.n, degree - dg), c))
            if p:
                return p

    def _standard_monomial(self, rng, st: BasisState) -> tuple:
        while True:
            m = self._monomial(rng, st.ring.n, rng.randint(0, st.bound))
            if not any(all(a <= b for a, b in zip(lt, m)) for lt in st.lts):
                return m

    def body(self, lib, states, seed, seconds, clock, max_ops=None, fresh=None) -> Body:
        rng = random.Random(f"ideal-queries/{seed}")
        normal_form = lib.polyalg.normal_form
        out = Body(start=clock.mark())
        start = perf_counter()
        while True:
            if max_ops is not None and out.attempted >= max_ops:
                break
            if max_ops is None and perf_counter() - start >= seconds:
                break
            st = rng.choice(states)
            member = self._member(rng, st)
            queries = [(member, {})]
            if max_ops is None or out.attempted + 1 < max_ops:
                mono = st.ring.monomial(self._standard_monomial(rng, st))
                queries.append((st.ring.add(member, mono), mono))
            for poly, expected in queries:
                out.attempted += 1
                t0 = clock.mark()
                try:
                    got = normal_form(poly, st.basis)
                except Exception as e:  # a failed query is counted, not fatal
                    out.op_marks.append((t0, clock.mark()))
                    out.fail(1, f"normal_form raised {type(e).__name__}: {e}")
                    continue
                out.op_marks.append((t0, clock.mark()))
                if got != expected:
                    out.fail(1, f"over char {st.ring.domain!r}: normal form "
                                f"{st.ring.to_text(got)!r}, expected {st.ring.to_text(expected)!r}")
        out.end = clock.mark()
        return out


WORKLOADS = {w.name: w for w in (CertifyAll, RepQueries, IdealQueries)}
