import hashlib
import io
import json
from contextlib import redirect_stdout, redirect_stderr

import pytest

from steinberg.cli import main


# sha256 of `verify all --format json --trials 5`
VERIFY_ALL_TRIALS5_SHA256 = "2d85f6e7d59a1eb7add32cbf58a7f1552bfd15e4bb98c96c4436aead697c9e62"
# sha256 of the canonical report, `verify all --format json` (seed 0, default trials)
VERIFY_ALL_SHA256 = "51b9ccb0cdc818a41908cbc1d9c75144570db11f5cd559f3577d16cffd5db4fa"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_compute_chi():
    code, out, _ = run_cli(["compute", "chi", "--rep", "wedge^2(b)*b"])
    assert code == 0
    assert out.strip() == "2[V(1,1)] + [V(0,0)]"
    code, out, _ = run_cli(["compute", "chi", "--rep", "b*b"])
    assert out.strip() == "-[V(0,0)]"


def test_compute_psupp():
    code, out, _ = run_cli(["compute", "psupp", "--rep", "wedge^2(b)*b", "--i", "2", "--l", "5"])
    assert code == 0 and out.strip() == "{(0,0)^14 (1,1)^2}"


def test_compute_psupp_rejects_bad_l_and_degree():
    # l = 4 is not a prime, and SL3 has no Weyl element of length 7 or -1
    for l, i in ((4, 2), (5, 7), (5, -1)):
        code, out, err = run_cli(["compute", "psupp", "--rep", "wedge^2(b)*b",
                                  "--i", str(i), "--l", str(l)])
        assert code == 2 and out == "", (l, i, out)
        assert err.startswith("steinberg: ") and ("prime" in err or "0..3" in err), err


def test_compute_hilbert():
    code, out, _ = run_cli(["compute", "hilbert", "--case", "n2", "--degree-bound", "3"])
    assert code == 0 and out.strip() == "[1, 6, 15, 28]"


def test_compute_snf(tmp_path):
    f = tmp_path / "m.txt"
    f.write_text("2 0\n0 4\n")
    code, out, _ = run_cli(["compute", "snf", "--file", str(f)])
    assert code == 0 and out.strip() == "[2, 4]"
    code, _, err = run_cli(["compute", "snf", "--file", str(tmp_path / "missing.txt")])
    assert code == 2 and "missing" in err


def test_malformed_rep_exits_2():
    code, _, err = run_cli(["compute", "chi", "--rep", "wedge^2(b"])
    assert code == 2
    assert "position" in err


def test_usage_errors_exit_2():
    for argv, message in (
        (["verify", "ideal", "--case", "nope"], "invalid choice"),
        (["verify", "ideal", "--case", "n3-z", "--degree-bound"], "expected one argument"),
        (["verify", "all", "--jobs", "2"], "unrecognized arguments"),
        (["verify", "all", "--timings"], "unrecognized arguments"),
        # a negative bound certifies nothing: it must not reach a check
        (["verify", "ideal", "--case", "n2", "--char", "0", "--degree-bound", "-1"],
         "--degree-bound: must be >= 0"),
        (["compute", "hilbert", "--case", "n3-z", "--degree-bound", "-1"],
         "--degree-bound: must be >= 0"),
        # zero trials certify nothing: refused before any campaign runs
        (["verify", "all", "--trials", "0"], "--trials: must be >= 1"),
        (["verify", "ideal", "--case", "n2", "--trials", "0"], "--trials: must be >= 1"),
    ):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2 and out.getvalue() == "", argv
        assert message in err.getvalue() and "Traceback" not in err.getvalue(), err.getvalue()


def test_unsupported_combination_exits_2():
    code, _, err = run_cli(["verify", "ideal", "--case", "gl-n3", "--char", "3",
                            "--degree-bound", "3"])
    assert code == 2 and "UnsupportedCase" in err


def test_lie_side_campaigns_refuse_characteristics_2_and_3():
    # one rule for the identity and span campaigns: characteristic 0 or >= 5
    for campaign in ("identities", "span"):
        for char in ("2", "3"):
            code, out, err = run_cli(["verify", campaign, "--char", char])
            assert code == 2 and out == "", (campaign, char, out)
            assert err.startswith("steinberg: CharacteristicError:"), err
            assert "Traceback" not in err and len(err.splitlines()) == 1, err


def test_verify_multiplicities_json():
    code, out, _ = run_cli(["verify", "multiplicities", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["summary"]["pass"] == 4 and doc["summary"]["fail"] == 0
    values = sorted(e["actual"] for e in doc["entries"])
    assert values == ["16", "3", "3", "8"]
    assert all(e["paper_anchor"] == "tab3" for e in doc["entries"])


def test_verify_classgroup():
    code, out, _ = run_cli(["verify", "classgroup", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["fail"] == 0


def test_byte_identical_reports():
    for argv in (
        ["verify", "multiplicities", "--format", "json", "--seed", "3"],
        ["verify", "classgroup", "--format", "json"],
        ["verify", "ideal", "--case", "cnil", "--char", "0", "--degree-bound", "3",
         "--trials", "10", "--seed", "9", "--format", "json"],
        ["compute", "chi", "--rep", "b*b"],
    ):
        runs = {run_cli(list(argv))[1] for _ in range(2)}
        assert len(runs) == 1, argv


def test_failure_exit_code(tmp_path, monkeypatch):
    # a doctored expected-value table must drive the exit status to 1
    (tmp_path / "multiplicities.txt").write_text("(1,0) L1 999\n")
    (tmp_path / "tables.txt").write_text("")
    monkeypatch.setenv("STEINBERG_DATA_DIR", str(tmp_path))
    code, out, _ = run_cli(["verify", "multiplicities", "--format", "json"])
    assert code == 1
    doc = json.loads(out)
    assert doc["summary"]["fail"] == 1


def test_markdown_includes_tables():
    code, out, _ = run_cli(["verify", "bwb-tables", "--l", "5"])
    assert code == 0
    assert "| j | H^0 | H^1 | H^2 | H^3 | claimed chi | computed chi |" in out
    assert "## multiplicities" in out


def test_data_dir_override(tmp_path, monkeypatch):
    (tmp_path / "multiplicities.txt").write_text("(1,1) L1-L3 8\n")
    (tmp_path / "tables.txt").write_text("")
    monkeypatch.setenv("STEINBERG_DATA_DIR", str(tmp_path))
    code, out, _ = run_cli(["verify", "multiplicities", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["total"] == 1


def test_verify_span_exit_zero():
    code, out, _ = run_cli(["verify", "span", "--char", "5", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    ids = {e["check_id"] for e in doc["entries"]}
    assert "span.c5.rep-side" in ids
    assert "span.c5.groebner-side.traceless" in ids


def test_verify_all_is_disjoint_union():
    code, out, _ = run_cli(["verify", "all", "--format", "json", "--trials", "5"])
    assert code == 0
    # the report is the behavioural contract: a change meant to alter it
    # updates this digest and says so in CHANGES.md
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_TRIALS5_SHA256
    doc = json.loads(out)
    ids = [e["check_id"] for e in doc["entries"]]
    assert len(ids) == len(set(ids))
    assert doc["summary"]["fail"] == 0
    # the aggregate contains each campaign's prefix exactly once per parameter set
    prefixes = {"bwb.l5.", "bwb.l7.", "identities.c0.", "identities.c5.", "identities.c7.",
                "span.c0.", "span.c5.", "ideal.n2.c0.", "ideal.n3-z.c5.", "ideal.n3-x.c5.",
                "ideal.gl-n2.c5.", "ideal.gl-n3.c5.", "ideal.cnil.c0.", "dims.c7.",
                "multiplicity.", "classgroup."}
    for p in prefixes:
        assert any(i.startswith(p) for i in ids), p


def test_canonical_report_is_pinned():
    # the behavioural contract itself: seed 0, default trials
    code, out, _ = run_cli(["verify", "all", "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256


def test_verify_ideal_does_not_depend_on_assert(run_python):
    # python -O strips assert statements: certification must not live in them
    argv = ["-m", "steinberg.cli", "verify", "ideal", "--case", "n3-z", "--char", "0",
            "--degree-bound", "3", "--trials", "5", "--format", "json"]
    plain, optimized = run_python(*argv), run_python("-O", *argv)
    assert (plain.returncode, optimized.returncode) == (0, 0), (plain.stderr, optimized.stderr)
    assert json.loads(plain.stdout)["summary"]["fail"] == 0
    assert optimized.stdout == plain.stdout


def test_verify_ideal_guided_runs_do_not_depend_on_assert(run_python):
    # at bound 5 the flatness check builds the GF(5) and GF(7) bases guided
    # by the char-0 basis, which stops their degrees 4 and 5 early
    argv = ["-m", "steinberg.cli", "verify", "ideal", "--case", "n3-z", "--char", "0",
            "--degree-bound", "5", "--trials", "5", "--format", "json"]
    plain, optimized = run_python(*argv), run_python("-O", *argv)
    assert (plain.returncode, optimized.returncode) == (0, 0), (plain.stderr, optimized.stderr)
    assert json.loads(plain.stdout)["summary"]["fail"] == 0
    assert optimized.stdout == plain.stdout


def test_verify_span_does_not_depend_on_assert(run_python):
    argv = ["-m", "steinberg.cli", "verify", "span", "--format", "json"]
    plain, optimized = run_python(*argv), run_python("-O", *argv)
    assert (plain.returncode, optimized.returncode) == (0, 0), (plain.stderr, optimized.stderr)
    assert json.loads(plain.stdout)["summary"]["fail"] == 0
    assert optimized.stdout == plain.stdout


def test_verify_all_does_not_depend_on_assert(run_python):
    argv = ["-m", "steinberg.cli", "verify", "all", "--trials", "5", "--format", "json"]
    plain, optimized = run_python(*argv), run_python("-O", *argv)
    assert (plain.returncode, optimized.returncode) == (0, 0), (plain.stderr, optimized.stderr)
    for done in (plain, optimized):
        assert hashlib.sha256(done.stdout.encode()).hexdigest() == VERIFY_ALL_TRIALS5_SHA256
