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


def test_compute_psupp_at_l_0_is_characteristic_zero():
    code, out, err = run_cli(["compute", "psupp", "--rep", "b", "--i", "1", "--l", "0"])
    assert (code, out.strip(), err) == (0, "{(0,0)^2}", "")


def test_verify_bwb_tables_reports_weights_outside_the_locus():
    # at l = 3, wedge^2(b)*b leaves the locus: its psupp spot checks fail on
    # the witnesses, and the report is printed
    code, out, err = run_cli(["verify", "bwb-tables", "--l", "3", "--format", "json"])
    assert code == 1 and err == ""
    entries = {e["check_id"]: e for e in json.loads(out)["entries"]}
    for i in range(4):
        entry = entries[f"bwb.l3.psupp.w2bxb.i{i}"]
        assert entry["status"] == "fail"
        assert entry["actual"] == "witnesses {(-5, 1):1, (1, -5):1}"
    # at l = 0 every weight is in the locus
    code, out, err = run_cli(["verify", "bwb-tables", "--l", "0", "--format", "json"])
    assert code == 0 and err == ""
    entries = {e["check_id"]: e for e in json.loads(out)["entries"]}
    assert entries["bwb.l0.psupp.w2bxb.i2"]["status"] == "pass"
    assert {e["status"] for e in entries.values()} == {"pass", "skipped"}


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
    # over GF(2) the commutator entries with coefficient 2 vanish: the run
    # over Q cannot guide this one, which runs unguided
    code, out, _ = run_cli(["compute", "hilbert", "--case", "n2", "--char", "2",
                            "--degree-bound", "3"])
    assert code == 0 and out.strip() == "[1, 6, 18, 38]"


def test_compute_snf(tmp_path):
    f = tmp_path / "m.txt"
    f.write_text("2 0\n0 4\n")
    code, out, _ = run_cli(["compute", "snf", "--file", str(f)])
    assert code == 0 and out.strip() == "[2, 4]"
    code, _, err = run_cli(["compute", "snf", "--file", str(tmp_path / "missing.txt")])
    assert code == 2 and "missing" in err
    # malformed files exit 2 with a message, never a traceback
    for text, message in (("1 2\n3\n", "ragged matrix"), ("1 2\n3 x\n", "'x'")):
        f.write_text(text)
        code, out, err = run_cli(["compute", "snf", "--file", str(f)])
        assert code == 2 and not out and err.startswith("steinberg: ") and message in err


def test_malformed_rep_exits_2():
    code, _, err = run_cli(["compute", "chi", "--rep", "wedge^2(b"])
    assert code == 2
    assert "position" in err


def test_a_non_ascii_digit_exits_2_with_its_position():
    code, out, err = run_cli(["compute", "chi", "--rep", "F(²,0)"])
    assert (code, out) == (2, "")
    assert err.strip() == "steinberg: bad rep expression: expected integer (at position 2)"


def test_a_twist_of_the_wrong_rank_exits_2_without_a_position():
    code, out, err = run_cli(["compute", "chi", "--rep", "tw(1)(b)"])
    assert (code, out) == (2, "")
    assert err.strip() == "steinberg: twist (1,) has wrong rank for this datum"
    assert "position" not in err


def test_the_zeroth_power_of_a_zero_rep_is_trivial():
    for text in ("wedge^0(wedge^9(b))", "sym^0(wedge^9(b))"):
        assert run_cli(["compute", "chi", "--rep", text]) == (0, "[V(0,0)]\n", "")
    # a product with it is the other factor
    assert run_cli(["compute", "chi", "--rep", "wedge^0(wedge^9(b))*b"]) == \
        run_cli(["compute", "chi", "--rep", "b"])


def _compute(run_python, argv, text):
    """`steinberg compute <argv> --rep text` in a fresh interpreter, where an
    uncaught exception prints a traceback to stderr."""
    return run_python("-m", "steinberg.cli", "compute", *argv, "--rep", text)


DEEP_REPS = ("(" * 1000 + "b" + ")" * 1000, "dual(" * 1000 + "b" + ")" * 1000)


@pytest.mark.parametrize("argv", [["chi"], ["psupp", "--i", "1", "--l", "5"]])
def test_a_rep_nested_too_deeply_exits_2(run_python, argv):
    for text in DEEP_REPS:
        done = _compute(run_python, argv, text)
        assert (done.returncode, done.stdout) == (2, ""), done.stderr
        assert done.stderr.startswith("steinberg: bad rep expression: expression nested too deeply")
        assert "Traceback" not in done.stderr


def test_malformed_rep_input_gives_no_traceback(run_python):
    # hostile but bounded: no huge power, since sym^k allocates k layers
    hostile = DEEP_REPS + (
        "wedge^0(wedge^9(b))", "sym^0(wedge^9(b))*b",
        "+".join(["b"] * 2000),  # nested 2000 deep once parsed
        "tw(1)(b)", "tw(1,2,3)(b*b)", "F(1)", "F(1,2,3)",
        "wedge^-1(b)", "sym^-2(b)", "wedge^2(sym^-1(g))",
        "(b", "b)", "wedge^2(b", "((b)*b", "dual(b))", ")(")
    for text in hostile:
        done = _compute(run_python, ["chi"], text)
        assert done.returncode in (0, 1, 2), (text[:40], done.stderr[-300:])
        assert "Traceback" not in done.stderr, (text[:40], done.stderr[-300:])


def test_usage_errors_exit_2():
    for argv, message in (
        (["verify", "ideal", "--case", "nope"], "invalid choice"),
        (["verify", "ideal", "--case", "n3-z", "--degree-bound"], "expected one argument"),
        (["verify", "all", "--jobs", "2"], "unrecognized arguments"),
        (["verify", "all", "--timings"], "unrecognized arguments"),
        # compute prints one value: it has no report format and draws nothing
        (["compute", "chi", "--rep", "b", "--format", "json"], "unrecognized arguments"),
        (["compute", "hilbert", "--case", "n2", "--degree-bound", "3", "--seed", "1"],
         "unrecognized arguments"),
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


# each verify subcommand with the arguments verify_all passes its campaign,
# by the check-id prefix of that campaign's entries
VERIFY_ALL_SUBCOMMANDS = {
    "bwb.l7.": "bwb-tables --l 7",
    "identities.c5.": "identities --char 5",
    "span.c0.": "span --char 0",
    "ideal.n2.c5.": "ideal --case n2 --char 5 --degree-bound 6 --trials 5",
    "ideal.gl-n3.c5.": "ideal --case gl-n3 --char 5 --degree-bound 4 --trials 5",
    "dims.": "dims",
    "multiplicity.": "multiplicities",
    "classgroup.": "classgroup",
}


def test_each_verify_subcommand_runs_its_own_campaign():
    # a subcommand wired to the wrong campaign or argument emits other entries
    code, out, _ = run_cli(["verify", "all", "--format", "json", "--trials", "5"])
    assert code == 0
    every = json.loads(out)["entries"]
    for prefix, argv in VERIFY_ALL_SUBCOMMANDS.items():
        code, out, _ = run_cli(["verify", *argv.split(), "--format", "json"])
        assert code == 0, argv
        want = [e for e in every if e["check_id"].startswith(prefix)]
        assert want and json.loads(out)["entries"] == want, argv


def test_canonical_report_is_pinned():
    # the behavioural contract itself: seed 0, default trials
    code, out, _ = run_cli(["verify", "all", "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256


# sha256 of outputs that the `verify all` digest does not cover: the gl-n3
# symbolic chart, the cnil case, Hilbert functions and the char-0 span and
# identity campaigns, whose texts print coefficients over Q
OTHER_OUTPUT_SHA256 = {
    "verify ideal --case gl-n3 --char 5 --degree-bound 4 --format json":
        "ea420ab640c6447075b0f5fe96443be1e5dec0b05f60fe11d268086e0055c025",
    "verify ideal --case cnil --format json":
        "5c4c21cfafc4561d23cd9d1ea6e54ed3e56eedafccd1be5c493dbdc0275c6b52",
    "compute hilbert --case n3-z --degree-bound 4":
        "defe5dd14ff315c2fc5cc664582ced366204c4431ba0f80d3a2de70868b5a24d",
    "verify span --char 0 --format json":
        "2efd1b093bf0f735299421ba0a800ac88a5ac7217038a2af33ef095995b9685a",
    "verify identities --char 0 --format json":
        "c1f0a001962846c2c9c7403ebd9f25425919718931f9b9b82b58b764e928a331",
    # the n3-x checks read one complete basis per characteristic
    "verify ideal --case n3-x --char 5 --format json":
        "f781c1cc461caa69c3be0150a8ed0c3722660be9f6940af92cbe43f6f05182e0",
    "verify ideal --case n3-x --char 7 --degree-bound 4 --format json":
        "bec89002fba3999c23d4af286028564fb0a0b3e1e8c56a567fd79ee33c1fd557",
    "verify ideal --case gl-n3 --char 7 --format json":
        "f6812bb98bd59026909710b7c504dbfdfb18e68968791076b141cc5c748c9fec",
    "verify dims --format json":
        "489aca23167e9271caa2ee1f12a0269485a96c357e069c19e785b123894803bc",
    # the n2 and n3-z branches of the ideal campaign at bounds `verify all`
    # does not use
    "verify ideal --case n2 --char 7 --degree-bound 4 --format json":
        "4041155f1c1ac72974452a325fb47a40ab777bea8921418ac8afec1fd2aa2338",
    "verify ideal --case n3-z --char 0 --degree-bound 3 --trials 5 --format json":
        "503233457c2e425176cca6b0802710c60b53bd37a80c686cf2c96ae6d631aec9",
    # bases over GF(2) and GF(3), where a char-0 generator vanishes mod l:
    # read off the char-0 basis at n3-z mod 3 to bound 2, unguided in the
    # other two, whose char-0 runs record l
    "compute hilbert --case n3-z --char 3 --degree-bound 2":
        "4f6d14cd327b355c8797e148a59bb07d4df40ce7b9d656a329c3d92a14f20a42",
    "compute hilbert --case n3-z --char 2 --degree-bound 5":
        "530c09d2dea43da4ed6e8960ad30f27a8f7ef6a3d85cde51d961ed7f36d10f8c",
    "compute hilbert --case n2 --char 2 --degree-bound 3":
        "0b178dd9a55de3418a88f86900ee8905cf74e530a9fe1189959ce44a95b59a83",
    # the markdown report with the tables appendix; table checks and their
    # skipped cells write their entries through the Emitter
    "verify bwb-tables --l 5":
        "0c7347e39173132606a2fb1fa6286e9ec66f74c4bc0024483bb0cb5bba5fbad2",
}


@pytest.mark.parametrize("argv", sorted(OTHER_OUTPUT_SHA256))
def test_other_outputs_are_pinned(argv):
    code, out, _ = run_cli(argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == OTHER_OUTPUT_SHA256[argv]


def test_verify_ideal_does_not_depend_on_assert(run_python):
    # python -O strips assert statements: certification must not live in them
    argv = ["-m", "steinberg.cli", "verify", "ideal", "--case", "n3-z", "--char", "0",
            "--degree-bound", "3", "--trials", "5", "--format", "json"]
    plain, optimized = run_python(*argv), run_python("-O", *argv)
    assert (plain.returncode, optimized.returncode) == (0, 0), (plain.stderr, optimized.stderr)
    assert json.loads(plain.stdout)["summary"]["fail"] == 0
    assert optimized.stdout == plain.stdout


def test_verify_ideal_guided_runs_do_not_depend_on_assert(run_python):
    # at bound 5 the flatness check reads the GF(5) and GF(7) bases off the
    # char-0 basis whole
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
