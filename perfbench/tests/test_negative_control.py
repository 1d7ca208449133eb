"""Negative controls: a corrupted reference, a broken kernel or a broken Lie
model must make the benchmark count failed operations and reject the run.

    python3 -m pytest perfbench/tests -q

Each test runs the benchmark in a private copy of the checkout, so the
corruption never touches the real tree.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import REFERENCE_DIR, compare_report, rep_order  # noqa: E402


@pytest.fixture
def checkout(tmp_path):
    """A copy of the checkout: src/, the benchmark and BENCHMARK.json."""
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    return tmp_path


def run_bench(where: Path, workload: str, *python_flags: str):
    proc = subprocess.run(
        [sys.executable, *python_flags, f"{BENCH.name}/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=where, capture_output=True, text=True, timeout=170)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc.returncode, result


def mutate(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert text.count(old) == 1, f"mutation site not unique in {path.name}"
    path.write_text(text.replace(old, new))


def test_clean_copy_passes(checkout):
    code, result = run_bench(checkout, "rep-queries")
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1


def test_corrupted_reference_digest_is_rejected(checkout):
    ref = checkout / BENCH.name / "reference" / "rep-queries.txt"
    digests = ref.read_text().split()
    first = rep_order(0)[0]
    digests[first] = "0" * len(digests[first])
    ref.write_text("\n".join(digests) + "\n")
    code, result = run_bench(checkout, "rep-queries")
    assert code == 1 and not result["correct"]
    assert result["failed"] == 1 and result["failed"] / result["attempted"] > 0


def test_broken_lie_model_is_rejected_under_optimize(checkout):
    # twisting no longer shifts the weights; the library's own assert that
    # would notice is stripped by -O, the benchmark's oracle is not
    mutate(checkout / "src" / "steinberg" / "liealg.py",
           "weights = tuple(A2.add(w, shift) for w in a.weights)", "weights = a.weights")
    code, result = run_bench(checkout, "rep-queries", "-O")
    assert code == 1 and not result["correct"] and result["failed"] > 0


def test_broken_normal_form_is_rejected(checkout):
    # the remainder loses its leading term
    mutate(checkout / "src" / "steinberg" / "polyalg.py",
           "    return w.normal_form(p)\n",
           "    r = w.normal_form(p)\n    if r:\n        r.pop(max(r, key=_drl_key))\n    return r\n")
    code, result = run_bench(checkout, "ideal-queries")
    assert code == 1 and not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


def test_changed_check_fails_certify_all():
    ref = json.loads((REFERENCE_DIR / "certify-all.json").read_text())
    assert ref["summary"] == {"pass": 283, "fail": 0, "skipped": 8, "not-decidable": 0,
                              "total": 291}
    assert compare_report(ref, ref) == (0, "")
    got = json.loads(json.dumps(ref))
    check_id = sorted(got["checks"])[0]
    got["checks"][check_id] = "0" * len(got["checks"][check_id])
    failed, message = compare_report(ref, got)
    assert failed == 1 and check_id in message


def test_missing_library_exits_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "certify-all", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
