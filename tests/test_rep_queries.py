"""The rep-queries benchmark's answers, replayed as a test: a change that
alters an answer of the character side or a Lie model fails here, not only
in the benchmark.  The workload's own item generator, query bundle, oracles
and digests are used, read from `perfbench/`, which this test never edits."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from steinberg import breps, bwb, liealg, report, weights

ROOT = Path(__file__).resolve().parents[1]
REPLAYED = 512


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("rep_queries_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_the_first_rep_queries_items_keep_their_reference_answers(workloads):
    lib = SimpleNamespace(breps=breps, bwb=bwb, liealg=liealg, report=report, weights=weights)
    digests = workloads.RepQueries().setup(lib, 0)
    wrong, models = [], set()
    for index in workloads.rep_order(0)[:REPLAYED]:
        item = workloads.rep_item(index)
        ans = workloads.ask_rep_item(lib, item)
        errors = workloads.rep_oracle_errors(lib, item, ans)
        if workloads.rep_answer_digest(ans) != digests[index]:
            errors.append("answers differ from the reference digest")
        if errors:
            wrong.append((index, item.expr.text, errors))
        if item.lie_char is not None:
            models.add(item.lie_char)
    assert not wrong, wrong[:5]
    assert models == {0, 5, 7, 11}  # Lie models in every characteristic the workload asks
