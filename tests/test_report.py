"""The report model: canonical order and one entry per check id."""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinberg import campaigns
from steinberg.fieldops import InvariantError
from steinberg.report import CheckEntry, Emitter, Report


@lru_cache(maxsize=None)
def _run_entries() -> tuple:
    em = Emitter()
    campaigns.verify_all(em, seed=0, trials=5)
    return tuple(em.entries)


def test_a_repeated_check_id_is_rejected():
    entries = [CheckEntry("a.x", "pass"), CheckEntry("b", "pass"), CheckEntry("a.x", "fail")]
    with pytest.raises(InvariantError, match="a.x"):
        Report(entries)
    Report(entries[:2])


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_the_report_does_not_depend_on_the_order_of_its_entries(data):
    entries = _run_entries()
    shuffled = data.draw(st.permutations(entries))
    first, again = Report(list(entries), seed=0), Report(shuffled, seed=0)
    assert len(again.entries) == 291
    assert again.to_json() == first.to_json()
    assert again.to_markdown() == first.to_markdown()
