"""The look-ahead of verify_all: one forked helper computes the independent
memoized results while the campaigns run (see the cases docstring)."""

import os
import pickle
import signal
from collections import Counter

import pytest

from steinberg import campaigns, cases
from steinberg.cases import IdealCase
from steinberg.report import Emitter, Report

# the results a verify_all computes and stores, by function
RUN_COUNTER = {"build_case": 13, "case_basis": 8, "case_points": 6, "case_hilbert": 5,
               "span_lattice": 2, "case_cn_reduction": 1}


@pytest.fixture
def forks(monkeypatch):
    """Start the look-ahead whatever the host's CPU count, and record the
    pid of every process forked; the store is emptied before and after."""
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", recording)
    cases.clear_case_memo()
    yield pids
    cases.clear_case_memo()


@pytest.fixture
def stores(monkeypatch, shared_log):
    """(pid, key) of every result computed and stored, in either process.
    What the helper sends is stored with update, which this does not see."""
    log = shared_log("stores")

    class Recording(dict):
        def __setitem__(self, key, value):
            log.append((os.getpid(), key))
            super().__setitem__(key, value)

    monkeypatch.setattr(cases, "_memo", Recording())
    return log


def _report(trials=5) -> str:
    em = Emitter()
    campaigns.verify_all(em, seed=0, trials=trials)
    return Report(em.entries, seed=0).to_json()


def _no_children() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_the_report_is_the_same_with_and_without_the_look_ahead(forks, monkeypatch):
    def failing():
        raise BlockingIOError("no process to be had")

    ahead = _report()
    assert len(forks) == 1 and _no_children()
    monkeypatch.delattr(os, "fork")
    assert _report() == ahead
    # a fork that fails leaves the run to the caller
    monkeypatch.setattr(os, "fork", failing, raising=False)
    assert _report() == ahead
    assert len(forks) == 1 and cases._ahead is None


def test_the_helper_stores_the_declared_keys_and_nothing_else(forks, stores, monkeypatch):
    declared = []
    start = campaigns.look_ahead

    def recording(keys):
        declared.extend(keys)
        start(keys)

    monkeypatch.setattr(campaigns, "look_ahead", recording)
    _report()
    helper = [key for pid, key in stores if pid != os.getpid()]
    parent = [key for pid, key in stores if pid == os.getpid()]
    assert forks and {pid for pid, _ in stores} == {os.getpid(), *forks}
    # in the declared order, each key once, and none of them again here
    assert helper == declared
    assert not set(parent) & set(declared)
    assert Counter(key[0] for key in helper + parent) == RUN_COUNTER
    assert not cases._memo and _no_children()


def test_the_parent_computes_what_a_dead_helper_owed(forks, stores, monkeypatch):
    expected = _report()
    stores.path.write_bytes(b"")
    dump = pickle.dump

    def dump_once(obj, file, protocol):
        dump(obj, file, protocol)
        file.flush()
        os._exit(0)

    monkeypatch.setattr(cases.pickle, "dump", dump_once)
    assert _report() == expected
    helper = [key for pid, key in stores if pid != os.getpid()]
    parent = [key for pid, key in stores if pid == os.getpid()]
    # the first result came through the pipe; the rest were computed here, once
    assert len(forks) == 2 and len(helper) == 1 and helper[0] not in parent
    assert Counter(key[0] for key in helper + parent) == RUN_COUNTER
    assert not cases._memo and _no_children()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_a_raising_campaign_kills_and_reaps_the_helper(forks, monkeypatch, error):
    reaped = []
    waitpid = os.waitpid

    def recording(pid, options):
        done = waitpid(pid, options)
        reaped.append(done)
        return done

    def raising(em, l):
        raise error("campaign stopped")

    monkeypatch.setattr(os, "waitpid", recording)
    monkeypatch.setattr(campaigns, "bwb_tables_campaign", raising)
    with pytest.raises(error):
        _report()
    # killed while it still had results to compute, then reaped
    [(pid, status)] = reaped
    assert [pid] == forks
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
    assert cases._ahead is None and not cases._memo and _no_children()


@pytest.mark.parametrize("char, bound", [(5, 5), (7, None)])
def test_a_basis_through_the_pipe_equals_the_one_built_here(forks, shared_log, monkeypatch,
                                                            char, bound):
    built = shared_log("groebner")
    groebner = cases.groebner

    def recording(ideal, bound=None, guide=None):
        built.append(os.getpid())
        return groebner(ideal, bound, guide=guide)

    monkeypatch.setattr(cases, "groebner", recording)
    case = IdealCase("n3-x", char)
    cases.look_ahead([("build_case", case), ("case_basis", case, bound)])
    piped = cases.case_basis(case, bound)
    cases.clear_case_memo()
    [helper] = forks
    assert list(built) == [helper]
    monkeypatch.delattr(os, "fork")
    local = cases.case_basis(case, bound)
    assert list(built) == [helper, os.getpid()]
    assert (piped.gb, piped.mingens, piped.gb_complete) == \
        (local.gb, local.mingens, local.gb_complete)
    assert piped.ring.names == local.ring.names
    assert piped.ring.domain.characteristic == local.ring.domain.characteristic == char
