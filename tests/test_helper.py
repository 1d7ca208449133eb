"""The helper of verify_all: one forked process runs part of the campaigns
and sends its entries back, all or nothing (see campaigns.verify_all)."""

import os
import pickle
import signal

import pytest

from steinberg import campaigns, cases
from steinberg.report import FAIL, Emitter, Report


@pytest.fixture
def forks(monkeypatch, two_cpus):
    """Fork the helper whatever the host's CPU count, and record the pid of
    every process forked; the store is emptied before and after."""
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    cases.clear_case_memo()
    yield pids
    cases.clear_case_memo()


def _run(trials=5) -> Report:
    em = Emitter()
    campaigns.verify_all(em, seed=0, trials=trials)
    return Report(em.entries, seed=0)


def _report() -> str:
    return _run().to_json()


def _no_children() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _in_helper_only(monkeypatch, name, action):
    """Make the campaign `name` call action() first in a forked helper; in
    this process it runs as before.  Returns the list of its runs here."""
    parent, here = os.getpid(), []
    campaign = getattr(campaigns, name)

    def patched(em, *args):
        if os.getpid() == parent:
            here.append(args)
        else:
            action()
        campaign(em, *args)

    monkeypatch.setattr(campaigns, name, patched)
    return here


def test_the_report_is_the_same_with_and_without_the_helper(forks, monkeypatch):
    def failing():
        raise BlockingIOError("no process to be had")

    here = _in_helper_only(monkeypatch, "dims_campaign", lambda: None)
    with_helper = _report()
    # dims_campaign ran in the helper only, and its entries came through the pipe
    assert here == [] and '"dims.c7.fibre"' in with_helper
    assert len(forks) == 1 and _no_children()
    monkeypatch.delattr(os, "fork")
    assert _report() == with_helper
    # a fork that fails leaves the whole run to the caller
    monkeypatch.setattr(os, "fork", failing, raising=False)
    assert _report() == with_helper
    assert len(forks) == 1 and not cases._memo


def _exit_early():
    os._exit(0)


def _write_half():
    def half(obj, file, protocol):
        data = pickle.dumps(obj, protocol)
        file.write(data[:len(data) // 2])

    pickle.dump = half  # in the helper only, which ends after its one dump


@pytest.mark.parametrize("fault", [_exit_early, _write_half])
def test_the_caller_runs_the_list_of_a_helper_that_sends_nothing_whole(forks, monkeypatch,
                                                                         fault):
    expected = _report()
    here = _in_helper_only(monkeypatch, "dims_campaign", fault)
    assert _report() == expected
    # the helper's last campaign ran here too: the caller ran its whole list
    assert here == [()]
    assert len(forks) == 2 and _no_children() and not cases._memo


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
    # killed while it still had campaigns to run, then reaped
    [(pid, status)] = reaped
    assert [pid] == forks
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
    assert not cases._memo and _no_children()


@pytest.mark.parametrize("fork", [True, False])
def test_a_raising_helper_campaign_raises_in_the_caller(forks, monkeypatch, fork):
    def raising(em):
        raise RuntimeError("dims stopped")

    if not fork:
        monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(campaigns, "dims_campaign", raising)
    with pytest.raises(RuntimeError, match="dims stopped"):
        _report()
    # the helper raised first and sent nothing; the caller ran its list again
    assert len(forks) == int(fork) and not cases._memo and _no_children()


def test_a_wrong_krull_dimension_fails_across_the_process_boundary(forks, monkeypatch):
    """Negative control: dims_campaign runs in the helper, and a krull_dim
    patched in the caller before the run must fail its four checks there."""
    monkeypatch.setattr(campaigns, "krull_dim", lambda basis: -1)
    report = _run()
    failed = sorted(e.check_id for e in report.entries if e.status == FAIL)
    assert len(forks) == 1 and _no_children()
    assert len(report.entries) == 291 and report.exit_code == 1
    assert failed == ["dims.c7.fibre", "dims.c7.fibre-squares", "dims.c7.hypersurface",
                      "dims.c7.nonregular-locus"]
    monkeypatch.delattr(os, "fork")
    assert _run().to_json() == report.to_json()
