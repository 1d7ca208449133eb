"""Groebner degrees reduced on two processes (polyalg's module docstring):
the split builds the same basis as one process, happens only when a second
CPU is free to a process that is no side of another split, and leaves no
child behind."""

import os
import threading

import pytest

from steinberg import campaigns, cases, polyalg
from steinberg.cases import IdealCase, make_ideal
from steinberg.polyalg import groebner
from steinberg.report import Emitter

from conftest import SharedLog


def _no_children() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _assert_equal_runs(split, sequential):
    assert split == sequential  # gens, gb, gb_bound, mingens
    assert split.gb_lead == sequential.gb_lead
    assert split.divisors == sequential.divisors
    assert split.stats == sequential.stats  # the same pairs skipped and reduced


def _n3z_c5():
    return groebner(make_ideal(IdealCase("n3-z", 5)), 6)


@pytest.fixture
def forks(monkeypatch, two_cpus):
    """The pid of every process forked from here on."""
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


@pytest.fixture(scope="module")
def sequential_n3z_c5():
    with pytest.MonkeyPatch.context() as m:
        m.delattr(os, "fork")
        basis = _n3z_c5()
    assert basis.stats.split_degrees == 0
    return basis


def test_a_standalone_run_splits_its_large_degrees(forks, sequential_n3z_c5):
    basis = _n3z_c5()
    # degrees 4, 5 and 6 keep 165, 272 and 235 pairs, the lower ones at most 2
    assert basis.stats.split_degrees == 3 and len(forks) == 3
    _assert_equal_runs(basis, sequential_n3z_c5)
    assert _no_children()


def _one_cpu(m):
    m.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


def _no_fork(m):
    m.delattr(os, "fork")


def _failing_fork(m):
    def failing():
        raise BlockingIOError("no process to be had")

    m.setattr(os, "fork", failing)


@pytest.mark.parametrize("guard", [_one_cpu, _no_fork, _failing_fork])
def test_no_split_without_a_free_cpu_or_a_fork(forks, monkeypatch, sequential_n3z_c5, guard):
    guard(monkeypatch)
    basis = _n3z_c5()
    assert basis.stats.split_degrees == 0 and forks == []
    _assert_equal_runs(basis, sequential_n3z_c5)
    assert _no_children()


def test_no_split_with_a_second_thread_alive(forks, sequential_n3z_c5):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        basis = _n3z_c5()
    finally:
        stop.set()
        thread.join()
    assert basis.stats.split_degrees == 0 and forks == []
    _assert_equal_runs(basis, sequential_n3z_c5)


def test_a_child_that_sends_nothing_leaves_its_half_to_the_parent(forks, monkeypatch,
                                                                   sequential_n3z_c5):
    monkeypatch.setattr(polyalg._GBWorker, "side", lambda worker, pairs: os._exit(0))
    basis = _n3z_c5()
    # every degree forked a child, and the parent reduced each child's half
    assert len(forks) == 3 and basis.stats.split_degrees == 0
    _assert_equal_runs(basis, sequential_n3z_c5)
    assert _no_children()


def test_a_raising_reduction_kills_and_reaps_the_child(forks, monkeypatch):
    add_remainder = polyalg._GBWorker.add_remainder

    def raising(worker, h):
        if forks:  # in the parent, with its half of a split still to reduce
            raise RuntimeError("reduction stopped")
        add_remainder(worker, h)

    monkeypatch.setattr(polyalg._GBWorker, "add_remainder", raising)
    with pytest.raises(RuntimeError, match="reduction stopped"):
        _n3z_c5()
    assert len(forks) == 1 and _no_children()


# -- inside verify_all, and the bases of verify_all and ideal-queries ---------------------


@pytest.fixture(scope="module")
def verify_all_runs(tmp_path_factory):
    """(ideal, bound, split degrees) of every Groebner basis one verify_all
    builds, in either of its processes, with both CPUs free to it."""
    runs = SharedLog(tmp_path_factory.mktemp("split") / "runs")

    def recording(ideal, bound=None, guide=None):
        basis = groebner(ideal, bound, guide=guide)
        runs.append((ideal, bound, basis.stats.split_degrees))
        return basis

    with pytest.MonkeyPatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        m.setattr(cases, "groebner", recording)
        m.setattr(campaigns, "groebner", recording)
        cases.clear_case_memo()
        try:
            campaigns.verify_all(Emitter(), seed=0, trials=5)
        finally:
            cases.clear_case_memo()
    return list(runs)


def test_no_split_inside_verify_all(verify_all_runs):
    assert len(verify_all_runs) == 15
    assert [split for _, _, split in verify_all_runs] == [0] * 15
    # the n3-z basis over Q with bound 5 splits when built on its own
    n3z = make_ideal(IdealCase("n3-z", 0))
    assert any(ideal.gens == n3z.gens and bound == 5 for ideal, bound, _ in verify_all_runs)


def test_split_and_sequential_runs_build_equal_bases(verify_all_runs, monkeypatch, two_cpus):
    """Every basis verify_all builds (unguided here), the two of
    ideal-queries, and the complete n3-z and n3-x bases over Q.  The
    elements enter the basis in the same order too."""
    reduced_basis, orders = polyalg._reduced_basis, []

    def recording(worker):
        orders.append(list(worker.lms))
        return reduced_basis(worker)

    monkeypatch.setattr(polyalg, "_reduced_basis", recording)
    inputs = [(ideal, bound) for ideal, bound, _ in verify_all_runs]
    inputs += [(make_ideal(IdealCase("n3-z", char)), bound) for char, bound in ((0, 5), (5, 6))]
    inputs += [(make_ideal(IdealCase(tag, 0)), None) for tag in ("n3-z", "n3-x")]
    split = [groebner(ideal, bound) for ideal, bound in inputs]
    monkeypatch.delattr(os, "fork")
    for basis, (ideal, bound) in zip(split, inputs):
        _assert_equal_runs(basis, groebner(ideal, bound))
    assert orders[:len(inputs)] == orders[len(inputs):]
    # the complete n3-z run splits degrees 4 to 8, the complete n3-x run 4 to 6
    assert [basis.stats.split_degrees for basis in split[-2:]] == [5, 3]
    assert sum(basis.stats.split_degrees for basis in split) > 8
