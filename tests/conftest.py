import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import steinberg


@pytest.fixture
def run_python():
    """Run `python *args` in a fresh interpreter that imports the steinberg
    package under test; returns the CompletedProcess with text output."""
    src = str(Path(steinberg.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

    def run(*args):
        return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                              timeout=600)

    return run


class SharedLog:
    """A list that this process and the processes forked from it append to:
    each record is one pickle, appended to a file by one write.  A
    verify_all runs part of its campaigns in a forked helper process
    (campaigns.verify_all), so a count over the whole run is kept here."""

    def __init__(self, path):
        self.path = path
        path.write_bytes(b"")

    def append(self, item) -> None:
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        try:
            os.write(fd, pickle.dumps(item))
        finally:
            os.close(fd)

    def __iter__(self):
        with open(self.path, "rb") as f:
            while True:
                try:
                    yield pickle.load(f)
                except EOFError:
                    return

    def __len__(self):
        return sum(1 for _ in self)


@pytest.fixture
def shared_log(tmp_path):
    """SharedLog(name): a fresh shared list in a file of tmp_path."""
    return lambda name: SharedLog(tmp_path / name)


@pytest.fixture
def two_cpus(monkeypatch):
    """Let verify_all fork its helper whatever the host's CPU count."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
