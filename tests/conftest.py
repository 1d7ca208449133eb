import os
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
