"""One forked helper process: a callable runs in a forked child while the
caller does its own share of the work, and its result comes back pickled.

`verify_all` splits its campaigns with it, and `groebner` the S-pairs of a
degree.  A process that is one side of a split forks no helper: the caller
from the fork until it leaves the `forked` block, and the child for good.
So the two processes of a `verify_all` build their bases as one process
would, and no split nests inside another.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from contextlib import contextmanager, suppress

_split = False  # this process is one side of a split


@contextmanager
def forked(work):
    """Yields join, or None when no child is forked: without os.fork, with
    fewer than 2 CPUs in the affinity set, with other threads alive (forking
    them is unsafe), when this process is one side of a split, or when the
    fork fails.  The child runs work() and writes its result once, pickled,
    to a pipe; join() waits for the child and returns that result, or None
    when the child died or its pipe ended early.  On None the caller does
    the work itself.  The child ends in os._exit on every path: it never
    returns into the caller's stack, runs no atexit handler, flushes no
    inherited stdio.  A child not joined when the block is left (by an
    exception) is killed and reaped."""
    global _split
    if _split or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
                      and len(os.sched_getaffinity(0)) >= 2
                      and threading.active_count() == 1):
        yield None
        return
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        yield None
        return
    _split = True
    if not pid:
        status = 1
        try:
            os.close(read)
            result = work()
            with open(write, "wb") as out:
                pickle.dump(result, out, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    pipe = open(read, "rb")

    def join():
        nonlocal pid
        result = None
        with pipe, suppress(EOFError, pickle.UnpicklingError):
            result = pickle.load(pipe)
        os.waitpid(pid, 0)
        pid = None
        return result

    try:
        yield join
    finally:
        _split = False
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
