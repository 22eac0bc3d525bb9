"""Harness for the tests of wavefield's thread pool and of the work run on
it: a pool whose workers never start, and a check run in a forked child.
"""

import concurrent.futures
import os
import signal
import sys

import pytest

from kleinb import wavefield


class Queued(concurrent.futures.Future):
    """The future of a call handed to the pool of never_started: the call
    (fn, args) is kept, and runs only if a test runs it."""

    def __init__(self, fn, args):
        super().__init__()
        self.fn, self.args = fn, args


def never_started(monkeypatch) -> list:
    """Make wavefield's pool one whose workers never start; returns the
    list its submit appends each call's Queued future to."""
    queued = []

    class Queue:
        def submit(self, fn, *args):
            queued.append(Queued(fn, args))
            return queued[-1]

    monkeypatch.setattr(wavefield, "_executor", Queue)
    return queued


def forking(test):
    """Mark a test that forks: Linux only, and the warning that a
    multi-threaded process forks ignored."""
    test = pytest.mark.filterwarnings("ignore:This process .* is multi-threaded")(test)
    return pytest.mark.skipif(not sys.platform.startswith("linux"), reason="fork test runs on Linux")(test)


def in_forked_child(check, seconds: int) -> None:
    """Run check() in a forked child, killed after `seconds`; assert that
    the child exits 0, which it does if check() returns true."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.alarm(seconds)
            code = 0 if check() else 3
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0, f"child status {status:#x}"
