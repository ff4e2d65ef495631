"""The one fork helper: ``forked`` hands its caller the results of
``produce`` over a list of items, computed in one forked process where
the caller may use a second CPU, else here as each is asked for.  Its
callers, ``cli``'s ``simulate`` formatter and ``deform`` RK4 blocks and
``verify.run_all``'s criterion 8, do not know which.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _received(pipe, name):
    """Each result the worker sent, in order, with a sent exception raised
    in its place: an 8-byte length, then the pickle, read whole before it
    is unpickled.  It does not end: a read past the last is a pipe closed early."""
    while True:
        head = pipe.read(8)
        size = int.from_bytes(head, "little")
        data = pipe.read(size)
        if len(head) < 8 or len(data) < size:
            raise OSError("%s closed its pipe early" % name)
        failed, result = pickle.loads(data)
        if failed:
            raise result
        yield result


def _outcomes(produce, items):
    """``map(produce, items)`` as (False, result) pairs, then (True, any Exception it raises)."""
    try:
        for item in items:
            yield False, produce(item)
    except Exception as exc:
        yield True, exc


def _send(produce, items, wfd):
    """The worker: send each of ``_outcomes(produce, items)``, pickled,
    down the pipe end ``wfd`` in order, then leave through ``os._exit``
    (status 0 after a sent exception too), so that no ``finally`` block,
    atexit handler or buffer flush of the caller runs here.  It first
    closes every other descriptor, so that a reader of the caller's output
    that closes its end, in the caller's process too, leaves it closed."""
    status = 1
    try:
        os.closerange(0, wfd)
        os.closerange(wfd + 1, os.sysconf("SC_OPEN_MAX"))
        with os.fdopen(wfd, "wb") as pipe:
            for outcome in _outcomes(produce, items):
                data = pickle.dumps(outcome)
                pipe.write(len(data).to_bytes(8, "little"))
                pipe.write(data)
                pipe.flush()
        status = 0
    finally:
        os._exit(status)


@contextlib.contextmanager
def forked(name, produce, items):
    """Yield an iterator that acts as ``map(produce, items)``: the results in
    order, an Exception of ``produce`` or ``items`` raised in place of its result.
    Where it can, fork one worker, called ``name`` in errors, that computes
    them all and sends each back as soon as it has it.  Where nothing is
    forked (no items, no ``os.fork``, one usable CPU, or a fork the system
    refuses) the iterator is ``map(produce, items)``: each result is computed
    here when it is asked for.  The worker is killed if the caller leaves
    early and reaped on every path; a worker that dies (its message cut
    short) or exits non-zero raises ``OSError``."""
    if not items or not hasattr(os, "fork") or _usable_cpus() < 2:
        yield map(produce, items)
        return
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:                     # no process to spare: the caller does the work
        os.close(rfd)
        os.close(wfd)
        yield map(produce, items)
        return
    if pid == 0:
        _send(produce, items, wfd)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as pipe:
        try:
            yield _received(pipe, name)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status:
        raise OSError("%s exited with status %d" % (name, status))
