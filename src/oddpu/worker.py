"""The one fork helper: ``forked`` runs work in one forked process, which
sends its results back through a pipe.  ``cli`` formats the odd blocks of
a long ``simulate`` table there and integrates a long ``deform`` table's
RK4 blocks there, and ``verify.run_all`` runs criterion 8 there.
"""

from __future__ import annotations

import contextlib
import os
import signal


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _receive(pipe, name) -> bytes:
    """The next message the worker sent: an 8-byte length, then the bytes."""
    head = pipe.read(8)
    size = int.from_bytes(head, "little")
    data = pipe.read(size)
    if len(head) < 8 or len(data) < size:
        raise OSError("%s closed its pipe early" % name)
    return data


def _send(send, items, wfd):
    """The worker: send ``send(item)`` for each of ``items`` down the pipe
    end ``wfd`` in order, then leave through ``os._exit``, so that no
    ``finally`` block or atexit handler of the caller runs here.  It first
    closes every other descriptor, so that a reader of the caller's output
    that closes its end, in the caller's process too, leaves it closed."""
    status = 1
    try:
        os.closerange(0, wfd)
        os.closerange(wfd + 1, os.sysconf("SC_OPEN_MAX"))
        with os.fdopen(wfd, "wb") as pipe:
            for item in items:
                data = send(item)
                pipe.write(len(data).to_bytes(8, "little"))
                pipe.write(data)
                pipe.flush()
        status = 0
    finally:
        os._exit(status)


@contextlib.contextmanager
def forked(name, send, items):
    """Fork one worker, called ``name`` in errors, that sends the bytes
    ``send(item)`` for each of ``items`` in order, and yield the function
    that returns the next of them; yield None where nothing is forked: no
    items, no ``os.fork``, one usable CPU, or a fork the system refuses.
    The worker is killed if the caller leaves early and reaped on every
    path; a message cut short or a non-zero exit status raises
    ``OSError``."""
    if not items or not hasattr(os, "fork") or _usable_cpus() < 2:
        yield None
        return
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:                     # no process to spare: the caller does the work
        pid = None
    if pid == 0:
        _send(send, items, wfd)
    os.close(wfd)
    if pid is None:
        os.close(rfd)
        yield None
        return
    pipe = os.fdopen(rfd, "rb")
    try:
        yield lambda: _receive(pipe, name)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        pipe.close()
    if status:
        raise OSError("%s exited with status %d" % (name, status))
