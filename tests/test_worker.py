"""``worker.forked`` yields an iterator over ``produce(item)`` for each of
its items, in order, or raises the exception that stopped one, whether a
worker computes them (two usable CPUs), this process does (one), or this
process does after a refused fork."""

import os
import time

import pytest

from oddpu import worker
from oddpu.dynamics import IntegrationError

from conftest import assert_no_child_left

MODES = ["worker", "serial", "refused"]
#: Item 40's result is about 400 KB of text, more than a pipe holds.
ITEMS = [0, 1, 2, 5, 40]


def produce(item):
    return item, "x" * (10_000 * item), (-0.0, float("inf"), 2.0 ** -1074)


@pytest.fixture(params=MODES)
def mode(request, monkeypatch):
    def refuse():
        raise BlockingIOError("fork refused")

    monkeypatch.setattr(worker, "_usable_cpus", lambda: 1 if request.param == "serial" else 2)
    if request.param == "refused":
        monkeypatch.setattr(os, "fork", refuse)
    return request.param


@pytest.mark.parametrize("kind", [list, tuple, iter], ids=["list", "tuple", "iterator"])
def test_results_in_order(mode, forks, watchdog, kind):
    with worker.forked("test worker", produce, kind(ITEMS)) as results:
        received = [next(results) for _ in ITEMS]
    assert received == [produce(item) for item in ITEMS]
    assert len(forks) == (mode == "worker")
    assert_no_child_left()


@pytest.mark.parametrize("where", ["produce", "items"])
@pytest.mark.parametrize("error", [ValueError("bad item", 5),
                                   IntegrationError("non-finite state near t=2.5", t=2.5),
                                   MemoryError()], ids=["value", "integration", "memory"])
def test_exception_is_raised_in_place_of_its_result(mode, forks, watchdog, where, error):
    # item 5, the fourth, raises where ``produce`` fails; where the items
    # iterator fails, it raises when the fourth is asked for
    def failing(item):
        if item == ITEMS[3]:
            raise error
        return produce(item)

    def items():
        yield from ITEMS[:3]
        if where == "items":
            raise error
        yield from ITEMS[3:]

    # caught in the body, so the worker is not killed: it must exit 0
    with worker.forked("test worker", failing, items()) as results:
        received = [next(results) for _ in range(3)]
        with pytest.raises(type(error)) as raised:
            next(results)
    assert received == [produce(item) for item in ITEMS[:3]]
    assert type(raised.value) is type(error)
    assert raised.value.args == error.args
    assert getattr(raised.value, "t", None) == getattr(error, "t", None)
    assert len(forks) == (mode == "worker")
    assert_no_child_left()


@pytest.mark.parametrize("mode", ["serial", "refused"], indirect=True)
def test_nothing_forked_produces_when_asked(mode, forks):
    asked = []

    def recording(item):
        asked.append(item)
        return -item

    with worker.forked("test worker", recording, [1, 2, 3]) as results:
        assert asked == []
        assert (next(results), asked) == (-1, [1])
        assert (next(results), asked) == (-2, [1, 2])
    assert (asked, forks) == ([1, 2], [])


@pytest.mark.parametrize("mode", ["worker"], indirect=True)
def test_worker_produces_there(mode, forks, watchdog):
    caller, asked = os.getpid(), []

    def recording(item):
        asked.append(item)
        return os.getpid()

    with worker.forked("test worker", recording, [1, 2]) as results:
        pids = [next(results), next(results)]
    assert (asked, pids) == ([], forks * 2)
    assert caller not in pids
    assert_no_child_left()


@pytest.mark.parametrize("items", [[], (), range(0)], ids=["list", "tuple", "range"])
def test_no_items_forks_nothing(mode, forks, items):
    with worker.forked("test worker", produce, items) as results:
        assert list(results) == []
    assert forks == []


@pytest.mark.parametrize("error", [ZeroDivisionError("raised in the body"), KeyboardInterrupt()],
                         ids=["error", "interrupt"])
def test_exception_in_body_kills_and_reaps_the_worker(mode, forks, watchdog, error):
    # the worker sleeps past the watchdog on its second item, so only the
    # kill ends it; where nothing is forked, the second item is never asked for
    def slow(item):
        if item:
            time.sleep(60)
        return item

    with pytest.raises(type(error)) as raised:
        with worker.forked("test worker", slow, [0, 1]) as results:
            assert next(results) == 0
            raise error
    assert raised.value is error
    assert len(forks) == (mode == "worker")
    assert_no_child_left()


@pytest.mark.parametrize("mode", ["worker"], indirect=True)
def test_worker_ending_early_raises_with_its_name(mode, forks, watchdog):
    caller = os.getpid()

    def failing(item):
        if item == 2 and os.getpid() != caller:
            os._exit(0)                 # the worker dies before it sends item 2
        return produce(item)

    with pytest.raises(OSError, match="^test worker closed its pipe early$"):
        with worker.forked("test worker", failing, ITEMS) as results:
            assert [next(results), next(results)] == [produce(0), produce(1)]
            next(results)
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("mode", ["worker"], indirect=True)
def test_worker_exit_status_is_checked(mode, forks, watchdog, monkeypatch):
    # every result arrives, then the worker exits 3
    exit_now = os._exit
    monkeypatch.setattr(os, "_exit", lambda status: exit_now(3))
    received = []
    with pytest.raises(OSError, match="^test worker exited with status 3$"):
        with worker.forked("test worker", produce, ITEMS) as results:
            received.extend(next(results) for _ in ITEMS)
    assert received == [produce(item) for item in ITEMS]
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("mode", ["worker"], indirect=True)
def test_interrupt_in_the_worker_is_not_sent(mode, forks, watchdog):
    # only an Exception is sent: a KeyboardInterrupt ends the worker, exit 1
    def interrupted(item):
        if item == 2:
            raise KeyboardInterrupt
        return produce(item)

    with pytest.raises(OSError, match="^test worker closed its pipe early$"):
        with worker.forked("test worker", interrupted, ITEMS) as results:
            assert [next(results), next(results)] == [produce(0), produce(1)]
            next(results)
    assert len(forks) == 1
    assert_no_child_left()
