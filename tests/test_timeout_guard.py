"""Regression tests for the off-main-thread timeout watchdog's
disarm race: a timer firing in the window between item completion and
disarm must never inject :class:`ItemTimeout` into the worker's next
item, into unrelated code, or out of disarm itself."""

import ctypes
import threading
import time

from repro.core.batch import (
    ItemTimeout,
    _disarm_quietly,
    _ThreadWatchdog,
    _WATCHDOG_GENERATION,
)

SET_ASYNC_EXC = ctypes.pythonapi.PyThreadState_SetAsyncExc


def run_in_thread(fn, timeout=120):
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 — reraised below
            box["error"] = exc

    t = threading.Thread(target=target)
    t.start()
    t.join(timeout=timeout)
    assert not t.is_alive(), "worker thread hung"
    if "error" in box:
        raise box["error"]
    return box["value"]


def drain_pending_exceptions():
    """Give any still-pending async exception a place to surface."""
    try:
        for _ in range(200_000):
            pass
        time.sleep(0.005)
        return None
    except ItemTimeout:
        return "poisoned"


class TestGenerationToken:
    def test_fire_after_disarm_is_a_noop(self):
        def body():
            wd = _ThreadWatchdog(1000.0, SET_ASYNC_EXC)
            wd._timer.cancel()
            wd.disarm()
            wd.fire()  # a timer racing past cancel(): must stand down
            return drain_pending_exceptions()

        assert run_in_thread(body) is None

    def test_stale_guard_cannot_poison_the_next_item(self):
        """Even a guard whose disarm never completed (the old failure
        mode: disarm interrupted by the delivery) goes stale the moment
        the thread arms its next guard — firing it must not inject into
        the item now running."""

        def body():
            stale = _ThreadWatchdog(1000.0, SET_ASYNC_EXC)
            stale._timer.cancel()
            # next item arms its own guard without stale being disarmed
            current = _ThreadWatchdog(1000.0, SET_ASYNC_EXC)
            current._timer.cancel()
            stale.fire()  # generation mismatch: must not inject
            leaked = drain_pending_exceptions()
            _disarm_quietly(current.disarm)
            return leaked

        assert run_in_thread(body) is None

    def test_generation_is_monotonic_per_thread(self):
        def body():
            tid = threading.get_ident()
            a = _ThreadWatchdog(1000.0, SET_ASYNC_EXC)
            a._timer.cancel()
            b = _ThreadWatchdog(1000.0, SET_ASYNC_EXC)
            b._timer.cancel()
            assert b._generation == a._generation + 1
            b.disarm()
            # disarm invalidates, it does not reset: a re-armed guard
            # can never collide with a stale timer's token
            assert _WATCHDOG_GENERATION[tid] > b._generation
            a.disarm()  # stale disarm must not clobber the counter
            return _WATCHDOG_GENERATION[tid] > b._generation

        assert run_in_thread(body) is True


class TestCompletionWindowHammer:
    def test_disarm_never_leaks_in_the_completion_window(self):
        """Hammer the fire-vs-disarm window: spin until the watchdog is
        (about to be) firing, then disarm immediately.  Whatever the
        interleaving — delivered during the spin, pending at disarm, or
        delivered *inside* disarm — nothing may escape disarm and
        nothing may surface in the next item."""

        def body():
            leaks = []
            for i in range(300):
                wd = None
                try:
                    # arm inside the item's try, as execute_one does: a
                    # 1 ms timer can deliver before the constructor (its
                    # Timer.start()) has even returned
                    wd = _ThreadWatchdog(0.001, SET_ASYNC_EXC)
                    deadline = time.perf_counter() + 5.0
                    # interruptible spin right up to (and past) the fire
                    while not wd._fired and time.perf_counter() < deadline:
                        pass
                except ItemTimeout:
                    pass  # delivered mid-item: the legitimate outcome
                try:
                    if wd is not None:  # delivered while arming: spent
                        wd.disarm()
                except ItemTimeout:
                    leaks.append(f"iteration {i}: escaped disarm")
                poisoned = drain_pending_exceptions()
                if poisoned:
                    leaks.append(f"iteration {i}: poisoned next item")
            return leaks

        assert run_in_thread(body, timeout=600) == []

    def test_escape_past_disarm_becomes_the_item_error(self, monkeypatch):
        """Delivery can land on the few bytecodes between execute_one's
        inner handlers and _disarm_quietly's guarded region; the outer
        boundary must turn that into the item's normal timeout failure
        instead of letting it abort the batch (or poison the worker)."""
        from repro.bench.generators import GeneratorConfig, random_control_network
        from repro.core import batch as batch_mod
        from repro.core.batch import execute_one
        from repro.core.config import FlowConfig

        real_disarm_quietly = batch_mod._disarm_quietly

        def late_delivery(disarm):
            real_disarm_quietly(disarm)  # guard properly stood down...
            raise ItemTimeout("fired in the completion window")

        monkeypatch.setattr(batch_mod, "_disarm_quietly", late_delivery)
        cfg = GeneratorConfig(n_inputs=10, n_outputs=4, n_gates=28, seed=3)
        net = random_control_network("tiny", cfg)
        outcome = execute_one(
            "network", net, FlowConfig(n_vectors=256), timeout_s=600.0
        )
        assert outcome.result is None and not outcome.cached
        assert "ItemTimeout" in outcome.error and "completion window" in outcome.error
        assert outcome.runtime_s >= 0.0

    def test_disarm_quietly_absorbs_a_late_timeout(self):
        def body():
            calls = []

            def exploding_disarm():
                calls.append(True)
                raise ItemTimeout("fired in the completion window")

            _disarm_quietly(exploding_disarm)
            return len(calls)

        assert run_in_thread(body) == 1
