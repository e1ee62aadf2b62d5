"""Event-driven simulation kernel.

Two implementations of the same discrete-event contract live here:

:class:`Engine`
    The production scheduler: a binary heap of *times* plus one bucket
    (a plain Python list) of callbacks per distinct time.  Same-cycle
    events are appended to their cycle's bucket and dispatched in
    append order, so the observable firing order is scheduling order --
    exactly the contract of the original heap design -- while the heap
    only ever holds each distinct time once.  Simulations cluster many
    events on the same bus cycle (the suite averages ~3 events per
    distinct cycle), so bucketing roughly third the heap traffic and
    drops the per-event tuple allocation of the ``(time, seq, fn)``
    encoding entirely.

:class:`HeapEngine`
    The original ``(time, seq, fn)`` heap, kept as the executable
    specification.  The property suite runs every scheduling law against
    both implementations, and the differential harness
    (:mod:`repro.testing.differential`) can drive whole simulations
    through either to prove they are observably identical.

Both engines run an **integer cycle clock**: ``at`` rejects
non-integral times (a float that slips into the heap would make cycle
arithmetic silently inexact and, in the old encoding, mixed int/float
heap comparisons) and normalizes integral index-able types (e.g.
``numpy.int64``) to built-in ``int``.
"""

from __future__ import annotations

import heapq
from operator import index as _index
from typing import Callable

__all__ = ["Engine", "HeapEngine"]


def _check_time(time, now: int) -> int:
    """Validate and normalize an event time: integral and not in the past."""
    if type(time) is not int:
        try:
            time = _index(time)
        except TypeError:
            raise TypeError(
                f"event time must be an integral cycle count, got {time!r} "
                f"of type {type(time).__name__}"
            ) from None
    if time < now:
        raise ValueError(f"event scheduled in the past ({time} < {now})")
    return time


class Engine:
    """Discrete-event scheduler with an integer cycle clock.

    Heap of distinct times + per-time dispatch buckets.  Events that
    share a cycle fire in scheduling order; an event scheduled *for the
    current cycle while that cycle is being dispatched* joins the end of
    the live bucket and still fires this cycle, which matches the
    ``(time, seq)`` ordering of :class:`HeapEngine` exactly.
    """

    __slots__ = (
        "now",
        "_times",
        "_buckets",
        "_pending",
        "_running",
        "dispatched_total",
        "fast_dispatch",
    )

    def __init__(self) -> None:
        self.now = 0
        self._times: list[int] = []  # heap of distinct scheduled times
        self._buckets: dict[int, list] = {}  # time -> callbacks, append order
        self._pending = 0
        self._running = False
        #: lifetime count of dispatched events (throughput benchmarks)
        self.dispatched_total = 0
        #: contended-path fast path (MachineConfig.bus_fast_path): iterate
        #: buckets with a list iterator instead of explicit indexing.  The
        #: system clears this with the rest of the bus fast path so the
        #: reference configuration dispatches exactly as the committed
        #: baseline does.
        self.fast_dispatch = True

    def at(self, time: int, fn: Callable[[int], None]) -> None:
        """Schedule ``fn(time)`` at absolute cycle ``time`` (>= now)."""
        if type(time) is not int or time < self.now:
            time = _check_time(time, self.now)
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [fn]
            heapq.heappush(self._times, time)
        else:
            bucket.append(fn)
        self._pending += 1

    def after(self, delay: int, fn: Callable[[int], None]) -> None:
        """Schedule ``fn`` ``delay`` cycles from now."""
        self.at(self.now + delay, fn)

    def pending(self) -> int:
        return self._pending

    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Drain the event queue.

        Stops when the queue is empty, when the clock would pass
        ``until``, or after ``max_events`` dispatches (a runaway guard for
        tests).  Returns the number of events dispatched.
        """
        if self._running:
            raise RuntimeError("engine is not reentrant")
        self._running = True
        dispatched = 0
        times = self._times
        buckets = self._buckets
        pop = heapq.heappop
        try:
            if until is None and max_events is None:
                # unguarded fast path (whole-simulation runs): no bound
                # checks, pending adjusted per bucket instead of per event
                if self.fast_dispatch:
                    # A list iterator re-checks the length on every step,
                    # so callbacks appended to the live bucket during
                    # dispatch are picked up in append order -- the same
                    # contract as the explicit index dispatch below.
                    while times:
                        time = pop(times)
                        self.now = time
                        bucket = buckets[time]
                        for fn in bucket:
                            fn(time)
                        i = len(bucket)
                        dispatched += i
                        self._pending -= i
                        del buckets[time]
                    return dispatched  # dispatched_total updated in finally
                while times:
                    time = pop(times)
                    self.now = time
                    bucket = buckets[time]
                    i = 0
                    while i < len(bucket):
                        fn = bucket[i]
                        i += 1
                        fn(time)
                    dispatched += i
                    self._pending -= i
                    del buckets[time]
                return dispatched  # dispatched_total updated in finally
            while times:
                time = times[0]
                if until is not None and time > until:
                    break
                pop(times)
                self.now = time
                # Dispatch by index: callbacks scheduled *at this cycle
                # during dispatch* append to this live bucket and are
                # picked up before the cycle closes.
                bucket = buckets[time]
                i = 0
                while i < len(bucket):
                    fn = bucket[i]
                    i += 1
                    self._pending -= 1
                    fn(time)
                    dispatched += 1
                    if max_events is not None and dispatched >= max_events:
                        del bucket[:i]  # keep only the undispatched tail
                        if bucket:
                            # the time was already popped: restore it so
                            # the tail stays reachable by a later run()
                            heapq.heappush(times, time)
                        else:
                            del buckets[time]
                        raise RuntimeError(
                            f"simulation exceeded {max_events} events at cycle "
                            f"{self.now} with {self._pending} events still "
                            "pending; likely deadlock or livelock"
                        )
                del buckets[time]
        finally:
            self._running = False
            self.dispatched_total += dispatched
        return dispatched


class HeapEngine:
    """The original scheduler: one heap entry ``(time, seq, fn)`` per
    event, ``seq`` a monotone tiebreaker so same-cycle events fire in
    scheduling order.

    Kept as the reference implementation for differential testing; see
    the module docstring.
    """

    __slots__ = ("now", "_queue", "_seq", "_running", "dispatched_total")

    def __init__(self) -> None:
        self.now = 0
        self._queue: list = []
        self._seq = 0
        self._running = False
        #: lifetime count of dispatched events (throughput benchmarks)
        self.dispatched_total = 0

    def at(self, time: int, fn: Callable[[int], None]) -> None:
        """Schedule ``fn(time)`` at absolute cycle ``time`` (>= now)."""
        time = _check_time(time, self.now)
        self._seq += 1
        heapq.heappush(self._queue, (time, self._seq, fn))

    def after(self, delay: int, fn: Callable[[int], None]) -> None:
        """Schedule ``fn`` ``delay`` cycles from now."""
        self.at(self.now + delay, fn)

    def pending(self) -> int:
        return len(self._queue)

    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Drain the event queue (same contract as :meth:`Engine.run`)."""
        if self._running:
            raise RuntimeError("engine is not reentrant")
        self._running = True
        dispatched = 0
        try:
            q = self._queue
            while q:
                time, _seq, fn = q[0]
                if until is not None and time > until:
                    break
                heapq.heappop(q)
                self.now = time
                fn(time)
                dispatched += 1
                if max_events is not None and dispatched >= max_events:
                    raise RuntimeError(
                        f"simulation exceeded {max_events} events at cycle "
                        f"{self.now} with {len(q)} events still pending; "
                        "likely deadlock or livelock"
                    )
        finally:
            self._running = False
            self.dispatched_total += dispatched
        return dispatched
