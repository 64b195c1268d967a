"""Discrete-event simulation kernel for the LTE radio-layer substrate.

The LTE MAC operates on a 1 ms TTI (transmission time interval) grid, but
simulating every TTI of a multi-minute capture in pure Python would be
prohibitively slow.  The kernel therefore combines two mechanisms:

* an **event queue** for sparse protocol events (packet arrivals, RRC
  timers, paging, handover triggers), and
* a **TTI loop** that the eNodeB scheduler drives *only while at least one
  UE has backlogged data*, skipping idle air time in O(1).

All simulation time is measured in integer **microseconds** to avoid
floating-point drift in timer comparisons; helpers convert to/from
seconds and milliseconds at the API boundary.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional

#: Number of microseconds in one LTE TTI (1 ms).
TTI_US = 1_000

#: Number of microseconds in one second.
SECOND_US = 1_000_000


def seconds(value: float) -> int:
    """Convert seconds to integer simulation microseconds."""
    return int(round(value * SECOND_US))


def milliseconds(value: float) -> int:
    """Convert milliseconds to integer simulation microseconds."""
    return int(round(value * 1_000))


def to_seconds(us: int) -> float:
    """Convert integer simulation microseconds to float seconds."""
    return us / SECOND_US


#: A heap entry is a list ``[time_us, sequence, callback]``: lists compare
#: element-wise in C, and the unique sequence breaks time ties FIFO before
#: the callback is ever compared.  Cancelling sets the callback to None.
_Event = list


class EventHandle:
    """Handle returned by :meth:`SimClock.schedule`; allows cancellation."""

    __slots__ = ("_event",)

    def __init__(self, event: _Event) -> None:
        self._event = event

    def cancel(self) -> None:
        """Cancel the event.  Safe to call more than once or after firing."""
        self._event[2] = None

    @property
    def cancelled(self) -> bool:
        return self._event[2] is None

    @property
    def time_us(self) -> int:
        return self._event[0]


class SimClock:
    """Priority-queue simulation clock.

    Events scheduled for the same instant fire in scheduling order
    (FIFO), which keeps protocol handshakes deterministic.
    """

    def __init__(self, start_us: int = 0) -> None:
        self._now_us = start_us
        self._queue: list[_Event] = []
        self._sequence = itertools.count()
        self._rest_hooks: list[Callable[[], None]] = []

    @property
    def now_us(self) -> int:
        """Current simulation time in microseconds."""
        return self._now_us

    @property
    def now_s(self) -> float:
        """Current simulation time in seconds."""
        return to_seconds(self._now_us)

    def schedule(self, delay_us: int, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to fire ``delay_us`` microseconds from now."""
        if delay_us < 0:
            raise ValueError(f"cannot schedule in the past (delay_us={delay_us})")
        event = [self._now_us + delay_us, next(self._sequence), callback]
        heapq.heappush(self._queue, event)
        return EventHandle(event)

    def schedule_at(self, time_us: int, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at an absolute simulation time."""
        return self.schedule(time_us - self._now_us, callback)

    def on_rest(self, hook: Callable[[], None]) -> None:
        """Call ``hook`` whenever :meth:`run_until` or :meth:`run` returns.

        Components that buffer work between events (the eNodeB's grant
        hand-off) flush here, so callers see a settled state.
        """
        self._rest_hooks.append(hook)

    def _rest(self) -> None:
        for hook in self._rest_hooks:
            hook()

    def peek_next_time(self) -> Optional[int]:
        """Time of the next pending (non-cancelled) event, or ``None``."""
        while self._queue and self._queue[0][2] is None:
            heapq.heappop(self._queue)
        return self._queue[0][0] if self._queue else None

    def step(self) -> bool:
        """Fire the next pending event.  Returns ``False`` if queue is empty."""
        while self._queue:
            time_us, _, callback = heapq.heappop(self._queue)
            if callback is None:
                continue
            self._now_us = time_us
            callback()
            return True
        return False

    def run_until(self, end_us: int) -> None:
        """Fire every event scheduled strictly before or at ``end_us``.

        The clock is left at ``end_us`` even if the queue drained early,
        so successive calls observe monotonically increasing time.
        """
        queue = self._queue
        pop = heapq.heappop
        while queue and queue[0][0] <= end_us:
            time_us, _, callback = pop(queue)
            if callback is not None:
                self._now_us = time_us
                callback()
        self._now_us = max(self._now_us, end_us)
        self._rest()

    def run(self) -> None:
        """Fire every pending event until the queue is empty."""
        while self.step():
            pass
        self._rest()

    def pending_count(self) -> int:
        """Number of non-cancelled events still queued (for tests)."""
        return sum(1 for event in self._queue if event[2] is not None)
