"""Loop-carried reductions for pipelined loops.

In a pipelined inner loop, iterations overlap; a reduction such as
``sum += x[i+l] * y[i]`` is kept correct by the HLS compiler regardless of
that overlap. :class:`Accumulator` provides the same guarantee in the
model: contributions may arrive in any cycle order, and a consumer waits
(via :class:`~repro.pipeline.ops.CollectReduction`) until the expected
number of contributions for its key has arrived.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from repro.errors import KernelError
from repro.sim.core import Event, Simulator


class Accumulator:
    """Keyed reduction registers (one key per outer-loop index).

    ``op`` is the combining function (default addition); ``init`` the
    identity value.
    """

    def __init__(self, sim: Simulator, name: str,
                 op: Callable[[Any, Any], Any] = lambda a, b: a + b,
                 init: Any = 0) -> None:
        self.sim = sim
        self.name = name
        self._op = op
        self._init = init
        self._values: Dict[Any, Any] = {}
        self._counts: Dict[Any, int] = {}
        self._waiters: Dict[Any, List[Tuple[int, Any]]] = {}

    def add(self, key: Any, value: Any) -> None:
        """Fold ``value`` into the register for ``key`` (zero-time)."""
        self._values[key] = self._op(self._values.get(key, self._init), value)
        self._counts[key] = self._counts.get(key, 0) + 1
        self._notify(key)

    def count(self, key: Any) -> int:
        """Contributions received so far for ``key``."""
        return self._counts.get(key, 0)

    def value(self, key: Any) -> Any:
        """Current partial value for ``key``."""
        return self._values.get(key, self._init)

    def collect(self, key: Any, expected: int) -> Event:
        """Event that fires with the final value after ``expected`` adds."""
        event = Event(self.sim)
        self.wait(key, expected, event)
        return event

    def wait(self, key: Any, expected: int, waiter: Any) -> None:
        """Call ``waiter.succeed(value)`` once ``expected`` adds arrived
        (at once if they already have).

        ``waiter`` is an :class:`Event` for :meth:`collect`; the analytic
        launch replay passes its own waker, which resumes the body on its
        private timeline one hop later, as the event would.
        """
        if expected < 0:
            raise KernelError(f"accumulator {self.name!r}: expected must be >= 0")
        self._waiters.setdefault(key, []).append((expected, waiter))
        self._notify(key)

    def _notify(self, key: Any) -> None:
        waiters = self._waiters.get(key)
        if not waiters:
            return
        count = self._counts.get(key, 0)
        still_waiting = []
        for expected, event in waiters:
            if count >= expected and not event.triggered:
                event.succeed(self._values.get(key, self._init))
            elif not event.triggered:
                still_waiting.append((expected, event))
        if still_waiting:
            self._waiters[key] = still_waiting
        else:
            del self._waiters[key]

    def reset(self, key: Any = None) -> None:
        """Clear one key's register (or all registers)."""
        if key is None:
            self._values.clear()
            self._counts.clear()
        else:
            self._values.pop(key, None)
            self._counts.pop(key, None)
