"""Capacity-constrained shared resources for the simulation core.

:class:`Store` is a bounded FIFO used to build channels and request queues;
:class:`Resource` models mutually-exclusive hardware ports (e.g. a memory
controller command port) with FIFO granting order.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.errors import SimulationError
from repro.sim.core import Event, Simulator


class StorePut(Event):
    """Pending put request; triggers when the item is accepted."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.sim)
        self.item = item


class StoreGet(Event):
    """Pending get request; triggers with the retrieved item."""

    __slots__ = ()

    def __init__(self, store: "Store") -> None:
        super().__init__(store.sim)


class Store:
    """A bounded FIFO of items with event-based put/get.

    ``capacity`` may be ``float('inf')`` for an unbounded store. Both the
    waiting-putters and waiting-getters queues are FIFO, which preserves
    producer and consumer ordering — essential for modelling AOCL channels.
    """

    def __init__(self, sim: Simulator, capacity: float = float("inf")) -> None:
        if capacity < 0:
            raise SimulationError(f"store capacity must be >= 0, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._putters: Deque[StorePut] = deque()
        self._getters: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def level(self) -> int:
        """Number of items currently stored."""
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return len(self.items) >= self.capacity

    def put(self, item: Any) -> StorePut:
        """Request to insert ``item``; the event triggers upon acceptance."""
        event = StorePut(self, item)
        self._putters.append(event)
        self._dispatch()
        return event

    def get(self) -> StoreGet:
        """Request one item; the event triggers with the item as value."""
        event = StoreGet(self)
        self._getters.append(event)
        self._dispatch()
        return event

    def try_put(self, item: Any) -> bool:
        """Non-blocking put: returns False when the store is full.

        A waiting getter counts as available space (rendezvous semantics),
        which matches a zero-capacity handshake.
        """
        if self._getters and not self.items:
            getter = self._getters.popleft()
            getter.succeed(item)
            return True
        if self.is_full:
            return False
        self.items.append(item)
        self._dispatch()
        return True

    def try_get(self) -> tuple:
        """Non-blocking get: returns ``(item, True)`` or ``(None, False)``."""
        if self.items:
            item = self.items.popleft()
            self._dispatch()
            return item, True
        if self._putters:
            putter = self._putters.popleft()
            putter.succeed()
            return putter.item, True
        return None, False

    def _dispatch(self) -> None:
        # Move items from waiting putters into the buffer while space exists.
        progressed = True
        while progressed:
            progressed = False
            while self._putters and len(self.items) < self.capacity:
                putter = self._putters.popleft()
                self.items.append(putter.item)
                putter.succeed()
                progressed = True
            while self._getters and self.items:
                getter = self._getters.popleft()
                getter.succeed(self.items.popleft())
                progressed = True
            # Zero-capacity rendezvous: direct hand-off putter -> getter.
            while self.capacity == 0 and self._putters and self._getters:
                putter = self._putters.popleft()
                getter = self._getters.popleft()
                getter.succeed(putter.item)
                putter.succeed()
                progressed = True


class ResourceRequest(Event):
    """Pending request for a resource slot."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.sim)
        self.resource = resource

    def __enter__(self) -> "ResourceRequest":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.resource.release(self)


class Resource:
    """A pool of ``capacity`` identical slots granted in FIFO order."""

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.users: list = []
        self._waiters: Deque[ResourceRequest] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self) -> ResourceRequest:
        """Request a slot; the returned event triggers when granted."""
        event = ResourceRequest(self)
        self._waiters.append(event)
        self._grant()
        return event

    def release(self, request: ResourceRequest) -> None:
        """Release a previously granted slot."""
        if request in self.users:
            self.users.remove(request)
        elif request in self._waiters:
            self._waiters.remove(request)
        self._grant()

    def _grant(self) -> None:
        while self._waiters and len(self.users) < self.capacity:
            event = self._waiters.popleft()
            self.users.append(event)
            event.succeed()
