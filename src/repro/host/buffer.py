"""Host-visible global buffers (cl_mem equivalent)."""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.memory.backing import BackingStore


class Buffer:
    """A device buffer plus host-side read/write access.

    In this model transfers are instantaneous (the simulated device and the
    host share the backing store); kernel-visible timing is unaffected
    because transfers happen only while no kernel is running.
    """

    def __init__(self, context: Any, store: BackingStore) -> None:
        self._context = context
        self._store = store

    @property
    def name(self) -> str:
        return self._store.name

    @property
    def size(self) -> int:
        return self._store.size

    @property
    def base_address(self) -> int:
        """Device address of element 0 (usable with watchpoints)."""
        return self._store.base_address

    def address_of(self, index: int) -> int:
        """Device address of element ``index`` (``&buf[i]``)."""
        return self._store.address_of(index)

    def write(self, data) -> "Buffer":
        """Host -> device transfer (clEnqueueWriteBuffer)."""
        self._store.fill(np.asarray(data))
        return self

    def read(self) -> np.ndarray:
        """Device -> host transfer (clEnqueueReadBuffer); returns a copy."""
        return self._store.snapshot()

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Buffer {self.name!r} size={self.size}>"
