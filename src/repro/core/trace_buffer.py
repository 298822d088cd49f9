"""The trace buffer: a flight recorder in local memory.

"An ibuffer contains both logic function blocks and a trace buffer. ...
the trace buffer serves as a flight recorder" (§1/§4). Entries are fixed
layouts of 64-bit words stored in a banked local memory, written within the
ibuffer's single-cycle loop (zero-time pokes) and drained word-by-word in
the READ state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.commands import SamplingMode
from repro.errors import IBufferError, TraceDecodeError
from repro.memory.local_memory import LocalMemory


@dataclass(frozen=True)
class EntryLayout:
    """Field layout of one trace entry.

    Every entry starts with an implicit ``valid`` word so a fixed-length
    readout (Listing 10 always reads DEPTH entries) is decodable.
    """

    fields: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.fields:
            raise IBufferError("entry layout needs at least one field")
        if len(set(self.fields)) != len(self.fields):
            raise IBufferError(f"duplicate fields in layout {self.fields}")
        if "valid" in self.fields:
            raise IBufferError("'valid' is implicit; do not declare it")

    @property
    def words_per_entry(self) -> int:
        return len(self.fields) + 1  # + valid word

    def pack(self, values: Dict[str, Any]) -> List[int]:
        """Entry dict -> words (valid first)."""
        try:
            return [1] + [int(values[name]) for name in self.fields]
        except KeyError:
            missing = set(self.fields) - set(values)
            raise TraceDecodeError(
                f"entry missing fields {sorted(missing)}") from None

    def unpack(self, words: Sequence[int]) -> Optional[Dict[str, int]]:
        """Words -> entry dict, or None for an invalid (empty) slot."""
        if len(words) != self.words_per_entry:
            raise TraceDecodeError(
                f"expected {self.words_per_entry} words, got {len(words)}")
        if not words[0]:
            return None
        return {name: int(word) for name, word in zip(self.fields, words[1:])}


#: Layout used by the stall monitor: arrival timestamp + payload + site id.
STALL_LAYOUT = EntryLayout(("timestamp", "value", "slot"))

#: Layout used by smart watchpoints: time + address + tag + event kind.
WATCH_LAYOUT = EntryLayout(("timestamp", "address", "tag", "kind"))

#: Minimal layout for raw recording.
RAW_LAYOUT = EntryLayout(("timestamp", "value"))


class TraceBuffer:
    """Fixed-depth entry storage over a local memory, linear or cyclic."""

    def __init__(self, memory: LocalMemory, layout: EntryLayout, depth: int,
                 mode: SamplingMode = SamplingMode.LINEAR) -> None:
        if depth < 1:
            raise IBufferError(f"trace buffer depth must be >= 1, got {depth}")
        needed = depth * layout.words_per_entry
        if memory.size < needed:
            raise IBufferError(
                f"local memory {memory.name!r} holds {memory.size} words; "
                f"{needed} needed for depth {depth} x {layout.words_per_entry}")
        self.memory = memory
        self.layout = layout
        self.depth = depth
        self.mode = SamplingMode(mode)
        self._write_index = 0
        self._total_writes = 0
        self.dropped = 0

    @property
    def is_full(self) -> bool:
        return self._total_writes >= self.depth

    @property
    def valid_entries(self) -> int:
        return min(self._total_writes, self.depth)

    @property
    def total_writes(self) -> int:
        return self._total_writes

    def reset(self) -> None:
        """RESET state action: clear all slots and pointers."""
        self.memory.data[:] = 0
        self._write_index = 0
        self._total_writes = 0
        self.dropped = 0

    def write(self, values: Dict[str, Any]) -> bool:
        """Record one entry; returns False when a full linear buffer drops it."""
        if self.mode == SamplingMode.LINEAR and self.is_full:
            self.dropped += 1
            return False
        words = self.layout.pack(values)
        count = len(words)
        base = self._write_index * count
        # The slot's words in one slice: the pokes of one entry.
        memory = self.memory
        memory.data[base:base + count] = words
        memory.accesses += count
        self._write_index = (self._write_index + 1) % self.depth
        self._total_writes += 1
        return True

    def read_slot(self, slot: int) -> List[int]:
        """Raw words of physical slot ``slot`` (READ-state drain order)."""
        if not 0 <= slot < self.depth:
            raise IBufferError(f"slot {slot} out of range [0, {self.depth})")
        base = slot * self.layout.words_per_entry
        return [self.memory.peek(base + offset)
                for offset in range(self.layout.words_per_entry)]

    def readout_words(self) -> List[int]:
        """The READ-state drain stream: every slot's words, oldest first."""
        wpe = self.layout.words_per_entry
        slots = self.memory.data[:self.depth * wpe].reshape(self.depth, wpe)
        return slots[self.chronological_slots()].ravel().tolist()

    def chronological_slots(self) -> List[int]:
        """Physical slot indices oldest-first.

        In cyclic mode after wrap-around, the oldest entry sits at the
        current write index; linear mode is simply 0..depth-1.
        """
        if self.mode == SamplingMode.CYCLIC and self._total_writes > self.depth:
            start = self._write_index
            return [(start + i) % self.depth for i in range(self.depth)]
        return list(range(self.depth))

    def entries(self) -> List[Dict[str, int]]:
        """Decoded valid entries, oldest first (host-side convenience)."""
        decoded = []
        for slot in self.chronological_slots():
            entry = self.layout.unpack(self.read_slot(slot))
            if entry is not None:
                decoded.append(entry)
        return decoded


def decode_words(words: Sequence[int], layout: EntryLayout) -> List[Dict[str, int]]:
    """Decode a flat word stream (global-memory readout) into entries."""
    wpe = layout.words_per_entry
    if len(words) % wpe:
        raise TraceDecodeError(
            f"word stream length {len(words)} is not a multiple of {wpe}")
    entries = []
    for base in range(0, len(words), wpe):
        entry = layout.unpack(list(words[base:base + wpe]))
        if entry is not None:
            entries.append(entry)
    return entries
