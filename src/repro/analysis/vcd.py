"""VCD (Value Change Dump) export of ibuffer traces.

Hardware engineers read waveforms; a trace of (timestamp, fields…)
entries maps naturally onto one VCD signal per field, changing at each
entry's cycle. The output is standard IEEE-1364 VCD, loadable in GTKWave
next to RTL simulations — closing the loop between the paper's
software-level traces and the logic-analyzer world it replaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.errors import TraceDecodeError

#: Printable VCD identifier codes, assigned in order.
_ID_ALPHABET = "!\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ"


@dataclass
class _Signal:
    name: str
    width: int
    code: str
    changes: List[Tuple[int, int]] = field(default_factory=list)


class VCDWriter:
    """Minimal, dependency-free VCD writer (cycle timescale)."""

    def __init__(self, module: str = "ibuffer", timescale: str = "1ns") -> None:
        self.module = module
        self.timescale = timescale
        self._signals: Dict[str, _Signal] = {}

    def add_signal(self, name: str, width: int = 64) -> None:
        """Declare a vector signal; duplicate names are an error."""
        if name in self._signals:
            raise TraceDecodeError(f"VCD signal {name!r} declared twice")
        if width < 1:
            raise TraceDecodeError(f"VCD signal {name!r}: width must be >= 1")
        if len(self._signals) >= len(_ID_ALPHABET):
            raise TraceDecodeError("too many VCD signals for this writer")
        code = _ID_ALPHABET[len(self._signals)]
        self._signals[name] = _Signal(name=name, width=width, code=code)

    def change(self, time: int, name: str, value: int) -> None:
        """Record a value change at ``time`` (cycles)."""
        try:
            signal = self._signals[name]
        except KeyError:
            raise TraceDecodeError(f"unknown VCD signal {name!r}") from None
        if time < 0:
            raise TraceDecodeError(f"negative VCD time {time}")
        signal.changes.append((time, int(value)))

    def render(self) -> str:
        """The complete VCD document."""
        lines = [
            "$date generated by repro $end",
            f"$timescale {self.timescale} $end",
            f"$scope module {self.module} $end",
        ]
        for signal in self._signals.values():
            lines.append(
                f"$var wire {signal.width} {signal.code} {signal.name} $end")
        lines.append("$upscope $end")
        lines.append("$enddefinitions $end")

        # Merge all changes into a single time-ordered stream.
        merged: Dict[int, List[Tuple[str, int, int]]] = {}
        for signal in self._signals.values():
            for time, value in signal.changes:
                merged.setdefault(time, []).append(
                    (signal.code, value, signal.width))
        lines.append("$dumpvars")
        for signal in self._signals.values():
            lines.append(f"b{'x' * 1} {signal.code}")
        lines.append("$end")
        for time in sorted(merged):
            lines.append(f"#{time}")
            for code, value, width in merged[time]:
                mask = (1 << width) - 1
                lines.append(f"b{format(value & mask, 'b')} {code}")
        return "\n".join(lines) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.render())


def vcd_from_entries(entries: Sequence[Dict[str, int]],
                     time_field: str = "timestamp",
                     module: str = "ibuffer") -> str:
    """Convert decoded trace entries into a VCD document.

    Every non-time field becomes one signal; each entry produces one
    change per field at its timestamp.
    """
    if not entries:
        raise TraceDecodeError("no entries to export")
    fields = [name for name in entries[0] if name != time_field]
    if time_field not in entries[0]:
        raise TraceDecodeError(
            f"entries carry no {time_field!r} field: {sorted(entries[0])}")
    writer = VCDWriter(module=module)
    for name in fields:
        writer.add_signal(name)
    for entry in entries:
        for name in fields:
            writer.change(entry[time_field], name, entry[name])
    return writer.render()


def parse_vcd_changes(document: str) -> List[Tuple[int, str, int]]:
    """Tiny VCD reader for round-trip tests: (time, signal_name, value)."""
    code_to_name: Dict[str, str] = {}
    changes: List[Tuple[int, str, int]] = []
    time = 0
    in_dumpvars = False
    for raw in document.splitlines():
        line = raw.strip()
        if line.startswith("$var"):
            parts = line.split()
            code_to_name[parts[3]] = parts[4]
        elif line == "$dumpvars":
            in_dumpvars = True
        elif line == "$end" and in_dumpvars:
            in_dumpvars = False
        elif line.startswith("#"):
            time = int(line[1:])
        elif line.startswith("b") and not in_dumpvars:
            bits, _, code = line[1:].partition(" ")
            if "x" in bits:
                continue
            changes.append((time, code_to_name[code], int(bits, 2)))
    return changes
