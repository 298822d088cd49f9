"""Source adapters: publish instrumentation output into a TraceHub.

Each helper maps one existing producer's native shape (ibuffer entry
dicts, :class:`LatencySample`, :class:`OrderRecord`, vendor-profiler
reports, host events, emulation stats) onto the typed schemas of
:mod:`repro.trace.schema`. The producers call these when their fabric has
a hub installed (``Fabric(trace=hub)`` / ``fabric.enable_tracing()``);
they are also usable directly for custom sources.

All imports of producer types stay local to the functions — the trace
package must remain importable without dragging in the simulator stack.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

from repro.trace.hub import TraceHub


def ibuffer_schema_name(ibuffer_name: str) -> str:
    """Schema name for raw READ drains of one ibuffer family."""
    return f"ibuffer.{ibuffer_name}"


def publish_ibuffer_entries(hub: TraceHub, ibuffer, unit: int,
                            entries: Sequence[Dict[str, int]]) -> int:
    """Publish raw trace entries drained from one ibuffer compute unit.

    A per-layout schema ``ibuffer.<name>`` is registered on first use;
    the entry's ``timestamp`` field (when the layout has one) becomes the
    record's ``ts``, all other fields are payload.
    """
    layout_fields = tuple(name for name in ibuffer.layout.fields
                          if name != "timestamp")
    schema = hub.ensure_schema(
        ibuffer_schema_name(ibuffer.name), layout_fields,
        doc=f"Raw READ drain of ibuffer {ibuffer.name!r}")
    site = f"{ibuffer.name}[{unit}]"
    writer = hub.writer(schema.name, kernel=ibuffer.name, cu=unit, site=site)
    write = writer.write
    for entry in entries:
        write(entry.get("timestamp", 0),
              *(entry[name] for name in layout_fields))
    return len(entries)


def publish_latency_samples(hub: TraceHub, samples: Iterable,
                            kernel: str = "", cu: int = 0,
                            site: str = "") -> int:
    """Publish paired :class:`LatencySample` measurements."""
    writer = hub.writer("latency.sample", kernel=kernel, cu=cu, site=site)
    write = writer.write
    count = 0
    for sample in samples:
        write(sample.start_cycle, sample.start_cycle, sample.end_cycle,
              sample.latency, sample.start_value, sample.end_value)
        count += 1
    return count


def publish_watch_events(hub: TraceHub, entries: Sequence[Dict[str, int]],
                         kernel: str = "", cu: int = 0,
                         site: str = "") -> int:
    """Publish decoded watchpoint entries (timestamp/address/tag/kind)."""
    writer = hub.writer("watch.event", kernel=kernel, cu=cu, site=site)
    write = writer.write
    for entry in entries:
        write(entry["timestamp"], entry["address"], entry["tag"],
              entry["kind"])
    return len(entries)


def publish_order_records(hub: TraceHub, records: Iterable,
                          kernel: str = "", cu: int = 0,
                          site: str = "") -> int:
    """Publish Figure 2 :class:`OrderRecord` issue-order probes."""
    writer = hub.writer("order.record", kernel=kernel, cu=cu, site=site)
    write = writer.write
    count = 0
    for record in records:
        write(record.timestamp, record.seq, record.outer, record.inner)
        count += 1
    return count


def publish_run_span(hub: TraceHub, kernel: str, start: int, end: int,
                     cu: int = 0, site: str = "") -> None:
    """Publish one kernel launch's [start, end] cycle extent."""
    hub.emit("run.span", start, kernel=kernel, cu=cu,
             site=site or kernel, start=start, end=end)


def publish_vendor_report(hub: TraceHub, report, kernel: str = "") -> int:
    """Publish a :class:`VendorProfileReport`'s counters.

    LSU counters go to ``counter.lsu`` (site = memory site), channel
    counters to ``counter.channel`` (site = channel name); ``ts`` is the
    end of the profiling window.
    """
    ts = report.window_cycles
    count = 0
    lsu_writer = hub.writer("counter.lsu", kernel=kernel)
    for lsu in report.lsus:
        lsu_writer.write_to(lsu.site, ts, lsu.accesses,
                            lsu.total_latency_cycles,
                            lsu.max_latency_cycles)
        count += 1
    channel_writer = hub.writer("counter.channel", kernel=kernel)
    for channel in report.channels:
        channel_writer.write_to(channel.name, ts, channel.writes,
                                channel.reads, channel.write_stall_cycles,
                                channel.read_stall_cycles,
                                channel.max_occupancy)
        count += 1
    return count


def publish_host_event(hub: TraceHub, event, kernel: str = "") -> None:
    """Publish one completed host-queue event's lifecycle cycles."""
    hub.emit("host.command", event.queued_cycle or 0,
             kernel=kernel or event.description, site=event.description,
             queued=event.queued_cycle or 0, start=event.start_cycle or 0,
             end=event.end_cycle or 0)


def publish_emulation_run(hub: TraceHub, kernel: str, step: int,
                          counts: Dict[str, int]) -> None:
    """Publish one emulator kernel run's operation counts (ts = steps)."""
    hub.emit("emu.kernel", step, kernel=kernel, site=kernel,
             iterations=counts.get("iterations", 0),
             loads=counts.get("loads", 0), stores=counts.get("stores", 0),
             channel_reads=counts.get("channel_reads", 0),
             channel_writes=counts.get("channel_writes", 0))
