"""The lazy SAMPLE sink, and the stall-monitored matmul it lets replay.

A parked ibuffer unit hands its data channel a sink: the channel takes
each value in its LATE phase and runs the unit's per-datum work (sample
it, or count it dropped outside SAMPLE) when the channel is next
accessed, so a probe write schedules nothing. The per-cycle polling
oracle (:class:`~tests.polling_oracle.PollingIBuffer`) must agree with
it on every observable — states, trace entries, dropped samples, every
channel's stats and ``sim.now`` — over scripts of same-cycle bursts that
overflow the data channel, RESET/SAMPLE/STOP commands, aux values, stats
and state reads mid-run (also from a callback inside the run), an
autorun producer writing in the early or late phase (created before or
after the ibuffer), and ``stop_autorun``; for the stall-monitor and the
watchpoint logic blocks, in linear and cyclic mode.

With every stall-monitor data channel sunk, a launch of the monitored
matmul that owns the simulator is replayed analytically. It must equal
the reference executor's stepped launch on buffers, ``sim.now``, engine,
LSU and memory statistics, bank state, every channel's stats, and the
trace entries and latency samples the host reads back. Launches the gate
refuses (a watchpoint, an ibuffer unit not parked idle, a concurrent
launch) step with a named reason and agree with the reference too.

Example budget: ``SINK_EQUIV_EXAMPLES`` (default 25); CI runs a deep job
at 300.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.commands import IBufferCommand, IBufferState, SamplingMode
from repro.core.ibuffer import IBuffer, IBufferConfig
from repro.core.logic_blocks import StallMonitorLogic, WatchpointLogic
from repro.core.stall_monitor import StallMonitor
from repro.core.watchpoint import SmartWatchpoint
from repro.kernels.matmul import MatMulKernel, allocate_matmul_buffers
from repro.memory.global_memory import GlobalMemoryConfig
from repro.pipeline.fabric import Fabric
from repro.pipeline.kernel import AutorunKernel, PipelineConfig
from tests.executor_oracle import launch, run_kernel
from tests.polling_oracle import PollingIBuffer
from tests.test_prop_replay import _engine, _memory

MAX_EXAMPLES = int(os.environ.get("SINK_EQUIV_EXAMPLES", "25"))


# -- the sink against the per-cycle polling oracle --------------------------


def _stall_logic(cu):
    return StallMonitorLogic(cu)


def _watch_logic(cu):
    return WatchpointLogic(max_watches=2, bound_low=0, bound_high=6,
                           invariance=True)


def _datum(watch, value):
    return (value % 8, value) if watch else value


class _Producer(AutorunKernel):
    """Writes ``bursts[cycle]`` data a cycle in ``phase`` to the channel
    ``target()`` returns (the ibuffer may not exist yet when the producer
    is created)."""

    def __init__(self, target, bursts, phase, watch):
        super().__init__(name=f"producer_{phase}", phase=phase)
        self.target = target
        self.bursts = bursts
        self.watch = watch

    def body(self, ctx):
        while True:
            for index in range(self.bursts.get(ctx.now, 0)):
                ctx.write_channel_nb(self.target(),
                                     _datum(self.watch, ctx.now + index))
            yield ctx.cycle()


#: ("write", unit, count, value) — ``count`` same-cycle writes |
#: ("cmd", unit, command) | ("aux", unit, value) | ("wait", cycles) |
#: ("stats",) | ("peek",) — read states, dropped samples and entries |
#: ("callback", delay) — read the stats from an event inside the run.
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, 1), st.integers(1, 5),
                  st.integers(0, 15)),
        st.tuples(st.just("cmd"), st.integers(0, 1),
                  st.sampled_from([IBufferCommand.RESET,
                                   IBufferCommand.SAMPLE,
                                   IBufferCommand.STOP])),
        st.tuples(st.just("aux"), st.integers(0, 1), st.integers(0, 7)),
        st.tuples(st.just("wait"), st.integers(1, 12)),
        st.tuples(st.just("stats")),
        st.tuples(st.just("peek")),
        st.tuples(st.just("callback"), st.integers(0, 6)),
    ),
    min_size=1, max_size=30)

#: None | (phase, bursts, created before the ibuffer). Only an early
#: producer is created first: a late one started before the ibuffer is
#: seen one cycle later than by a per-cycle poller, for parked units
#: with or without a sink (see docs/PERFORMANCE.md, §3).
_producers = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(["early", "late"]),
              st.dictionaries(st.integers(0, 40), st.integers(1, 4),
                              max_size=6),
              st.booleans()).map(
        lambda p: (p[0], p[1], p[2] and p[0] == "early")))


def _peek(ibuffer):
    return (dict(ibuffer.states), dict(ibuffer.samples_dropped),
            {cu: trace.entries()
             for cu, trace in ibuffer.trace_buffers.items()})


def _run_sink_script(cls, logic, mode, depth, data_depth, initial_state,
                     producer, steps):
    """Drive one two-unit ibuffer through ``steps``; return everything
    observable."""
    fabric = Fabric()
    sim = fabric.sim
    watch = logic == "watch"
    ibuffer = None

    def add_producer():
        phase, bursts, _ = producer
        fabric.add_autorun(_Producer(lambda: ibuffer.data_c[1], bursts,
                                     phase, watch))

    if producer is not None and producer[2]:
        # Created first: the ibuffer then starts behind its start event.
        add_producer()
    ibuffer = cls(fabric, "probe",
                  logic_factory=_watch_logic if watch else _stall_logic,
                  config=IBufferConfig(count=2, depth=depth, mode=mode,
                                       initial_state=initial_state,
                                       use_aux_channel=watch,
                                       data_channel_depth=data_depth))
    if producer is not None and not producer[2]:
        add_producer()
    seen = []
    for step in steps:
        kind = step[0]
        if kind == "write":
            _, unit, count, value = step
            for index in range(count):
                ibuffer.data_c[unit].write_nb(_datum(watch, value + index))
        elif kind == "cmd":
            ibuffer.cmd_c[step[1]].write_nb(int(step[2]))
        elif kind == "aux":
            if watch:
                ibuffer.addr_c[step[1]].write_nb(step[2])
            else:
                ibuffer.data_c[step[1]].write_nb(step[2])
        elif kind == "wait":
            fabric.advance(step[1])
        elif kind == "stats":
            seen.append(("stats", sim.now, fabric.channels.stats_table()))
        elif kind == "peek":
            seen.append(("peek", sim.now, _peek(ibuffer)))
        else:
            sim.timeout(step[1]).add_callback(lambda event: seen.append(
                ("callback", sim.now, fabric.channels.stats_table())))
    fabric.advance(3)
    observed = {
        "seen": seen,
        "now": sim.now,
        "peek": _peek(ibuffer),
        "stats": fabric.channels.stats_table(),
    }
    fabric.stop_autorun()
    observed["stats_at_stop"] = fabric.channels.stats_table()
    observed["peek_at_stop"] = _peek(ibuffer)
    fabric.advance(5)
    observed["stats_after_stop"] = fabric.channels.stats_table()
    return observed


class TestSinkMatchesPollingOracle:
    @given(steps=_steps, logic=st.sampled_from(["stall", "watch"]),
           mode=st.sampled_from([SamplingMode.LINEAR, SamplingMode.CYCLIC]),
           depth=st.integers(2, 6), data_depth=st.integers(1, 4),
           initial_state=st.sampled_from([IBufferState.SAMPLE,
                                          IBufferState.RESET]),
           producer=_producers)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_scripts_agree(self, steps, logic, mode, depth, data_depth,
                           initial_state, producer):
        args = (logic, mode, depth, data_depth, initial_state, producer,
                steps)
        assert (_run_sink_script(IBuffer, *args)
                == _run_sink_script(PollingIBuffer, *args))

    @pytest.mark.parametrize("logic", ["stall", "watch"])
    @pytest.mark.parametrize("mode", [SamplingMode.LINEAR,
                                      SamplingMode.CYCLIC])
    def test_bursts_overflow_alike(self, logic, mode):
        steps = [("write", 0, 5, 1), ("write", 1, 3, 2), ("stats",),
                 ("wait", 2), ("write", 0, 4, 3), ("callback", 1),
                 ("peek",), ("cmd", 0, IBufferCommand.STOP),
                 ("write", 0, 3, 4), ("aux", 1, 3), ("wait", 4),
                 ("cmd", 0, IBufferCommand.RESET), ("write", 0, 2, 5),
                 ("cmd", 0, IBufferCommand.SAMPLE), ("write", 0, 5, 6),
                 ("wait", 9)]
        args = (logic, mode, 3, 2, IBufferState.SAMPLE,
                ("late", {0: 2, 5: 3, 6: 1}, False), steps)
        sunk = _run_sink_script(IBuffer, *args)
        assert sunk == _run_sink_script(PollingIBuffer, *args)
        failures = sunk["stats"]["probe_data_in[0]"]["write_failures"]
        assert failures > 0

    def test_writes_schedule_nothing(self):
        fabric = Fabric()
        monitor = StallMonitor(fabric, sites=2, depth=64)
        channel = monitor.ibuffer.data_c[0]
        assert channel.has_sink
        for _ in range(40):
            channel.write_nb(fabric.sim.now)
            assert fabric.sim.pending_events == 0
            fabric.advance(1)
        entries = monitor.ibuffer.trace_buffers[0].entries()
        assert [entry["timestamp"] for entry in entries] == list(range(40))
        assert channel.stats.reads == 40


# -- the replayed stall-monitored matmul against the reference executor -----


_MEMORY_CONFIGS = [
    GlobalMemoryConfig(),
    GlobalMemoryConfig(pipe_latency=5, banks=2, bank_busy_cycles=1,
                       row_bytes=32, row_hit_cycles=2, row_miss_cycles=9,
                       posted_write_latency=3),
    GlobalMemoryConfig(pipe_latency=120, banks=4, posted_write_latency=1),
]


def _latencies(monitor):
    return [(sample.start_cycle, sample.end_cycle, sample.start_value,
             sample.end_value) for sample in monitor.latencies(0, 1)]


def _run_matmul(executor, monitored, shape, depth, mode, data_depth, keep,
                memory_config, pipeline):
    """One (SM or Base) matmul launch and the host's readback; returns
    (observed, the launch's stepped reason)."""
    rows_a, col_a, col_b = shape
    fabric = Fabric(memory_config=memory_config, keep_lsu_samples=keep)
    monitor = (StallMonitor(fabric, sites=2, depth=depth, mode=mode,
                            data_channel_depth=data_depth)
               if monitored else None)
    kernel = MatMulKernel(stall_monitor=monitor)
    kernel.pipeline = pipeline
    allocate_matmul_buffers(fabric, rows_a, col_a, col_b)
    engine = run_kernel(fabric, kernel, {"rows_a": rows_a, "col_a": col_a,
                                        "col_b": col_b}, executor=executor)
    observed = {
        "now": fabric.sim.now,
        "engine": _engine(engine),
        "memory": _memory(fabric),
        "channels": fabric.channels.stats_table(),
    }
    if monitor is not None:
        observed["dropped"] = [monitor.dropped_snapshots(site)
                               for site in (0, 1)]
        observed["latencies"] = _latencies(monitor)
        observed["entries"] = {
            cu: trace.entries()
            for cu, trace in monitor.ibuffer.trace_buffers.items()}
        observed["after_read"] = (fabric.sim.now, _memory(fabric),
                                  fabric.channels.stats_table())
    return observed, engine.stepped_reason


class TestReplayedMatMul:
    @given(monitored=st.booleans(),
           shape=st.tuples(st.integers(1, 4), st.integers(1, 6),
                           st.integers(1, 4)),
           depth=st.integers(2, 48),
           mode=st.sampled_from([SamplingMode.LINEAR, SamplingMode.CYCLIC]),
           data_depth=st.integers(1, 8), keep=st.booleans(),
           memory=st.integers(0, len(_MEMORY_CONFIGS) - 1),
           ii=st.integers(1, 3), max_inflight=st.sampled_from([2, 8, 64]))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_replay_matches_reference(self, monitored, shape, depth, mode,
                                      data_depth, keep, memory, ii,
                                      max_inflight):
        args = (monitored, shape, depth, mode, data_depth, keep,
                _MEMORY_CONFIGS[memory],
                PipelineConfig(ii=ii, max_inflight=max_inflight))
        fast, reason = _run_matmul("fast", *args)
        reference, reference_reason = _run_matmul("reference", *args)
        assert reason is None
        assert reference_reason == "reference executor"
        assert fast == reference

    @pytest.mark.parametrize("monitored", [True, False])
    def test_default_sec51_launch_is_replayed(self, monitored):
        args = (monitored, (8, 16, 8), 1024, SamplingMode.LINEAR, 8, True,
                GlobalMemoryConfig(), PipelineConfig())
        fast, reason = _run_matmul("fast", *args)
        assert reason is None
        assert fast == _run_matmul("reference", *args)[0]


class TestGate:
    def _observe(self, executor, prepare, design="sm"):
        fabric = Fabric()
        monitor = (StallMonitor(fabric, sites=2, depth=16)
                   if design == "sm" else None)
        watchpoint = (SmartWatchpoint(fabric, units=2, depth=16)
                      if design == "wp" else None)
        kernel = MatMulKernel(stall_monitor=monitor, watchpoint=watchpoint)
        allocate_matmul_buffers(fabric, 2, 3, 2)
        args = {"rows_a": 2, "col_a": 3, "col_b": 2}
        engines = prepare(fabric, monitor, kernel, args, executor)
        fabric.run(*[engine.completion for engine in engines])
        fabric.run(fabric.memory.drained())
        ibuffer = (monitor or watchpoint).ibuffer
        observed = (fabric.sim.now, [_engine(engine) for engine in engines],
                    _memory(fabric), fabric.channels.stats_table(),
                    dict(ibuffer.states),
                    {cu: trace.entries()
                     for cu, trace in ibuffer.trace_buffers.items()})
        return observed, [engine.stepped_reason for engine in engines]

    @staticmethod
    def _launch(fabric, monitor, kernel, args, executor):
        return [launch(fabric, kernel, args, executor=executor)]

    def test_watchpoint_matmul_steps(self):
        fast, reasons = self._observe("fast", self._launch, "wp")
        assert reasons == ["kernel is not replayable"]
        assert fast == self._observe("reference", self._launch, "wp")[0]

    def test_unit_not_parked_idle_steps(self):
        # Site 0 drains a READ nobody reads: parked on its feed, with no
        # sink on its data channel, and nothing scheduled.
        def reading(fabric, monitor, kernel, args, executor):
            monitor.ibuffer.cmd_c[0].write_nb(int(IBufferCommand.STOP))
            fabric.advance(2)
            monitor.ibuffer.cmd_c[0].write_nb(int(IBufferCommand.READ))
            fabric.advance(3)
            assert fabric.sim.pending_events == 0
            return [launch(fabric, kernel, args, executor=executor)]

        fast, reasons = self._observe("fast", reading)
        assert reasons == [
            "stall monitor channel 'stall_monitor_data_in[0]' has no sink "
            "(its ibuffer unit is not parked idle)"]
        assert fast == self._observe("reference", reading)[0]

    def test_concurrent_launch_steps(self):
        def twice(fabric, monitor, kernel, args, executor):
            return [launch(fabric, kernel, args, executor=executor)
                    for _ in range(2)]

        fast, reasons = self._observe("fast", twice)
        assert reasons == ["concurrent simulator activity"] * 2
        assert fast == self._observe("reference", twice)[0]
