"""Property test: the analytic launch replay is observationally equal to
the reference executor.

A Python-IR kernel that declares ``replayable = True`` and owns the
simulator is replayed on a private heap by the fast executor (and by the
batch tier's Python-IR fallback) instead of being stepped. Every
surface a caller can observe must match ``executor="reference"``:
buffer contents, ``sim.now``, engine statistics and the iteration trace,
per-LSU statistics and latency samples, global-memory statistics and
per-buffer traffic, the channels' statistics, the values the bodies saw
(loads, ``ctx.now``, sequence numbers, timestamps, collected sums) in
the order they saw them, and the state the launch leaves behind — read
back by a second, stepped kernel launched on the same fabric.

Hypothesis varies the Fig. 2 matvec kernels (single-task and NDRange
under both policies, ``N``, ``num``, ``probe_i``), the pipeline's ``ii``
and ``max_inflight``, the memory timing, ``keep_lsu_samples``, and a
synthetic declared kernel built from a script of in-launch
read-after-write, timed computes, ``ctx.now`` reads, collects before and
after their last add, and back-to-back sequence reads. Launches that do
not own the simulator must step, and a declared body that yields an
unsupported op must fail loudly.

Example budget: ``REPLAY_EQUIV_EXAMPLES`` (default 25); CI runs a
dedicated job with a larger budget.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sequence import SequenceService
from repro.core.timestamp import PersistentTimestampService
from repro.errors import AddressError, KernelBuildError, ProcessError
from repro.kernels.matvec import (
    MatVecNDRange,
    MatVecSingleTask,
    allocate_matvec_buffers,
    expected_matvec,
)
from repro.memory.global_memory import GlobalMemoryConfig
from repro.pipeline import ops, replay as replay_module
from repro.pipeline.fabric import Fabric
from repro.pipeline.kernel import PipelineConfig, SingleTaskKernel
from repro.pipeline.schedule import NDRANGE_POLICIES
from tests.executor_oracle import launch, run_kernel
from tests.sequence_oracle import EagerSequenceService
from tests.timer_oracle import EagerTimestampService

MAX_EXAMPLES = int(os.environ.get("REPLAY_EQUIV_EXAMPLES", "25"))

_MEMORY_CONFIGS = [
    None,
    GlobalMemoryConfig(pipe_latency=3, banks=2, bank_busy_cycles=1,
                       row_bytes=64, row_hit_cycles=1, row_miss_cycles=5,
                       posted_write_latency=0),
    GlobalMemoryConfig(pipe_latency=10, banks=1, bank_busy_cycles=6,
                       row_bytes=32, row_hit_cycles=2, row_miss_cycles=9,
                       posted_write_latency=3),
    GlobalMemoryConfig(pipe_latency=300, banks=4, posted_write_latency=1),
]

#: Slots of the synthetic kernel's scratch buffer.
_SLOTS = 4


@pytest.fixture
def replays(monkeypatch):
    """Count the launches the analytic replay times, from body generators
    or from batch Phase A's planned accesses."""
    count = [0]
    run_bodies = replay_module.LaunchReplay.run_bodies
    run_planned = replay_module.LaunchReplay.run_planned

    def counting_bodies(replay, tags):
        count[0] += 1
        return run_bodies(replay, tags)

    def counting_planned(replay, phase, tags):
        count[0] += 1
        return run_planned(replay, phase, tags)

    monkeypatch.setattr(replay_module.LaunchReplay, "run_bodies",
                        counting_bodies)
    monkeypatch.setattr(replay_module.LaunchReplay, "run_planned",
                        counting_planned)
    return count


# -- what a caller can observe ---------------------------------------------


def _lsus(engine):
    return {key: (lsu.stats.issued, lsu.stats.completed,
                  lsu.stats.total_latency, lsu.stats.max_latency,
                  lsu.stats.ordering_stall_cycles, tuple(lsu.stats.samples),
                  lsu._tail_time)
            for key, lsu in engine.lsus.items()}


def _engine(engine):
    stats = engine.stats
    return (stats.iterations_issued, stats.iterations_retired,
            stats.start_cycle, stats.finish_cycle, stats.issue_stall_cycles,
            list(stats.iteration_trace), list(engine.lsus), _lsus(engine))


def _memory(fabric):
    memory = fabric.memory
    stats = memory.stats
    return ((stats.loads, stats.stores, stats.row_hits, stats.row_misses,
             stats.total_load_latency, stats.bytes_read, stats.bytes_written),
            [(name, t.loads, t.stores, t.bytes_read, t.bytes_written)
             for name, t in memory.traffic.items()],
            list(memory._bank_ready), list(memory._bank_open_row),
            memory.pending_commits,
            {name: list(store.snapshot())
             for name, store in memory.address_map.buffers().items()})


def _channels(*channels):
    return [(channel.name, channel.stats.as_dict(), channel.has_data)
            for channel in channels]


class _Probe(SingleTaskKernel):
    """A stepped kernel that reads back what a launch left behind:
    sequence numbers, a timestamp, buffer values and (through its own
    latencies) the banks' state."""

    def __init__(self, sequence, timestamps, reads):
        super().__init__(name="probe")
        self.sequence = sequence
        self.timestamps = timestamps
        self.reads = reads
        self.log = []

    def iteration_space(self, args):
        return range(len(self.reads))

    def body(self, ctx):
        buffer, index = self.reads[ctx.iteration]
        self.log.append(("now", ctx.now))
        # Built directly: the launch under test is the channels' bound
        # consumer, and the probe stands in for it.
        self.log.append(("seq", (yield ops.ReadChannel(
            self.sequence.channel))))
        self.log.append(("ts", (yield ops.ReadChannel(
            self.timestamps.channel(0)))))
        self.log.append((buffer, (yield ctx.load(buffer, index))))
        yield ctx.store(buffer, index, ctx.iteration + 1000)


def _second_launch(fabric, sequence, timestamps, reads):
    probe = _Probe(sequence, timestamps, reads)
    engine = run_kernel(fabric, probe, {}, executor="reference")
    return probe.log, _engine(engine), fabric.sim.now


# -- the Fig. 2 kernels ----------------------------------------------------


def _run_matvec(executor, kind, n, num, probe_i, policy, pipeline,
                memory_config, keep_samples, eager_sequence=False):
    fabric = Fabric(memory_config=memory_config,
                    keep_lsu_samples=keep_samples)
    sequence = (EagerSequenceService if eager_sequence
                else SequenceService)(fabric)
    timestamps = PersistentTimestampService(fabric, sites=1)
    allocate_matvec_buffers(fabric, n, num, probe_i=probe_i)
    if kind == "single-task":
        kernel = MatVecSingleTask(sequence, timestamps, probe_i=probe_i)
    else:
        kernel = MatVecNDRange(sequence, timestamps, probe_i=probe_i,
                               policy=policy)
    kernel.pipeline = pipeline
    engine = run_kernel(fabric, kernel, {"N": n, "num": num},
                        executor=executor)
    first = (fabric.sim.now, _engine(engine), _memory(fabric),
             _channels(sequence.channel, timestamps.channel(0)))
    reads = [("x", 0), ("z", n - 1), ("info1", n * probe_i), ("y", num - 1)]
    second = _second_launch(fabric, sequence, timestamps, reads)
    return first, second, _memory(fabric), _channels(
        sequence.channel, timestamps.channel(0))


class TestMatVecReplay:
    @given(kind=st.sampled_from(["single-task", "ndrange"]),
           n=st.integers(1, 6), num=st.integers(1, 12),
           probe_i=st.integers(0, 12),
           policy=st.sampled_from(NDRANGE_POLICIES),
           ii=st.integers(1, 3), max_inflight=st.sampled_from([1, 2, 5, 64]),
           memory_config=st.sampled_from(_MEMORY_CONFIGS),
           keep_samples=st.booleans(), eager_oracle=st.booleans())
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_replay_matches_reference(self, kind, n, num, probe_i, policy,
                                      ii, max_inflight, memory_config,
                                      keep_samples, eager_oracle):
        pipeline = PipelineConfig(ii=ii, max_inflight=max_inflight)
        args = (kind, n, num, probe_i, policy, pipeline, memory_config,
                keep_samples)
        reference = _run_matvec("reference", *args,
                                eager_sequence=eager_oracle)
        for executor in ("fast", "batch"):
            assert _run_matvec(executor, *args) == reference

    @pytest.mark.parametrize("kind", ["single-task", "ndrange"])
    def test_default_fig2_launch_is_replayed(self, replays, kind):
        first, _, _, _ = _run_matvec("fast", kind, 50, 100, 10,
                                     "workitem-interleaved",
                                     PipelineConfig(), None, True)
        assert replays[0] == 1
        z = first[2][5]["z"]
        assert z == list(expected_matvec(50, 100))

    def test_reference_executor_never_replays(self, replays):
        _run_matvec("reference", "ndrange", 3, 4, 2, "workitem-interleaved",
                    PipelineConfig(), None, True)
        assert replays[0] == 0


# -- a synthetic declared kernel --------------------------------------------


class _Scripted(SingleTaskKernel):
    """Runs one script of replayable ops per iteration and logs what the
    body sees, in the order it sees it."""

    replayable = True

    def __init__(self, script, sequence, timestamps, n):
        super().__init__(name="scripted")
        self.script = script
        self.sequence = sequence
        self.timestamps = timestamps
        self.n = n
        self.log = []

    def iteration_space(self, args):
        return range(self.n)

    def body(self, ctx):
        tag = ctx.iteration
        log = self.log
        adds = self.script.count("add")
        own_adds = 0
        key = tag % 2
        earlier = len(range(key, tag, 2))
        for step, code in enumerate(self.script):
            if code.startswith("compute"):
                value = yield ctx.compute(int(code[-1]), value=tag)
                log.append((tag, step, value, ctx.now))
            elif code == "now":
                log.append((tag, step, ctx.now))
            elif code == "store":
                yield ctx.store("m", tag % _SLOTS, tag * 7 + step)
            elif code == "load_next":
                log.append((tag, step, (yield ctx.load(
                    "m", (tag + 1) % _SLOTS))))
            elif code == "load_prev":
                log.append((tag, step, (yield ctx.load(
                    "m", (tag - 1) % _SLOTS))))
            elif code == "seq":
                log.append((tag, step, (yield self.sequence.read_op(ctx)),
                            ctx.now))
            elif code == "seq2":
                first = yield self.sequence.read_op(ctx)
                second = yield self.sequence.read_op(ctx)
                log.append((tag, step, first, second, ctx.now))
            elif code == "ts":
                log.append((tag, step, (yield self.timestamps.read_op(ctx))))
            elif code == "fence":
                yield ctx.mem_fence()
            elif code == "add":
                own_adds += 1
                ctx.accumulate("acc", key, tag + step)
            elif code == "collect":
                expected = adds * earlier + own_adds
                log.append((tag, step, (yield ctx.collect(
                    "acc", key, expected)), ctx.now))
            elif code == "bad_load":
                try:
                    yield ctx.load("m", _SLOTS + tag)
                except AddressError as error:
                    log.append((tag, step, str(error)))


_CODES = ["compute0", "compute1", "compute3", "now", "store", "load_next",
          "load_prev", "seq", "seq2", "ts", "fence", "add", "collect",
          "bad_load"]


def _run_scripted(executor, script, n, pipeline, memory_config,
                  keep_samples, skew, eager_sequence=False):
    fabric = Fabric(memory_config=memory_config,
                    keep_lsu_samples=keep_samples)
    sequence = (EagerSequenceService if eager_sequence
                else SequenceService)(fabric, start=3)
    timestamps = PersistentTimestampService(fabric, sites=1,
                                            launch_skews=[skew])
    fabric.memory.allocate("m", _SLOTS).fill(np.arange(_SLOTS) + 100)
    kernel = _Scripted(script, sequence, timestamps, n)
    kernel.pipeline = pipeline
    engine = run_kernel(fabric, kernel, {}, executor=executor)
    first = (kernel.log, fabric.sim.now, _engine(engine), _memory(fabric),
             _channels(sequence.channel, timestamps.channel(0)),
             engine.instance._accumulators["acc"]._values
             if "acc" in engine.instance._accumulators else None)
    second = _second_launch(fabric, sequence, timestamps,
                            [("m", 0), ("m", 1), ("m", 3)])
    return first, second, _memory(fabric)


class TestScriptedReplay:
    @given(script=st.lists(st.sampled_from(_CODES), min_size=1, max_size=9),
           n=st.integers(1, 9), ii=st.integers(1, 3),
           max_inflight=st.sampled_from([1, 2, 4, 64]),
           memory_config=st.sampled_from(_MEMORY_CONFIGS),
           keep_samples=st.booleans(), skew=st.sampled_from([0, 2, 40]),
           eager_oracle=st.booleans())
    @settings(max_examples=MAX_EXAMPLES * 2, deadline=None)
    def test_replay_matches_reference(self, script, n, ii, max_inflight,
                                      memory_config, keep_samples, skew,
                                      eager_oracle):
        pipeline = PipelineConfig(ii=ii, max_inflight=max_inflight)
        args = (script, n, pipeline, memory_config, keep_samples, skew)
        reference = _run_scripted("reference", *args,
                                  eager_sequence=eager_oracle)
        assert _run_scripted("fast", *args) == reference

    def test_same_cycle_sequence_reads_wait_for_the_hop(self, replays):
        # Both reads happen in the launch's first cycle: the second finds
        # the server's re-offer pending and resumes after it, same cycle.
        args = (["seq2", "now"], 2, PipelineConfig(), None, True, 0)
        reference = _run_scripted("reference", *args, eager_sequence=True)
        replayed = _run_scripted("fast", *args)
        assert replays[0] == 1
        assert replayed == reference
        assert replayed[0][0][:2] == [(0, 0, 4, 5, 0), (0, 1, 0)]

    def test_read_after_write_sees_in_launch_commit(self, replays):
        # Iteration 1 stores m[1]; iteration 2 loads it after the commit
        # landed (ii=60 spaces the iterations past the store latency).
        args = (["store", "load_prev"], 3, PipelineConfig(ii=60), None,
                True, 0)
        replayed = _run_scripted("fast", *args)
        assert replays[0] == 1
        assert replayed == _run_scripted("reference", *args)
        loads = [entry[2] for entry in replayed[0][0]]
        assert loads == [103, 0 * 7 + 0, 1 * 7 + 0]

    def test_collect_before_and_after_last_add(self, replays):
        args = (["collect", "add", "compute3", "collect"], 6,
                PipelineConfig(), None, True, 0)
        replayed = _run_scripted("fast", *args)
        assert replays[0] == 1
        assert replayed == _run_scripted("reference", *args)

    def test_body_failure_fails_the_launch_alike(self, replays):
        def run(executor):
            fabric = Fabric()
            sequence = SequenceService(fabric)
            timestamps = PersistentTimestampService(fabric)
            fabric.memory.allocate("m", _SLOTS)
            kernel = _Scripted(["compute1", "bad_load"], sequence,
                               timestamps, 3)
            original = kernel.body

            def body(ctx):
                yield from original(ctx)
                if ctx.iteration == 1:
                    raise ValueError("boom")
            kernel.body = body
            with pytest.raises(ProcessError, match="boom") as caught:
                run_kernel(fabric, kernel, {}, executor=executor)
            return (str(caught.value), fabric.sim.now, kernel.log,
                    _memory(fabric), fabric.engines[0].stats.iteration_trace)
        assert run("fast") == run("reference")
        assert replays[0] == 1


# -- launches that must step ------------------------------------------------


class TestGate:
    def _matvec(self, fabric, timestamps):
        sequence = SequenceService(fabric)
        allocate_matvec_buffers(fabric, 3, 5, probe_i=4)
        return MatVecSingleTask(sequence, timestamps, probe_i=2)

    def test_eager_timestamp_service_steps(self, replays):
        observed = []
        for executor in ("fast", "reference"):
            fabric = Fabric()
            timestamps = EagerTimestampService(fabric)
            kernel = self._matvec(fabric, timestamps)
            engine = run_kernel(fabric, kernel, {"N": 3, "num": 5},
                                executor=executor)
            observed.append((fabric.sim.now, _engine(engine),
                             _memory(fabric)))
        assert replays[0] == 0
        assert observed[0] == observed[1]

    def test_pending_commits_step(self, replays):
        observed = []
        for executor in ("fast", "reference"):
            fabric = Fabric()
            timestamps = PersistentTimestampService(fabric)
            kernel = self._matvec(fabric, timestamps)
            # A first launch's posted stores are still in flight.
            first = launch(fabric, kernel, {"N": 3, "num": 5},
                           executor=executor)
            fabric.run(first.completion)
            assert fabric.memory.pending_commits
            second = launch(fabric, kernel, {"N": 3, "num": 5},
                            executor=executor)
            fabric.run(second.completion, fabric.memory.drained())
            observed.append((fabric.sim.now, _engine(first), _engine(second),
                             _memory(fabric)))
        assert replays[0] == 1      # only the first fast launch
        assert observed[0] == observed[1]

    def test_concurrent_launches_step(self, replays):
        observed = []
        for executor in ("fast", "reference"):
            fabric = Fabric()
            timestamps = PersistentTimestampService(fabric)
            kernel = self._matvec(fabric, timestamps)
            engines = [launch(fabric, kernel, {"N": 3, "num": 5},
                              executor=executor) for _ in range(2)]
            fabric.run(*[engine.completion for engine in engines],
                       fabric.memory.drained())
            observed.append((fabric.sim.now,
                             [_engine(engine) for engine in engines],
                             _memory(fabric)))
        # The first launcher finds the second's start event scheduled.
        assert replays[0] == 0
        assert observed[0] == observed[1]

    def test_undrained_commits_report_concurrent_activity(self, replays):
        # Every posted store in flight is a scheduled commit event, so a
        # launch behind undrained commits is stepped for that reason.
        fabric = Fabric()
        timestamps = PersistentTimestampService(fabric)
        kernel = self._matvec(fabric, timestamps)
        first = fabric.launch(kernel, {"N": 3, "num": 5})
        fabric.run(first.completion)
        assert first.stepped_reason is None
        assert fabric.memory.pending_commits
        assert fabric.memory.commit_events
        second = fabric.launch(kernel, {"N": 3, "num": 5})
        fabric.run(second.completion, fabric.memory.drained())
        assert second.stepped_reason == "concurrent simulator activity"
        assert replays[0] == 1

    def test_run_until_steps(self, replays):
        fabric = Fabric()
        timestamps = PersistentTimestampService(fabric)
        kernel = self._matvec(fabric, timestamps)
        engine = fabric.launch(kernel, {"N": 3, "num": 5})
        fabric.advance(10)
        # Mid-launch at the pause: nothing computed ahead of the clock.
        assert engine.stats.iterations_retired < 15
        fabric.run(engine.completion)
        assert replays[0] == 0


class TestUnsupportedOps:
    def _kernel(self, fabric, make_op):
        class Bad(SingleTaskKernel):
            replayable = True

            def iteration_space(self, args):
                return range(2)

            def body(self, ctx):
                yield ctx.compute(1)
                yield make_op(ctx)
        return Bad(name="bad")

    @pytest.mark.parametrize("executor", ["fast", "batch"])
    @pytest.mark.parametrize("make_op,name", [
        (lambda ctx: ctx.barrier(), "Barrier"),
        (lambda ctx: ctx.write_channel(ctx.channel("fifo"), 1),
         "WriteChannel"),
        (lambda ctx: ctx.read_channel(ctx.channel("fifo")), "ReadChannel"),
    ])
    def test_raises_kernel_build_error(self, executor, make_op, name):
        fabric = Fabric()
        fabric.channels.declare("fifo", depth=4)
        kernel = self._kernel(fabric, make_op)
        with pytest.raises(ProcessError, match="replayable") as caught:
            run_kernel(fabric, kernel, {}, executor=executor)
        cause = caught.value.__cause__
        assert isinstance(cause, KernelBuildError)
        assert "'bad'" in str(cause) and name in str(cause)


# -- the analytic sequence channel against the eager Listing 5 server -------


class _SeqReader(SingleTaskKernel):
    """Reads the sequence channel after a per-iteration delay (twice when
    the delay is odd); replayed or stepped as ``replayable`` says."""

    def __init__(self, sequence):
        super().__init__(name="seq_reader")
        self.sequence = sequence
        self.delays = []
        self.log = []

    def iteration_space(self, args):
        return range(len(self.delays))

    def body(self, ctx):
        delay = self.delays[ctx.iteration]
        yield ctx.compute(delay)
        reads = 2 if delay % 2 else 1
        for _ in range(reads):
            value = yield self.sequence.read_op(ctx)
            self.log.append((ctx.iteration, value, ctx.now))


_HOST_STEPS = st.one_of(
    st.tuples(st.just("advance"), st.integers(0, 4)),
    st.tuples(st.just("read_nb")),
    st.tuples(st.just("has_data")),
    st.tuples(st.just("stats")),
    st.tuples(st.just("stop")),
    st.tuples(st.just("launch"), st.booleans(), st.integers(1, 3),
              st.lists(st.integers(0, 3), min_size=1, max_size=6)),
)


def _sequence_script(service_class, start, steps):
    fabric = Fabric()
    service = service_class(fabric, start=start)
    channel = service.channel
    reader = _SeqReader(service)
    seen = []
    for step in steps:
        action = step[0]
        if action == "advance":
            fabric.advance(step[1])
        elif action == "read_nb":
            seen.append(channel.read_nb())
        elif action == "has_data":
            seen.append(channel.has_data)
        elif action == "stats":
            seen.append(channel.stats.as_dict())
        elif action == "stop":
            fabric.stop_autorun()
        else:
            _, replayable, ii, delays = step
            # Only the analytic channel can be replayed; a declared body
            # reading the eager server's plain channel would be refused.
            reader.replayable = replayable and service_class is SequenceService
            reader.pipeline = PipelineConfig(ii=ii)
            reader.delays = delays
            reader.log = []
            try:
                fabric.run_kernel(reader, {}, max_cycles=fabric.sim.now + 500)
            except Exception as error:          # deadlock after stop
                seen.append(type(error).__name__)
                break
            seen.append(list(reader.log))
        seen.append(fabric.sim.now)
    return seen, channel.stats.as_dict(), channel.has_data


class TestSequenceChannelMatchesEagerServer:
    @given(start=st.integers(0, 5),
           steps=st.lists(_HOST_STEPS, min_size=1, max_size=10))
    @settings(max_examples=MAX_EXAMPLES * 2, deadline=None)
    def test_scripts_agree(self, start, steps):
        assert (_sequence_script(SequenceService, start, steps)
                == _sequence_script(EagerSequenceService, start, steps))

    def test_reads_before_the_server_starts_wait(self):
        # A host read_nb before the first step fails (the server has not
        # written yet); a launch at cycle 0 still reads from `start + 1`.
        steps = [("read_nb",), ("launch", True, 1, [0, 0, 1])]
        analytic = _sequence_script(SequenceService, 7, steps)
        assert analytic == _sequence_script(EagerSequenceService, 7, steps)
        assert analytic[0][0] == (None, False)
        assert [value for _, value, _ in analytic[0][2]] == [8, 9, 10, 11]

    def test_stop_keeps_the_last_offer_once(self):
        steps = [("advance", 2), ("stop",), ("advance", 1), ("read_nb",),
                 ("read_nb",), ("has_data",), ("stats",)]
        analytic = _sequence_script(SequenceService, 0, steps)
        assert analytic == _sequence_script(EagerSequenceService, 0, steps)
        assert analytic[0][3] == (1, True)
        assert analytic[0][5] == (None, False)
