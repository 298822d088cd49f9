"""The host READ ``transfer`` op: closed-form windows against stepping.

The fast executor runs ``ctx.transfer(channel, buffer, count)`` in
windows of words computed without events while the simulator provably
has nothing else to do; the reference executor runs the loop the op
stands for, one blocking read and one store per word. Both must leave
identical observables: the out buffer, ``sim.now``, every channel's
stats, every LSU's stats and site keys, memory stats, traffic, bank
state, and the pending commits at completion.

The scripts vary the out channel depth (0-3), ``posted_write_latency``
(0-2), ``keep_lsu_samples``, and the producer: a parked ibuffer feeding
the channel, the per-cycle :class:`~tests.polling_oracle.PollingIBuffer`,
or a test producer feeding runs of words with idle gaps. Mid-READ, other
launches store to DRAM, commands and data reach the ibuffer (its feed
detaches), stats are read from a callback or at a host pause between
``advance`` calls, and ``stop_autorun`` tears the producer down.

Example budget: ``IBUFFER_EQUIV_EXAMPLES`` (default 60); CI runs a deep
job at 300.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.commands import IBufferCommand
from repro.core.host_interface import HostInterfaceKernel
from repro.core.ibuffer import IBuffer, IBufferConfig
from repro.core.logic_blocks import RawRecorderLogic
from repro.host.emulation import Emulator
from repro.memory.global_memory import GlobalMemoryConfig
from repro.memory.lsu import LoadStoreUnit
from repro.pipeline.fabric import Fabric
from repro.pipeline.kernel import AutorunKernel, PipelineConfig, SingleTaskKernel
from tests.polling_oracle import PollingIBuffer

MAX_EXAMPLES = int(os.environ.get("IBUFFER_EQUIV_EXAMPLES", "60"))

PRODUCERS = ["feed", "polling", "gappy"]
#: Mid-READ events: (kind, cycle after the READ launch).
EVENT_KINDS = ["stores", "cmd", "data", "stats", "stop"]


class _Gappy(AutorunKernel):
    """Late-phase producer: feeds ``words`` to ``out`` in runs of ``run``
    words with ``gap`` idle cycles after each; a value on ``cmd`` is
    consumed, and wakes the unit mid-run."""

    def __init__(self, out, cmd, words, run, gap):
        super().__init__(name="gappy", phase="late")
        self.out = out
        self.cmd = cmd
        self.words = words
        self.run = run
        self.gap = gap

    def body(self, ctx):
        position = 0
        while position < len(self.words):
            end = min(position + self.run, len(self.words))
            chunk = self.words[:end]
            while position < end:
                ctx.read_channel_nb(self.cmd)
                if ctx.write_channel_nb(self.out, chunk[position]):
                    position += 1
                position = yield ctx.drain(self.out, chunk, position,
                                           [self.cmd])
            for _ in range(self.gap):
                ctx.read_channel_nb(self.cmd)
                yield ctx.cycle()
        idle = ctx.await_data(self.cmd)
        while True:
            ctx.read_channel_nb(self.cmd)
            yield idle


class _Reader(SingleTaskKernel):
    """Transfers ``count`` words of ``channel`` into ``dst``."""

    def __init__(self, channel):
        super().__init__(name="reader")
        self.channel = channel

    def iteration_space(self, args):
        return [0]

    def body(self, ctx):
        yield ctx.transfer(self.channel, "dst", ctx.arg("count"),
                           site="reader.cu0:Store@xfer")


class _Stores(SingleTaskKernel):
    """Another launch: one store per iteration into ``other``, which
    shares DRAM banks with ``dst``."""

    def __init__(self):
        super().__init__(name="stores",
                         pipeline=PipelineConfig(ii=3, max_inflight=4))

    def iteration_space(self, args):
        return range(12)

    def body(self, ctx):
        yield ctx.store("other", ctx.iteration, 1000 + ctx.iteration)


def _lsu_stats(fabric):
    return [(engine.kernel.name,
             {key: vars(lsu.stats) for key, lsu in engine.lsus.items()})
            for engine in fabric.engines]


def _observe(executor, producer, out_depth, posted, keep, events=(),
             pauses=(), entries=24, total=420):
    """Run one READ scenario; return everything observable."""
    fabric = Fabric(memory_config=GlobalMemoryConfig(
        posted_write_latency=posted), keep_lsu_samples=keep)
    sim = fabric.sim
    memory = fabric.memory
    memory.allocate("other", 12)
    ibuffer = None
    if producer == "gappy":
        out = fabric.channels.declare("out", depth=out_depth)
        cmd = fabric.channels.declare("cmd", depth=2)
        words = [3 * value + 1 for value in range(2 * entries)]
        fabric.add_autorun(_Gappy(out, cmd, words, run=17, gap=5))
        kernel, count = _Reader(out), len(words)
        memory.allocate("dst", count)
        args = {"count": count}
    else:
        cls = IBuffer if producer == "feed" else PollingIBuffer
        ibuffer = cls(fabric, "probe",
                      logic_factory=lambda cu: RawRecorderLogic(),
                      config=IBufferConfig(count=1, depth=entries,
                                           output_channel_depth=out_depth))
        for value in range(entries):
            ibuffer.data_c[0].write_nb(5 * value + 2)
            fabric.advance(1)
        ibuffer.cmd_c[0].write_nb(int(IBufferCommand.STOP))
        fabric.advance(3)
        cmd = ibuffer.cmd_c[0]
        kernel = HostInterfaceKernel(ibuffer)
        memory.allocate("dst", ibuffer.words_per_readout)
        args = {"cmd": int(IBufferCommand.READ), "id": 0, "out": "dst"}
    seen = []

    def stats(label):
        seen.append((label, sim.now, fabric.channels.stats_table(),
                     _lsu_stats(fabric), vars(memory.stats).copy(),
                     memory.pending_commits))

    def fire(kind):
        if kind == "stores":
            fabric.launch(_Stores(), executor=executor)
        elif kind == "cmd":
            cmd.write_nb(int(IBufferCommand.STOP))
        elif kind == "data":
            (cmd if ibuffer is None else ibuffer.data_c[0]).write_nb(9)
        elif kind == "stats":
            stats("callback")
        else:
            fabric.stop_autorun()

    for kind, at in events:
        sim.timeout(at).add_callback(lambda event, kind=kind: fire(kind))
    engine = fabric.launch(kernel, args, executor=executor)
    engine.completion.add_callback(lambda event: seen.append(
        ("done", sim.now, memory.pending_commits)))
    elapsed = 0
    for pause in pauses:
        fabric.advance(pause)
        elapsed += pause
        stats("pause")
    fabric.advance(max(total - elapsed, 0))
    return {
        "dst": memory.buffer("dst").snapshot().tolist(),
        "other": memory.buffer("other").snapshot().tolist(),
        "now": sim.now,
        "seen": seen,
        "channels": fabric.channels.stats_table(),
        "lsus": _lsu_stats(fabric),
        "memory": vars(memory.stats),
        "traffic": {name: vars(traffic)
                    for name, traffic in sorted(memory.traffic.items())},
        "banks": (list(memory._bank_ready), list(memory._bank_open_row)),
        "pending": memory.pending_commits,
    }


def _stepped_words(monkeypatch, *args, **kwargs):
    """Run the fast executor on one scenario; return (observed, number
    of transfer words it stepped, number it computed in windows)."""
    stepped = [0]
    windowed = [0]
    issue, issue_at = LoadStoreUnit.issue, LoadStoreUnit.issue_at

    def counting_issue(lsu, *a):
        stepped[0] += "xfer" in lsu.site or "read_host" in lsu.site
        return issue(lsu, *a)

    def counting_issue_at(lsu, *a):
        windowed[0] += 1
        return issue_at(lsu, *a)

    with monkeypatch.context() as patch:
        patch.setattr(LoadStoreUnit, "issue", counting_issue)
        patch.setattr(LoadStoreUnit, "issue_at", counting_issue_at)
        observed = _observe("fast", *args, **kwargs)
    return observed, stepped[0], windowed[0]


class TestTransferOp:
    @pytest.mark.parametrize("keep", [True, False])
    @pytest.mark.parametrize("posted", [0, 1, 2])
    @pytest.mark.parametrize("out_depth", [0, 1, 2, 3])
    @pytest.mark.parametrize("producer", PRODUCERS)
    def test_fast_matches_reference(self, producer, out_depth, posted, keep):
        assert (_observe("fast", producer, out_depth, posted, keep)
                == _observe("reference", producer, out_depth, posted, keep))

    @pytest.mark.parametrize("producer", ["feed", "gappy"])
    @pytest.mark.parametrize("out_depth", [1, 2, 3])
    def test_windows_open_on_a_fed_channel(self, monkeypatch, producer,
                                           out_depth):
        # Not a vacuous comparison: a quiet READ from a fed channel puts
        # most of its words through windows.
        observed, stepped, windowed = _stepped_words(
            monkeypatch, producer, out_depth, 2, True)
        assert observed == _observe("reference", producer, out_depth, 2,
                                    True)
        assert windowed > stepped
        assert stepped + windowed == len(observed["dst"])

    def test_polling_producer_never_opens_a_window(self, monkeypatch):
        # The per-cycle ibuffer schedules a tick every cycle: no feed and
        # never an empty calendar, so every word is stepped.
        _, stepped, windowed = _stepped_words(monkeypatch, "polling", 2, 2,
                                              True)
        assert (stepped, windowed) == (72, 0)

    @pytest.mark.parametrize("producer", PRODUCERS)
    @pytest.mark.parametrize("kind", EVENT_KINDS)
    @pytest.mark.parametrize("at", [0, 7, 40, 90])
    def test_mid_read_events(self, producer, kind, at):
        events = [(kind, at)]
        assert (_observe("fast", producer, 2, 2, True, events)
                == _observe("reference", producer, 2, 2, True, events))

    @pytest.mark.parametrize("producer", ["feed", "gappy"])
    def test_stats_at_host_pauses(self, producer):
        # The host pauses mid-window span: a window never computes a
        # store that would retire at or after the pause.
        pauses = [1, 1, 9, 30, 31, 2, 64, 5]
        fast = _observe("fast", producer, 2, 2, False, pauses=pauses)
        assert fast == _observe("reference", producer, 2, 2, False,
                                pauses=pauses)
        reads = [snapshot[2]["out" if producer == "gappy"
                             else "probe_out_c[0]"]["reads"]
                 for snapshot in fast["seen"] if snapshot[0] == "pause"]
        assert reads == sorted(reads) and reads[0] < reads[-1]

    @given(producer=st.sampled_from(PRODUCERS),
           out_depth=st.integers(0, 3),
           posted=st.sampled_from([0, 1, 2]),
           keep=st.booleans(),
           entries=st.integers(1, 30),
           events=st.lists(st.tuples(st.sampled_from(EVENT_KINDS),
                                     st.integers(0, 150)), max_size=2),
           pauses=st.lists(st.integers(1, 40), max_size=8))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_scripts_agree(self, producer, out_depth, posted, keep, entries,
                           events, pauses):
        fast = _observe("fast", producer, out_depth, posted, keep, events,
                        pauses, entries)
        assert fast == _observe("reference", producer, out_depth, posted,
                                keep, events, pauses, entries)


class TestTransferGate:
    @pytest.mark.parametrize("kind", ["data", "stop"])
    def test_batch_flush_and_an_unrelated_event(self, monkeypatch, kind):
        # A pending flush carries two commits in one event, so with one
        # unrelated event pending `wheel + far == pending_commits` holds
        # by coincidence. The gate counts commit events, not commits: no
        # window may open before the unrelated event fires.
        def observe(executor, checks=None, opened=None):
            fabric = Fabric()
            sim = fabric.sim
            memory = fabric.memory
            ibuffer = IBuffer(fabric, "probe",
                              logic_factory=lambda cu: RawRecorderLogic(),
                              config=IBufferConfig(count=1, depth=40))
            for value in range(40):
                ibuffer.data_c[0].write_nb(value)
                fabric.advance(1)
            ibuffer.cmd_c[0].write_nb(int(IBufferCommand.STOP))
            fabric.advance(3)
            scratch = memory.allocate("scratch", 2)
            memory.post_commit_batch([(scratch, 0, 1), (scratch, 1, 2)],
                                     delay=400)
            fired = []

            def unrelated(event):
                fired.append(sim.now)
                if kind == "data":
                    ibuffer.data_c[0].write_nb(99)
                else:
                    fabric.stop_autorun()

            sim.timeout(60).add_callback(unrelated)
            memory.allocate("dst", ibuffer.words_per_readout)
            if checks is not None:
                out = ibuffer.out_c[0]
                can_take_fed = out.can_take_fed
                issue_at = LoadStoreUnit.issue_at

                def checking():
                    fed = can_take_fed()
                    checks.append((fed and not fired, sim.pending_events
                                   == memory.pending_commits))
                    return fed

                def recording(lsu, *args):
                    opened.append(bool(fired))
                    return issue_at(lsu, *args)

                monkeypatch.setattr(out, "can_take_fed", checking)
                monkeypatch.setattr(LoadStoreUnit, "issue_at", recording)
            engine = fabric.launch(HostInterfaceKernel(ibuffer), {
                "cmd": int(IBufferCommand.READ), "id": 0, "out": "dst"},
                executor=executor)
            fabric.advance(500)
            return (memory.buffer("dst").snapshot().tolist(), sim.now,
                    fabric.channels.stats_table(), _lsu_stats(fabric),
                    engine.completion.triggered, vars(memory.stats))

        checks = []
        opened = []
        assert observe("fast", checks, opened) == observe("reference")
        # The coincidence held at gate checks on a fed channel ...
        assert (True, True) in checks
        # ... and still no window opened before the unrelated event.
        assert not any(before is False for before in opened)
        assert all(opened)
        if kind == "data":
            assert opened


class _Writer(SingleTaskKernel):
    """Blocking-writes ``count`` words to ``channel``."""

    def __init__(self, channel):
        super().__init__(name="writer")
        self.channel = channel

    def iteration_space(self, args):
        return range(args["count"])

    def body(self, ctx):
        yield ctx.write_channel(self.channel, 7 * ctx.iteration)


def test_emulator_runs_the_word_loop():
    fabric = Fabric()
    channel = fabric.channels.declare("c", depth=4)
    fabric.memory.allocate("dst", 5)
    emulator = Emulator(fabric)
    emulator.run_kernel(_Writer(channel), {"count": 5})
    stats = emulator.run_kernel(_Reader(channel), {"count": 5})
    assert fabric.memory.buffer("dst").snapshot().tolist() == [
        0, 7, 14, 21, 28]
    assert (stats.channel_reads, stats.stores) == (5, 5)
