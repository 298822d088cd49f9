"""Compiled Listing 1/5 services run as lazy channels.

``compile_source`` recognises an autorun kernel whose body is exactly
Listing 1's free-running timer or Listing 5's sequence server and runs
it as a :class:`~repro.channels.channel.CounterRegisterChannel` or a
:class:`~repro.channels.channel.SequenceChannel` (``per_cycle``: the
compiled loop re-offers at the head of the next cycle) under the
declared channel name, with no stepping process. The oracle is the same
source with recognition disabled (``tests/frontend_oracle.py``'s
``compile_eager``): both servers then step every cycle.

Pinned here: which sources are recognised and why near misses stay
eager, the stepped reasons of compiled launches, exact scheduled-event
counts of replayed listings, the emulator's view, and — as a hypothesis
property — host scripts (advance, ``read_nb``, ``has_data``, stats,
``stop_autorun``, NDRange reader launches on every executor) that must
see the same sequence channel, values and engine statistics under both.

Example budget: ``REPLAY_EQUIV_EXAMPLES`` (default 25); CI runs a
dedicated job with a larger budget.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channels.channel import (Channel, CounterRegisterChannel,
                                    SequenceChannel)
from repro.errors import SimulationError
from repro.frontend import compile_source
from repro.frontend.compiler import NOT_A_SERVICE
from repro.frontend.listings import (LISTING_1, LISTING_2, LISTING_4,
                                     LISTING_5, LISTING_6, LISTING_7,
                                     LISTING_8_DEFINES, LISTING_8_IBUFFER)
from repro.hdl.library import HDLLibrary
from repro.host.emulation import Emulator
from repro.pipeline.fabric import Fabric
from repro.pipeline.kernel import PipelineConfig
from repro.sim.core import Simulator
from tests.executor_oracle import run_kernel
from tests.frontend_oracle import RECOGNITION_DISABLED, compile_eager
from tests.test_prop_replay import _engine

MAX_EXAMPLES = int(os.environ.get("REPLAY_EQUIV_EXAMPLES", "25"))

#: Both services in their Intel spellings (the timer without its flag),
#: and an NDRange reader whose work-items take ``seq_ch`` at issue, after
#: a load, or twice in one cycle, and read the timer: ``mode`` cycles
#: through the four patterns as ``(gid * p + q) % 4``.
SERVICES_AND_READER = """
channel int seq_ch __attribute__((depth(0)));
channel int time_ch __attribute__((depth(0)));

__attribute__((autorun))
__kernel void seq_srv(void) {
    int count = 0;
    while (1) {
        count++;
        write_channel_intel(seq_ch, count);
    }
}

__attribute__((autorun))
__kernel void timer_srv(void) {
    int count = 0;
    while (1) {
        count++;
        write_channel_nb_intel(time_ch, count);
    }
}

__kernel void reader(__global int* a, __global int* out, int p, int q) {
    int gid = get_global_id(0);
    int mode = (gid * p + q) % 4;
    if (mode == 1) {
        out[4 * gid + 3] = a[gid];
    }
    int s1 = read_channel_intel(seq_ch);
    int s2 = 0;
    if (mode >= 2) {
        s2 = read_channel_intel(seq_ch);
    }
    int t = 0;
    if (mode == 3) {
        t = read_channel_intel(time_ch);
    }
    out[4 * gid] = s1;
    out[4 * gid + 1] = s2;
    out[4 * gid + 2] = t;
}
"""


def reader_args(out, size, p=1, q=0):
    return {"a": "A", "out": out, "p": p, "q": q, "__global_size": size}


def allocate_reader_buffers(fabric, outs=(), size=16):
    fabric.memory.allocate("A", size).fill(np.arange(size) * 7)
    for out in outs:
        fabric.memory.allocate(out, 4 * size)


# -- recognition --------------------------------------------------------------


_TIMER_BODY = """
    int count = 0;
    while (1) {
        bool success;
        count++;
        success = write_channel_nb_altera(ch, count);
    }
"""

_SEQUENCE_BODY = """
    int count = 0;
    while (1) {
        count++;
        write_channel_altera(ch, count);
    }
"""


def _service_source(body, channel="channel int ch __attribute__((depth(0)));",
                    attributes="__attribute__((autorun))",
                    params="void", extra=""):
    return (f"{channel}\n{attributes}\n__kernel void srv({params}) "
            f"{{{body}}}\n{extra}")


class TestRecognition:
    @pytest.mark.parametrize("source,expected", [
        (LISTING_1, {"timer_srv": "timer"}),
        (LISTING_2, {"timer_srv1": "timer", "timer_srv2": "timer"}),
        (LISTING_5, {"seq_srv": "sequence"}),
        (LISTING_6, {"seq_srv": "sequence", "timer_srv": "timer"}),
        (LISTING_7, {"seq_srv": "sequence", "timer_srv": "timer"}),
        (SERVICES_AND_READER, {"seq_srv": "sequence", "timer_srv": "timer"}),
    ])
    def test_listings_become_lazy_services(self, source, expected):
        fabric = Fabric()
        program = compile_source(fabric, source)
        assert program.autorun_services == expected
        assert fabric.autorun_engines == []
        assert [kernel.name for kernel in fabric.service_kernels] == list(
            expected)
        kinds = {CounterRegisterChannel: "timer", SequenceChannel: "sequence"}
        assert sorted(kinds[type(channel)] for channel
                      in fabric.channels.all_channels()) == sorted(
                          expected.values())

    def test_listing8_timer_is_lazy_and_state_machine_eager(self):
        fabric = Fabric()
        program = compile_source(fabric, LISTING_8_IBUFFER,
                                 defines=LISTING_8_DEFINES)
        assert program.autorun_services == {"timer_srv": "timer",
                                            "state_machine": NOT_A_SERVICE}
        assert [e.kernel.name for e in fabric.autorun_engines] == [
            "state_machine"]
        assert type(program.channel("time_ch")) is CounterRegisterChannel

    def test_sequence_channel_reoffers_once_per_cycle(self):
        fabric = Fabric()
        program = compile_source(fabric, LISTING_5)
        channel = program.channel("seq_ch")
        assert channel._per_cycle
        fabric.advance(1)
        assert channel.read_nb() == (1, True)
        # The hop completes the write; the re-offer waits for the next
        # cycle's early phase, as the compiled loop's cycle boundary does
        # (the host observes cycle 2 before any of its events).
        fabric.sim.step()
        assert channel.read_nb() == (None, False)
        fabric.advance(1)
        assert channel.read_nb() == (None, False)
        fabric.advance(1)
        assert channel.read_nb() == (2, True)

    @pytest.mark.parametrize("source,reason", [
        (_service_source(_TIMER_BODY.replace(
            "count++;", "count++;\n        count++;")), NOT_A_SERVICE),
        (_service_source(_SEQUENCE_BODY.replace(
            "count++;", "count++;\n        mem_fence(CLK_CHANNEL_MEM_FENCE);"
        )), NOT_A_SERVICE),
        (_service_source(_TIMER_BODY.replace("int count = 0", "int count = 5")),
         NOT_A_SERVICE),
        (_service_source(_SEQUENCE_BODY.replace("count", "ch")),
         NOT_A_SERVICE),
        (_service_source(_TIMER_BODY, channel=(
            "channel int ch __attribute__((depth(1)));")),
         "channel 'ch' has depth 1, not 0"),
        (_service_source(_SEQUENCE_BODY, channel="channel int ch;"),
         "channel 'ch' has depth 1, not 0"),
        (_service_source(_TIMER_BODY, extra=(
            "__kernel void other(int v) { write_channel_nb_altera(ch, v); }")),
         "channel 'ch' is also written by kernel 'other'"),
        (_service_source(_SEQUENCE_BODY, attributes=(
            "__attribute__((autorun)) __attribute__((num_compute_units(2)))")),
         "num_compute_units(2)"),
        (_service_source(_SEQUENCE_BODY.replace("(ch,", "(ch[0],"), channel=(
            "channel int ch[2] __attribute__((depth(0)));")),
         "writes a channel-array element"),
        (_service_source(_TIMER_BODY, params="__global int* out"),
         "kernel has parameters"),
    ])
    def test_near_misses_stay_eager(self, source, reason):
        fabric = Fabric()
        program = compile_source(fabric, source)
        assert program.autorun_services["srv"] == reason
        assert fabric.service_kernels == []
        assert [e.kernel.name for e in fabric.autorun_engines] == ["srv"]
        assert all(type(channel) is Channel
                   for channel in fabric.channels.all_channels())

    def test_timer_read_by_an_earlier_autorun_stays_eager(self):
        # The earlier autorun reads in the same early phase before the
        # counter's write of the cycle: only the eager timer gives it the
        # previous cycle's value. Declared after the timer, it reads the
        # current one, as from the lazy channel.
        reader = """
            __attribute__((autorun))
            __kernel void early(void) {
                while (1) {
                    bool ok;
                    int t = read_channel_nb_altera(ch, &ok);
                    write_channel_nb_altera(out_c, t);
                }
            }
        """
        channels = ("channel int ch __attribute__((depth(0)));\n"
                    "channel int out_c __attribute__((depth(4)));\n")
        timer = _service_source(_TIMER_BODY, channel="")
        before = compile_source(Fabric(), channels + reader + timer)
        assert before.autorun_services["srv"] == (
            "channel 'ch' is read by an autorun kernel declared before it")
        after = compile_source(Fabric(), channels + timer + reader)
        assert after.autorun_services["srv"] == "timer"

    def test_start_autorun_false_installs_neither_kind(self):
        fabric = Fabric()
        program = compile_source(fabric, LISTING_6, start_autorun=False)
        assert program.autorun_services == {"seq_srv": "sequence",
                                            "timer_srv": "timer"}
        assert fabric.service_kernels == [] and fabric.autorun_engines == []
        assert all(type(channel) is Channel
                   for channel in fabric.channels.all_channels())

    def test_oracle_starts_every_autorun_eagerly(self):
        fabric = Fabric()
        program = compile_eager(fabric, LISTING_6)
        assert program.autorun_services == {
            "seq_srv": RECOGNITION_DISABLED,
            "timer_srv": RECOGNITION_DISABLED}
        assert [e.kernel.name for e in fabric.autorun_engines] == [
            "seq_srv", "timer_srv"]
        assert fabric.service_kernels == []


# -- stepped reasons ----------------------------------------------------------


class TestSteppedReason:
    @pytest.mark.parametrize("body,reason", [
        ("barrier(CLK_LOCAL_MEM_FENCE); out[gid] = 1;", "work-group barrier"),
        ("__local int s[4]; s[gid] = 1; out[gid] = s[gid];",
         "__local memory"),
        ("write_channel_altera(c, gid); out[gid] = 1;", "channel write"),
        ("bool ok; out[gid] = read_channel_nb_altera(c, &ok);",
         "non-blocking channel builtin"),
        ("write_channel_nb_altera(c, gid);", "non-blocking channel builtin"),
        ("out[gid] = read_channel_altera(c);",
         "blocking read of eager channel 'c'"),
        ("out[gid] = read_channel_altera(arr[gid]);",
         "blocking read of eager channel 'arr'"),
    ])
    def test_compiled_launch_names_the_blocker(self, body, reason):
        source = ("channel int c __attribute__((depth(4)));\n"
                  "channel int arr[4] __attribute__((depth(4)));\n"
                  "__kernel void k(__global int* out) {\n"
                  f"    int gid = get_global_id(0); {body}\n}}")
        fabric = Fabric()
        program = compile_source(fabric, source)
        fabric.memory.allocate("O", 4)
        engine = fabric.launch(program.kernel("k"),
                               {"out": "O", "__global_size": 1})
        fabric.sim.step()
        assert engine.stepped_reason == reason

    def test_hdl_call_steps(self):
        fabric = Fabric()
        library = HDLLibrary(fabric.sim)
        library.add_get_time()
        program = compile_source(fabric, LISTING_4, hdl_library=library)
        for name, size in (("X", 4), ("Y", 4), ("Z", 1), ("T", 2)):
            fabric.memory.allocate(name, size)
        engine = fabric.run_kernel(program.kernel("dot_product"), {
            "x": "X", "y": "Y", "z": "Z", "times": "T", "n": 4})
        assert engine.stepped_reason == "HDL library call"

    def test_reads_of_lazy_services_replay(self):
        fabric = Fabric()
        program = compile_source(fabric, SERVICES_AND_READER)
        allocate_reader_buffers(fabric, ["O"])
        engine = fabric.run_kernel(program.kernel("reader"),
                                   reader_args("O", 8))
        assert engine.stepped_reason is None

    def test_unstarted_services_leave_eager_channels(self):
        fabric = Fabric()
        program = compile_source(fabric, LISTING_7, start_autorun=False)
        kernel = program.kernel("matvec")
        assert kernel.replayable
        assert kernel.replay_gate() == "blocking read of eager channel 'seq_ch'"


# -- scheduled events ---------------------------------------------------------


@pytest.fixture
def scheduled(monkeypatch):
    """Count scheduled events (``_schedule`` and ``_schedule_front``), as
    tests/test_ibuffer_parking.py's TestEventCost does."""
    count = [0]

    def counting(original):
        def wrapper(sim, *args, **kwargs):
            count[0] += 1
            original(sim, *args, **kwargs)
        return wrapper

    for name in ("_schedule", "_schedule_front"):
        monkeypatch.setattr(Simulator, name,
                            counting(getattr(Simulator, name)))
    return count


def _run_matvec_listing(source, rows, num):
    fabric = Fabric()
    program = compile_source(fabric, source)
    fabric.memory.allocate("X", rows * num).fill(np.arange(rows * num))
    fabric.memory.allocate("Y", num).fill(np.arange(num))
    fabric.memory.allocate("Z", rows)
    for name in ("I1", "I2", "I3"):
        fabric.memory.allocate(name, rows * 10 + 1)
    args = {"x": "X", "y": "Y", "z": "Z", "info1": "I1", "info2": "I2",
            "info3": "I3", "num": num}
    if source is LISTING_6:
        args["n"] = rows
    else:
        args["__global_size"] = rows
    return fabric.run_kernel(program.kernel("matvec"), args)


class TestEventCost:
    def test_listing2_replayed(self, scheduled):
        # The launcher's start and end, the completion trigger and the
        # completion, the commit flush and the drain wait: the timers
        # cost nothing.
        fabric = Fabric()
        program = compile_source(fabric, LISTING_2)
        fabric.memory.allocate("X", 16).fill(np.arange(16))
        fabric.memory.allocate("Y", 16).fill(np.ones(16, dtype=np.int64))
        fabric.memory.allocate("Z", 1)
        fabric.memory.allocate("T", 2)
        engine = fabric.run_kernel(program.kernel("dot_product"), {
            "x": "X", "y": "Y", "z": "Z", "times": "T", "n": 16})
        assert engine.stepped_reason is None
        assert scheduled[0] == 6

    @pytest.mark.parametrize("source,rows,num", [(LISTING_6, 6, 16),
                                                 (LISTING_7, 6, 16),
                                                 (LISTING_7, 16, 32)])
    def test_listings_6_7_replayed(self, scheduled, source, rows, num):
        # Listing 2's six, plus the sequence server's start and phase
        # alignment.
        engine = _run_matvec_listing(source, rows, num)
        assert engine.stepped_reason is None
        assert scheduled[0] == 8

    def test_deadlocked_reader_fails_fast(self, scheduled):
        # Behaviour note: with the timer eager, this launch stepped the
        # timer to `max_cycles` and failed with "did not complete"; a
        # lazy timer schedules nothing, so the blocked read is a
        # deadlock at once.
        source = LISTING_1 + """
            channel int never __attribute__((depth(4)));
            __kernel void stuck(__global int* out) {
                out[0] = read_channel_altera(time_ch1);
                out[1] = read_channel_altera(never);
            }
        """
        fabric = Fabric()
        program = compile_source(fabric, source)
        fabric.memory.allocate("O", 2)
        with pytest.raises(SimulationError, match="deadlock: no scheduled"):
            fabric.run_kernel(program.kernel("stuck"), {"out": "O"},
                              max_cycles=5_000)
        assert fabric.sim.now < 100
        assert scheduled[0] < 10
        eager = Fabric()
        program = compile_eager(eager, source)
        eager.memory.allocate("O", 2)
        with pytest.raises(SimulationError, match="within 5000 cycles"):
            eager.run_kernel(program.kernel("stuck"), {"out": "O"},
                             max_cycles=5_000)


# -- the emulator -------------------------------------------------------------


class TestEmulatorWarnings:
    @pytest.mark.parametrize("source,defines", [
        (LISTING_6, None), (LISTING_2, None),
        (LISTING_8_IBUFFER, LISTING_8_DEFINES)])
    def test_warnings_unchanged(self, source, defines):
        warnings = []
        for compiler in (compile_source, compile_eager):
            fabric = Fabric()
            compiler(fabric, source, defines=defines)
            warnings.append(Emulator(fabric).stats.warnings)
        assert warnings[0] == warnings[1]
        assert warnings[0]


# -- host scripts against the compiled sequence server ------------------------


_HOST_STEPS = st.one_of(
    st.tuples(st.just("advance"), st.integers(0, 4)),
    st.tuples(st.just("read_nb")),
    st.tuples(st.just("has_data")),
    st.tuples(st.just("stats")),
    st.tuples(st.just("stop")),
    st.tuples(st.just("launch"),
              st.sampled_from(["fast", "batch", "reference"]),
              st.integers(1, 8), st.integers(0, 3), st.integers(0, 3),
              st.integers(1, 3), st.sampled_from([1, 2, 64])),
)


def _script(compiler, steps):
    fabric = Fabric()
    program = compiler(fabric, SERVICES_AND_READER)
    channel = program.channel("seq_ch")
    kernel = program.kernel("reader")
    allocate_reader_buffers(fabric)
    seen = []
    # The lazy timer is exact for every kernel read, but not for a stop
    # made between cycles (after advance(), before any event of the new
    # cycle): it freezes one count past the eager timer's last write.
    # From such a stop on, the timer's values and stats are not compared.
    between_cycles, timer_exact = False, True
    for number, step in enumerate(steps):
        action = step[0]
        if action == "advance":
            fabric.advance(step[1])
            between_cycles = between_cycles or step[1] > 0
        elif action == "read_nb":
            seen.append(channel.read_nb())
        elif action == "has_data":
            seen.append(channel.has_data)
        elif action == "stats":
            seen.append(channel.stats.as_dict())
        elif action == "stop":
            fabric.stop_autorun()
            timer_exact = timer_exact and not between_cycles
        else:
            _, executor, size, p, q, ii, max_inflight = step
            kernel.pipeline = PipelineConfig(ii=ii, max_inflight=max_inflight)
            out = f"O{number}"
            fabric.memory.allocate(out, 4 * size)
            try:
                engine = run_kernel(fabric, kernel,
                                    reader_args(out, size, p, q),
                                    executor=executor,
                                    max_cycles=fabric.sim.now + 20_000)
            except SimulationError as error:     # a read after stop
                seen.append(str(error)[:20])
                break
            between_cycles = False
            values = list(fabric.memory.buffer(out).snapshot())
            stats = fabric.channels.stats_table()
            if not timer_exact:
                del values[2::4]
                del stats["time_ch"]
            seen.append((values, _engine(engine), stats))
        seen.append(fabric.sim.now)
    return seen, channel.stats.as_dict(), channel.has_data


class TestCompiledSequenceServerMatchesEager:
    @given(steps=st.lists(_HOST_STEPS, min_size=1, max_size=10))
    @settings(max_examples=MAX_EXAMPLES * 2, deadline=None)
    def test_scripts_agree(self, steps):
        assert _script(compile_source, steps) == _script(compile_eager, steps)

    @pytest.mark.parametrize("steps", [
        # NDRange readers in consecutive cycles and twice in one cycle.
        [("launch", "fast", 8, 1, 0, 1, 64)],
        [("launch", "fast", 8, 0, 2, 1, 64), ("launch", "fast", 4, 1, 1, 2, 2)],
        [("read_nb",), ("launch", "fast", 3, 0, 3, 1, 64), ("read_nb",),
         ("advance", 1), ("read_nb",), ("stats",)],
        [("advance", 3), ("stop",), ("read_nb",), ("read_nb",),
         ("launch", "fast", 2, 0, 0, 1, 64)],
    ])
    def test_examples(self, steps):
        lazy = _script(compile_source, steps)
        assert lazy == _script(compile_eager, steps)

    def test_same_cycle_reads_take_consecutive_cycles(self):
        fabric = Fabric()
        program = compile_source(fabric, SERVICES_AND_READER)
        allocate_reader_buffers(fabric, ["O"])
        engine = fabric.run_kernel(program.kernel("reader"),
                                   reader_args("O", 1, 0, 2))
        assert engine.stepped_reason is None
        out = fabric.memory.buffer("O").snapshot()
        assert list(out[:2]) == [1, 2]
        assert program.channel("seq_ch").stats.writes == 2
