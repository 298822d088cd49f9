"""Property test: compiled launches replay on the analytic core.

A compiled single-task or NDRange kernel whose body yields only global
loads and stores and blocking channel reads is ``replayable``; when every
channel it reads is a lazy service (a compiled Listing 1 timer or
Listing 5 sequence server) and the launch owns the simulator, the fast
executor replays it instead of stepping it. The oracle compiles the same
source with service recognition disabled (``tests/frontend_oracle.py``'s
``compile_eager``): the services step every cycle, and so does every
launch.

Every surface a caller can observe must match: buffers, ``sim.now``,
engine statistics and the iteration trace, LSU statistics, samples and
registration order, memory statistics, per-buffer traffic and the bank
state, every channel's ``stats_table()`` entry, and the values later
launches read (replayed or stepped) after ``advance()`` and after
``stop_autorun()``. Hypothesis varies Listings 2, 6 and 7 and their
sizes, an NDRange reader that takes the sequence channel in consecutive
cycles and twice in one cycle, the pipeline, the memory timing, cycles
advanced before the launch, and a stepping autorun that keeps every
launch off the replay ("concurrent simulator activity") while the lazy
channels serve it.

Example budget: ``REPLAY_EQUIV_EXAMPLES`` (default 25); CI runs a
dedicated job with a larger budget.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.timestamp import PersistentTimestampService
from repro.errors import SimulationError
from repro.frontend import compile_source
from repro.frontend.listings import LISTING_2, LISTING_6, LISTING_7
from repro.pipeline.fabric import Fabric
from repro.pipeline.kernel import PipelineConfig
from tests.executor_oracle import run_kernel
from tests.frontend_oracle import compile_eager
from tests.test_prop_compiled_services import (SERVICES_AND_READER,
                                               allocate_reader_buffers,
                                               reader_args)
from tests.test_prop_replay import (_MEMORY_CONFIGS, _engine, _memory,
                                    replays)  # noqa: F401 - a fixture

MAX_EXAMPLES = int(os.environ.get("REPLAY_EQUIV_EXAMPLES", "25"))

LISTINGS = {2: LISTING_2, 6: LISTING_6, 7: LISTING_7}

#: Buffers and channels holding timer values. A stop made between
#: cycles freezes the lazy timer one count past the eager one's last
#: write, so from such a stop on they are not compared.
_TIMER_BUFFERS = ("T", "I1")
_TIMER_CHANNELS = ("time_ch1", "time_ch2", "time_ch")


def _observe(fabric, engine, timer_exact=True):
    memory = _memory(fabric)
    stats = fabric.channels.stats_table()
    if not timer_exact:
        buffers = {name: values for name, values in memory[-1].items()
                   if name not in _TIMER_BUFFERS}
        memory = memory[:-1] + (buffers,)
        stats = {name: row for name, row in stats.items()
                 if name not in _TIMER_CHANNELS}
    return fabric.sim.now, _engine(engine), memory, stats


def _listing_launch(listing, size):
    if listing == 2:
        return "dot_product", {"x": "X", "y": "Y", "z": "Z", "times": "T",
                               "n": size}
    rows, num = size
    args = {"x": "X", "y": "Y", "z": "Z", "info1": "I1", "info2": "I2",
            "info3": "I3", "num": num}
    if listing == 6:
        args["n"] = rows
    else:
        args["__global_size"] = rows
    return "matvec", args


def _allocate(fabric, listing, size, launches):
    memory = fabric.memory
    if listing == 2:
        memory.allocate("X", size).fill(np.arange(size) * 3)
        memory.allocate("Y", size).fill(np.arange(size) % 5)
        memory.allocate("Z", 1)
        memory.allocate("T", 2)
        return
    rows, num = size
    memory.allocate("X", rows * num).fill(np.arange(rows * num) % 17)
    memory.allocate("Y", num).fill(np.arange(num) % 7)
    memory.allocate("Z", rows)
    for name in ("I1", "I2", "I3"):
        memory.allocate(name, rows * 10 * launches + 1)


def _run(compiler, build, memory_config, keep_samples, pre, busy, post):
    """Compile, launch once, then run ``post``'s host steps; returns what
    the host saw and the first launch's stepped reason."""
    fabric = Fabric(memory_config=memory_config,
                    keep_lsu_samples=keep_samples)
    if busy:
        # A stepping autorun: no launch owns the simulator.
        PersistentTimestampService(fabric, name="busy", mode="eager")
    fabric.advance(pre)
    kernel, args = build(fabric, compiler)
    engine = fabric.run_kernel(kernel, args)
    first_reason = engine.stepped_reason
    seen = [_observe(fabric, engine)]
    between_cycles, timer_exact = False, True
    for step in post:
        if step[0] == "advance":
            fabric.advance(step[1])
            between_cycles = between_cycles or step[1] > 0
        elif step[0] == "stop":
            fabric.stop_autorun()
            timer_exact = timer_exact and not between_cycles
        else:
            try:
                engine = run_kernel(fabric, kernel, args, executor=step[1])
            except SimulationError as error:   # a sequence read after stop
                seen.append(str(error)[:20])
                break
            between_cycles = False
            seen.append(_observe(fabric, engine, timer_exact))
    return seen, first_reason


def _listing(listing, size, launches):
    def build(fabric, compiler):
        program = compiler(fabric, LISTINGS[listing])
        _allocate(fabric, listing, size, launches)
        name, args = _listing_launch(listing, size)
        return program.kernel(name), args
    return build


def _reader(size, p, q, ii, max_inflight):
    def build(fabric, compiler):
        program = compiler(fabric, SERVICES_AND_READER)
        allocate_reader_buffers(fabric, ["O"], size=size)
        kernel = program.kernel("reader")
        kernel.pipeline = PipelineConfig(ii=ii, max_inflight=max_inflight)
        return kernel, reader_args("O", size, p, q)
    return build


_POST = st.lists(st.one_of(
    st.tuples(st.just("advance"), st.integers(0, 5)),
    st.tuples(st.just("stop")),
    st.tuples(st.just("launch"),
              st.sampled_from(["fast", "reference", "batch"]))),
    max_size=4)


@st.composite
def _listing_cases(draw):
    listing = draw(st.sampled_from(sorted(LISTINGS)))
    if listing == 2:
        size = draw(st.integers(1, 24))
    else:
        size = (draw(st.integers(1, 6 if listing == 6 else 8)),
                draw(st.integers(1, 14)))
    return listing, size


def _check(build, memory_config, keep_samples, pre, busy, post):
    lazy, lazy_reason = _run(compile_source, build, memory_config,
                             keep_samples, pre, busy, post)
    eager, eager_reason = _run(compile_eager, build, memory_config,
                               keep_samples, pre, busy, post)
    assert lazy == eager
    # Eager, a launch steps: a running timer is concurrent activity, and
    # a server blocked in its write leaves the channel eager.
    assert eager_reason in ("concurrent simulator activity",
                            "blocking read of eager channel 'seq_ch'")
    assert lazy_reason == ("concurrent simulator activity" if busy
                           else None)


class TestCompiledListingsReplay:
    @given(case=_listing_cases(),
           memory_config=st.sampled_from(_MEMORY_CONFIGS),
           keep_samples=st.booleans(), pre=st.sampled_from([0, 1, 7]),
           busy=st.booleans(), post=_POST)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_lazy_replay_matches_eager(self, case, memory_config,
                                       keep_samples, pre, busy, post):
        listing, size = case
        launches = 1 + sum(step[0] == "launch" for step in post)
        _check(_listing(listing, size, launches), memory_config,
               keep_samples, pre, busy, post)

    @pytest.mark.parametrize("listing,size", [
        (2, 1), (2, 16), (2, 40), (6, (1, 1)), (6, (3, 12)), (6, (6, 16)),
        (7, (1, 3)), (7, (5, 12)), (7, (6, 16)), (7, (16, 32))])
    def test_sizes(self, replays, listing, size):
        post = [("advance", 3), ("launch", "reference"), ("stop",),
                ("launch", "fast")]
        _check(_listing(listing, size, 3), None, True, 0, False, post)
        assert replays[0] >= 1


class TestCompiledReaderReplay:
    @given(size=st.integers(1, 12), p=st.integers(0, 3), q=st.integers(0, 3),
           ii=st.integers(1, 3), max_inflight=st.sampled_from([1, 2, 5, 64]),
           memory_config=st.sampled_from(_MEMORY_CONFIGS),
           keep_samples=st.booleans(), pre=st.sampled_from([0, 2]),
           busy=st.booleans(), post=_POST)
    @settings(max_examples=MAX_EXAMPLES * 2, deadline=None)
    def test_lazy_replay_matches_eager(self, size, p, q, ii, max_inflight,
                                       memory_config, keep_samples, pre,
                                       busy, post):
        _check(_reader(size, p, q, ii, max_inflight), memory_config,
               keep_samples, pre, busy, post)

    @pytest.mark.parametrize("p,q", [(0, 0), (0, 2), (1, 0), (2, 1)])
    def test_consecutive_and_same_cycle_reads(self, replays, p, q):
        # (0, 0): one read per work-item, one work-item per cycle; (0, 2):
        # two reads in one cycle per work-item, so the second waits for
        # the next cycle's offer; the others mix loads, double reads and
        # timer reads across work-items.
        _check(_reader(8, p, q, 1, 64), None, True, 0, False,
               [("launch", "fast")])
        assert replays[0] == 2

    @pytest.mark.parametrize("size,q", [(4, 2), (4, 3), (8, 0)])
    def test_reoffer_comes_first_in_its_cycle(self, replays, size, q):
        # With ii=2 a work-item whose load retires in the cycle of a
        # re-offer reads at once: the re-offer is the compiled server's
        # early-phase step, ahead of every pipeline event of that cycle.
        _check(_reader(size, 1, q, 2, 64), None, True, 0, False, [])
        assert replays[0] == 1


#: Listing 5's server and a kernel whose last op is a sequence read, so
#: the server's write completes after the launch (in its finish cycle).
_TAIL_READER = """
channel int seq_ch __attribute__((depth(0)));

__attribute__((autorun))
__kernel void seq_srv(void) {
    int count = 0;
    while (1) {
        count++;
        write_channel_altera(seq_ch, count);
    }
}

__kernel void tail(__global int* out) {
    int gid = get_global_id(0);
    out[gid] = read_channel_altera(seq_ch);
    int last = read_channel_altera(seq_ch);
}
"""


class TestFinishCycleRead:
    @pytest.mark.parametrize("size", [1, 3])
    def test_server_completes_after_the_launch(self, replays, size):
        def build(fabric, compiler):
            program = compiler(fabric, _TAIL_READER)
            fabric.memory.allocate("O", size)
            return program.kernel("tail"), {"out": "O",
                                            "__global_size": size}
        _check(build, None, True, 0, False,
               [("launch", "fast"), ("launch", "reference"),
                ("launch", "fast")])
        assert replays[0] == 3
