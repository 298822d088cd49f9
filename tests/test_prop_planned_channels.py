"""Property test: launches that read lazy service channels run in the
batch table and equal the bodies replay and the eager services.

A compiled kernel's blocking read of a Listing 1 timer or a Listing 5
sequence server is a ``BRead`` plan node: Phase A gives each row an
opaque register (:class:`~repro.pipeline.columns.Register`), which a
store may take as its element or its value, and the planned issue loop
fills it in when the row reads the channel, making the calls the bodies
replay makes. Three runs of the same host script must agree exactly:

* the product path (``compile_source``, the default executor): Listing
  7's multi-row launches run in the table, a one-iteration launch
  (Listings 2 and 6, one work-item) takes the bodies replay;
* the bodies replay with the table switched off (``executor="bodies"``);
* the same source with every service eager (``tests/frontend_oracle.py``'s
  ``compile_eager``): the services step every cycle, and so do launches.

Compared after every launch: ``sim.now``, engine statistics and the
iteration trace, LSU statistics, samples and registration order, memory
statistics, per-buffer traffic, bank state and every buffer, and every
channel's ``stats_table()`` entry. Hypothesis varies the listing, its
size and probe threshold (``if (i < T)``), the pipeline and memory
timing, cycles advanced before and between launches, back-to-back
launches and a service teardown. A must-fall-back set pins the named
reason of each use Phase A cannot plan.

Example budget: ``BATCH_EQUIV_EXAMPLES`` (default 60), like the other
batch suites; CI runs a dedicated job with a larger budget.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProcessError, SimulationError
from repro.frontend import compile_source
from repro.frontend.listings import LISTING_2, LISTING_6, LISTING_7
from repro.pipeline.engine import ONE_ITERATION
from repro.pipeline.fabric import Fabric
from repro.pipeline.kernel import PipelineConfig
from repro.pipeline.replay import timeline_cache_clear, timeline_cache_info
from tests.executor_oracle import run_kernel
from tests.frontend_oracle import compile_eager
from tests.test_prop_replay import _MEMORY_CONFIGS, _engine, _memory

MAX_EXAMPLES = int(os.environ.get("BATCH_EQUIV_EXAMPLES", "60"))

_PROBE = "if (i < 10) {"


def _source(listing, threshold):
    source = {2: LISTING_2, 6: LISTING_6, 7: LISTING_7}[listing]
    if threshold is None:
        return source
    assert _PROBE in source
    return source.replace(_PROBE, f"if (i < {threshold}) {{")


def _allocate(fabric, listing, size, probes):
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
        memory.allocate(name, probes + 1)


def _args(listing, size):
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


def _observe(fabric, engine):
    return (fabric.sim.now, _engine(engine), _memory(fabric),
            fabric.channels.stats_table())


def _script(compiler, executor, case, steps):
    """Compile, advance ``pre`` cycles, then run ``steps``; returns what
    the host saw after each launch and the launches' ``engine.batch``."""
    listing, size, threshold, pipeline, memory_config, keep, pre = case
    launches = sum(step[0] == "launch" for step in steps)
    if listing == 2:
        probes = 0
    else:
        rows, num = size
        probes = rows * min(num, threshold) * launches
    fabric = Fabric(memory_config=memory_config, keep_lsu_samples=keep)
    program = compiler(fabric, _source(listing, threshold))
    _allocate(fabric, listing, size, probes)
    name, args = _args(listing, size)
    kernel = program.kernel(name)
    if pipeline is not None:
        kernel.pipeline = pipeline
    fabric.advance(pre)
    seen, batches = [], []
    for step in steps:
        if step[0] == "advance":
            fabric.advance(step[1])
        elif step[0] == "stop":
            fabric.stop_autorun()
        else:
            try:
                engine = run_kernel(fabric, kernel, args, executor=executor)
            except SimulationError as error:     # a read after teardown
                seen.append(str(error)[:20])
                break
            seen.append(_observe(fabric, engine))
            batches.append(engine.batch)
    return seen, batches


def _check(case, steps):
    planned, batches = _script(compile_source, "fast", case, steps)
    bodies, _ = _script(compile_source, "bodies", case, steps)
    eager, _ = _script(compile_eager, "fast", case, steps)
    assert planned == bodies
    assert planned == eager
    return batches


_PIPELINES = st.sampled_from([None, PipelineConfig(ii=1, max_inflight=2),
                              PipelineConfig(ii=2, max_inflight=64),
                              PipelineConfig(ii=3, max_inflight=5)])

_STEPS = st.lists(st.one_of(
    st.tuples(st.just("launch")),
    st.tuples(st.just("advance"), st.integers(0, 5)),
    st.tuples(st.just("stop"))), min_size=1, max_size=4).map(
        lambda steps: [("launch",)] + steps)


@st.composite
def _cases(draw):
    listing = draw(st.sampled_from([2, 6, 7]))
    if listing == 2:
        size, threshold = draw(st.integers(1, 24)), None
    else:
        size = (draw(st.integers(1, 6 if listing == 6 else 12)),
                draw(st.integers(1, 14)))
        threshold = draw(st.sampled_from([0, 1, 3, 10, 20]))
    return (listing, size, threshold, draw(_PIPELINES),
            draw(st.sampled_from(_MEMORY_CONFIGS)), draw(st.booleans()),
            draw(st.sampled_from([0, 1, 7])))


class TestPlannedChannelReads:
    @given(case=_cases(), steps=_STEPS)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_planned_bodies_and_eager_agree(self, case, steps):
        batches = _check(case, steps)
        listing, size = case[:2]
        first = batches[0]
        if listing == 7 and size[0] > 1:
            assert first.mode == "table", first
        else:
            assert (first.mode, first.reason) == ("fallback", ONE_ITERATION)

    @pytest.mark.parametrize("listing,size,threshold", [
        (2, 1, None), (2, 16, None), (6, (1, 1), 10), (6, (3, 12), 3),
        (6, (6, 16), 10), (7, (2, 3), 0), (7, (5, 12), 1), (7, (6, 16), 10),
        (7, (16, 32), 10), (7, (8, 4), 20)])
    def test_sizes(self, listing, size, threshold):
        steps = [("launch",), ("advance", 3), ("launch",), ("launch",),
                 ("stop",), ("launch",)]
        case = (listing, size, threshold, None, None, True, 0)
        batches = _check(case, steps)
        modes = {batch.mode for batch in batches}
        assert modes == ({"table"} if listing == 7 else {"fallback"})

    def test_reused_timeline_equals_a_timed_one(self):
        """A second launch of the same stream from the same channel and
        memory state reuses the first one's timeline, channel effects
        included, and still equals the bodies replay."""
        case = (7, (6, 16), 10, None, None, True, 0)
        timeline_cache_clear()
        first, _ = _script(compile_source, "fast", case, [("launch",)])
        misses = timeline_cache_info()["misses"]
        second, batches = _script(compile_source, "fast", case,
                                  [("launch",), ("advance", 2)])
        info = timeline_cache_info()
        assert batches[0].mode == "table"
        assert (info["hits"], info["misses"]) == (1, misses)
        bodies, _ = _script(compile_source, "bodies", case, [("launch",)])
        assert first == second == bodies


#: Listing 5's server, Listing 1's timer, a plain channel and its writer,
#: and a reader kernel whose ``USE`` line takes ``s`` (a sequence read)
#: or ``t`` (a timer read).
_READER = """
channel int seq_ch __attribute__((depth(0)));
channel int time_ch __attribute__((depth(0)));
channel int plain __attribute__((depth(16)));

__attribute__((autorun))
__kernel void seq_srv(void) {
    int count = 0;
    while (1) {
        count++;
        write_channel_altera(seq_ch, count);
    }
}

__attribute__((autorun))
__kernel void timer_srv(void) {
    int count = 0;
    while (1) {
        bool success;
        count++;
        success = write_channel_nb_altera(time_ch, count);
    }
}

__kernel void fill(int n) {
    for (int i = 0; i < n; i++) {
        write_channel_altera(plain, i * 3);
    }
}

__kernel void k(__global int* a, __global int* out) {
    int gid = get_global_id(0);
    int s = read_channel_altera(seq_ch);
    int t = read_channel_altera(time_ch);
    USE
}
"""


def _reader_run(compiler, executor, use, size=4, out=64):
    fabric = Fabric(keep_lsu_samples=True)
    program = compiler(fabric, _READER.replace("USE", use))
    fabric.memory.allocate("A", 64).fill(np.arange(64) % 9)
    fabric.memory.allocate("OUT", out)
    if "plain" in use:
        run_kernel(fabric, program.kernel("fill"), {"n": size})
    try:
        engine = run_kernel(fabric, program.kernel("k"), {
            "a": "A", "out": "OUT", "__global_size": size},
            executor=executor)
    except ProcessError as error:       # a store outside the buffer
        return fabric.engines[-1], str(error)
    return engine, _observe(fabric, engine)


class TestMustFallBack:
    @pytest.mark.parametrize("use,reason,out", [
        ("out[gid] = s + 1;", "channel value in arithmetic", 64),
        ("out[gid] = gid * t;", "channel value in arithmetic", 64),
        ("if (s) { out[gid] = 1; }", "channel value as a condition", 64),
        ("while (t < 3) { t = 5; }", "channel value in arithmetic", 64),
        ("out[gid] = a[s];", "channel value as an index", 64),
        ("out[t] = 1;", "timer value as a store index", 64),
        # Sequence numbers 1-4: the last store leaves the buffer.
        ("out[s] = 1;", "sequence number outside the buffer", 4),
        ("int u = 0; if (gid > 1) { u = s; } out[gid] = u;",
         "channel value in arithmetic", 64),
    ])
    def test_named_reason_and_same_outcome(self, use, reason, out):
        engine, planned = _reader_run(compile_source, "fast", use, out=out)
        assert (engine.batch.mode, engine.batch.reason,
                engine.batch.divergence) == ("fallback", reason, 1)
        assert engine.stepped_reason is None
        _, bodies = _reader_run(compile_source, "bodies", use, out=out)
        _, eager = _reader_run(compile_eager, "fast", use, out=out)
        assert planned == bodies == eager

    def test_eager_channel_falls_back_before_phase_a(self):
        use = "out[gid] = read_channel_altera(plain);"
        engine, planned = _reader_run(compile_source, "fast", use)
        reason = "blocking read of eager channel 'plain'"
        assert (engine.batch.mode, engine.batch.reason,
                engine.batch.divergence) == ("fallback", reason, 0)
        assert engine.stepped_reason == reason
        _, eager = _reader_run(compile_eager, "fast", use)
        assert planned == eager

    @pytest.mark.parametrize("use", [
        "out[gid] = s; out[gid + 8] = t;",
        "out[s] = t; out[s] = gid;",
        "int v = s; out[v] = gid;",
    ])
    def test_stores_of_registers_stay_in_the_table(self, use):
        engine, planned = _reader_run(compile_source, "fast", use)
        assert engine.batch.mode == "table", engine.batch
        _, bodies = _reader_run(compile_source, "bodies", use)
        _, eager = _reader_run(compile_eager, "fast", use)
        assert planned == bodies == eager
