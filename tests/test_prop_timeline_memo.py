"""Property test: the batch table's timeline memo changes nothing.

A planned launch's Phase B timeline is a pure function of its timing
key (``repro.pipeline.replay._timing_key``: Phase A's access records,
the row count, the start state relative to the start cycle, the memory
config, ``ii``/``max_inflight`` and ``keep_lsu_samples``), so a launch
whose key is memoized takes the recorded timeline instead of running
the issue loop. Each generated launch runs three times: on a fresh
fabric right after ``timeline_cache_clear()`` (a miss, which records
the timeline), on a second fresh fabric (a hit), and once more on that
second fabric (a later start cycle, open DRAM rows). Miss, hit and the
reference executor must agree on every observable: buffers,
``sim.now``, engine statistics and iteration trace, ``engine.batch``,
LSU statistics, samples and registration order, memory statistics,
per-buffer traffic and the DRAM bank state.

Fixed cases pin what must miss (a different address, access kind,
site, active row, memory config, ``ii``, ``max_inflight``,
``keep_lsu_samples``, a busy bank or LSU at launch), write-after-write
order, the byte-budget LRU and concurrent launches.

Example budget: ``BATCH_EQUIV_EXAMPLES`` (default 60), like the other
batch suites.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend import compile_source, program_cache_clear
from repro.memory.global_memory import GlobalMemoryConfig
from repro.pipeline import replay
from repro.pipeline.engine import PipelineEngine
from repro.pipeline.fabric import Fabric
from repro.pipeline.kernel import PipelineConfig
from repro.pipeline.replay import timeline_cache_clear, timeline_cache_info
from tests.executor_oracle import run_kernel
from tests.test_prop_batch_equivalence import (_PIPELINES,
                                               _float_kernel_sources,
                                               _kernel_sources)

MAX_EXAMPLES = int(os.environ.get("BATCH_EQUIV_EXAMPLES", "60"))

_BUF = 16


def _fabric(keep=True, dtype="int64", memory_config=None, size=_BUF):
    fabric = Fabric(keep_lsu_samples=keep, memory_config=memory_config)
    values = np.arange(size) * 3 - 5
    if dtype == "float64":
        values = values / 4
    for name in ("IN", "OUT"):
        fabric.memory.allocate(name, size, dtype=dtype).fill(values)
    return fabric


def _launch(fabric, source, global_size, executor="batch", pipeline=None,
            **args):
    compiled = compile_source(fabric, source).kernel("k")
    if pipeline is not None:
        compiled.pipeline = pipeline
    launch_args = {"n": 7, "__global_size": global_size, "in": "IN",
                   "out": "OUT"}
    launch_args.update(args)
    return run_kernel(fabric, compiled, launch_args, executor=executor)


def _observe(fabric, engine):
    """Everything a launch leaves behind that a host or test can see.
    Site labels are compared raw: every launch of one source shares the
    cached program image, so its sites are the same strings."""
    stats = engine.stats
    memory = fabric.memory
    mstats = memory.stats
    return {
        "now": fabric.sim.now,
        "engine": (stats.iterations_issued, stats.iterations_retired,
                   stats.start_cycle, stats.finish_cycle,
                   stats.issue_stall_cycles),
        "trace": list(stats.iteration_trace),
        "lsus": [(key, lsu.stats.issued, lsu.stats.completed,
                  lsu.stats.total_latency, lsu.stats.max_latency,
                  lsu.stats.ordering_stall_cycles, list(lsu.stats.samples),
                  lsu._tail_time)
                 for key, lsu in engine.lsus.items()],
        "memory": (mstats.loads, mstats.stores, mstats.row_hits,
                   mstats.row_misses, mstats.total_load_latency,
                   mstats.bytes_read, mstats.bytes_written,
                   memory.pending_commits),
        "traffic": {name: (t.loads, t.stores, t.bytes_read, t.bytes_written)
                    for name, t in memory.traffic.items()},
        "banks": (list(memory._bank_ready), list(memory._bank_open_row)),
        "buffers": {name: memory.buffer(name).snapshot().tolist()
                    for name in ("IN", "OUT")},
    }


def _batch(engine):
    outcome = engine.batch
    return (outcome.mode, outcome.reason, outcome.rows, outcome.ops,
            outcome.divergence)


def _three_launches(source, global_size, executor, pipeline, keep, dtype):
    """Launch on a fresh fabric, again on another fresh fabric, and once
    more on the second: the three launches' observables and engines."""
    first = _fabric(keep, dtype)
    engine = _launch(first, source, global_size, executor, pipeline)
    runs = [(_observe(first, engine), engine)]
    second = _fabric(keep, dtype)
    engine = _launch(second, source, global_size, executor, pipeline)
    runs.append((_observe(second, engine), engine))
    engine = _launch(second, source, global_size, executor, pipeline)
    runs.append((_observe(second, engine), engine))
    return runs


def _check_memo_invisible(source, global_size, pipeline, keep,
                          dtype="int64"):
    program_cache_clear()
    timeline_cache_clear()
    batch = _three_launches(source, global_size, "batch", pipeline, keep,
                            dtype)
    info = timeline_cache_info()
    ref = _three_launches(source, global_size, "reference", pipeline, keep,
                          dtype)
    (miss, miss_engine), (hit, hit_engine), (later, _) = batch
    tables = sum(engine.batch.mode == "table" for _, engine in batch)
    assert info["misses"] + info["hits"] == tables
    if miss_engine.batch.mode == "table":
        # The second launch starts from the first's relative state: idle
        # banks and LSUs, no open rows.
        assert info["hits"] >= 1
    assert _batch(miss_engine) == _batch(hit_engine)
    assert miss == hit
    assert miss == ref[0][0]
    assert hit == ref[1][0]
    assert later == ref[2][0]


class TestMemoInvisible:
    @given(source=st.one_of(_kernel_sources(convergent=True),
                            _kernel_sources()),
           global_size=st.integers(0, 40), pipeline=_PIPELINES,
           keep=st.booleans())
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_miss_hit_and_reference_agree(self, source, global_size,
                                          pipeline, keep):
        _check_memo_invisible(source, global_size, pipeline, keep)

    @given(source=_float_kernel_sources(), global_size=st.integers(0, 40),
           keep=st.booleans())
    @settings(max_examples=max(10, MAX_EXAMPLES // 3), deadline=None)
    def test_float_miss_hit_and_reference_agree(self, source, global_size,
                                                keep):
        _check_memo_invisible(source, global_size, None, keep,
                              dtype="float64")


_BASE = """
__kernel void k(__global long* in, __global long* out, int n, int s) {
    int gid = get_global_id(0);
    out[gid] = in[gid + s * (gid == 3)] * n;
}
"""

_KIND_STORE = """
__kernel void k(__global long* in, __global long* out, int n) {
    int gid = get_global_id(0);
    out[gid] = in[gid];
    out[gid + 8] = n;
}
"""

_KIND_LOAD = """
__kernel void k(__global long* in, __global long* out, int n) {
    int gid = get_global_id(0);
    out[gid] = in[gid];
    long x = out[gid + 8];
}
"""

_SITE_SHIFTED = """
__kernel void k(__global long* in, __global long* out, int n, int s) {
    int gid = get_global_id(0);
    int unused = 0;
    out[gid] = in[gid + s * (gid == 3)] * n;
}
"""

_ROWS = """
__kernel void k(__global long* in, __global long* out, int n, int s) {
    int gid = get_global_id(0);
    if (gid != s) { n = in[0]; }
    out[gid] = n;
}
"""

_BUSY_BANK = object()
_BUSY_LSU = object()

#: (name, first launch, second launch): each launch is (source, launch
#: args, fabric options, pipeline); the second must miss.
_MISSES = {
    "address": ((_BASE, {"s": 0}, {}, None), (_BASE, {"s": 1}, {}, None)),
    "load or store": ((_KIND_STORE, {}, {}, None),
                      (_KIND_LOAD, {}, {}, None)),
    "site": ((_BASE, {"s": 0}, {}, None),
             (_SITE_SHIFTED, {"s": 0}, {}, None)),
    "active row": ((_ROWS, {"s": 3}, {}, None), (_ROWS, {"s": 4}, {}, None)),
    "memory config": ((_BASE, {"s": 0}, {}, None),
                      (_BASE, {"s": 0}, {"memory_config": GlobalMemoryConfig(
                          pipe_latency=39)}, None)),
    "ii": ((_BASE, {"s": 0}, {}, None),
           (_BASE, {"s": 0}, {}, PipelineConfig(ii=2))),
    "max_inflight": ((_BASE, {"s": 0}, {}, None),
                     (_BASE, {"s": 0}, {}, PipelineConfig(max_inflight=3))),
    "keep_lsu_samples": ((_BASE, {"s": 0}, {}, None),
                         (_BASE, {"s": 0}, {"keep": False}, None)),
    "busy bank": ((_BASE, {"s": 0}, {}, None),
                  (_BASE, {"s": 0}, {"busy": _BUSY_BANK}, None)),
    "busy lsu": ((_BASE, {"s": 0}, {}, None),
                 (_BASE, {"s": 0}, {"busy": _BUSY_LSU}, None)),
}


def _fixed_launch(launch, executor, monkeypatch):
    source, args, options, pipeline = launch
    options = dict(options)
    busy = options.pop("busy", None)
    fabric = _fabric(**options)
    if busy is _BUSY_BANK:
        # Bank 0 still serves an earlier access when the launch starts.
        fabric.memory._bank_ready[0] = 45
    with monkeypatch.context() as patch:
        if busy is _BUSY_LSU:
            make = PipelineEngine.lsu

            def busy_lsu(engine, site, kind):
                lsu = make(engine, site, kind)
                if kind == "load" and not lsu.stats.issued:
                    # Still retiring an earlier access, with a higher
                    # peak latency than this launch reaches.
                    lsu._tail_time = 60
                    lsu.stats.max_latency = 500
                return lsu
            patch.setattr(PipelineEngine, "lsu", busy_lsu)
        engine = _launch(fabric, source, 8, executor, pipeline, **args)
    return _observe(fabric, engine), engine


class TestMustMiss:
    @pytest.mark.parametrize("name", sorted(_MISSES))
    def test_second_launch_misses(self, name, monkeypatch):
        first, second = _MISSES[name]
        program_cache_clear()
        timeline_cache_clear()
        _, engine = _fixed_launch(first, "batch", monkeypatch)
        assert engine.batch.mode == "table"
        observed, engine = _fixed_launch(second, "batch", monkeypatch)
        assert engine.batch.mode == "table"
        info = timeline_cache_info()
        assert (info["misses"], info["hits"], info["size"]) == (2, 0, 2)
        reference, _ = _fixed_launch(second, "reference", monkeypatch)
        assert observed == reference
        # The same launch again is a hit, and still equal.
        again, _ = _fixed_launch(second, "batch", monkeypatch)
        assert timeline_cache_info()["hits"] == 1
        assert again == reference

    def test_values_are_not_in_the_key(self):
        """Other buffer contents and another uniform stored value: the
        same stream, a hit, and each launch's own values land."""
        program_cache_clear()
        timeline_cache_clear()
        outputs = []
        for offset in (0, 1000):
            fabric = _fabric()
            fabric.memory.buffer("IN").fill(np.arange(_BUF) + offset)
            engine = _launch(fabric, _BASE, 8, s=0, n=offset + 2)
            observed = _observe(fabric, engine)
            reference = _fabric()
            reference.memory.buffer("IN").fill(np.arange(_BUF) + offset)
            engine = _launch(reference, _BASE, 8, "reference", s=0,
                             n=offset + 2)
            assert observed == _observe(reference, engine)
            outputs.append(observed["buffers"]["OUT"][:8])
        assert timeline_cache_info()["hits"] == 1
        assert outputs[0] == [v * 2 for v in range(8)]
        assert outputs[1] == [(v + 1000) * 1002 for v in range(8)]


class TestWriteAfterWrite:
    @pytest.mark.parametrize("source, expected", [
        # Rows 0, 2, 4 store element 0 and rows 1, 3, 5 element 1.
        ("out[gid & 1] = gid;", [4, 5]),
        # Two stores of one row to one element, then the next row's.
        ("out[0] = gid; out[0] = gid + 100;", [105]),
    ])
    def test_last_store_in_issue_order_wins(self, source, expected):
        kernel = ("__kernel void k(__global long* in, __global long* out, "
                  "int n) {\n    int gid = get_global_id(0);\n    "
                  + source + "\n}\n")
        program_cache_clear()
        timeline_cache_clear()
        observed = []
        for executor in ("batch", "batch", "reference", "stepped"):
            fabric = _fabric()
            engine = _launch(fabric, kernel, 6, executor)
            observed.append(_observe(fabric, engine))
        assert timeline_cache_info()["hits"] == 1
        assert observed[0]["buffers"]["OUT"][:len(expected)] == expected
        assert all(run == observed[0] for run in observed[1:])


class TestBudget:
    def _launch_stream(self, s):
        fabric = _fabric()
        return _launch(fabric, _BASE, 8, s=s)

    def test_lru_evicts_by_bytes(self, monkeypatch):
        program_cache_clear()
        timeline_cache_clear()
        self._launch_stream(0)
        entry = timeline_cache_info()["bytes"]
        assert entry > 0
        # Room for two entries of this size, not three.
        monkeypatch.setattr(replay, "_TIMELINE_BUDGET", 2 * entry + entry // 2)
        self._launch_stream(1)
        self._launch_stream(0)                  # a hit: 0 is most recent
        self._launch_stream(2)                  # evicts 1
        info = timeline_cache_info()
        assert (info["hits"], info["misses"], info["evictions"],
                info["size"], info["bytes"]) == (1, 3, 1, 2, 2 * entry)
        assert info["maxbytes"] == 2 * entry + entry // 2
        self._launch_stream(0)
        self._launch_stream(2)
        assert timeline_cache_info()["hits"] == 3
        self._launch_stream(1)                  # evicted: a miss again
        info = timeline_cache_info()
        assert (info["misses"], info["evictions"]) == (4, 2)

    def test_entry_over_budget_is_not_kept(self, monkeypatch):
        program_cache_clear()
        timeline_cache_clear()
        monkeypatch.setattr(replay, "_TIMELINE_BUDGET", 16)
        self._launch_stream(0)
        self._launch_stream(0)
        info = timeline_cache_info()
        assert (info["hits"], info["misses"], info["size"],
                info["bytes"]) == (0, 2, 0, 0)

    def test_clear_resets_counters(self):
        self._launch_stream(0)
        timeline_cache_clear()
        info = timeline_cache_info()
        assert (info["hits"], info["misses"], info["evictions"],
                info["size"], info["bytes"]) == (0, 0, 0, 0, 0)


def test_concurrent_launches_of_one_stream():
    """Threads launching one new stream on their own fabrics: every
    launch equals a launch alone, and the memo holds one entry."""
    source = _BASE.replace("* n", "* n + 1")
    program_cache_clear()
    timeline_cache_clear()
    fabric = _fabric()
    alone = _observe(fabric, _launch(fabric, source, 8, s=1))
    timeline_cache_clear()
    barrier = threading.Barrier(8)
    results = []
    errors = []

    def launch_one():
        try:
            barrier.wait(timeout=30)
            fabric = _fabric()
            results.append(_observe(fabric, _launch(fabric, source, 8, s=1)))
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=launch_one) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors
    assert len(results) == 8
    assert all(result == alone for result in results)
    info = timeline_cache_info()
    assert info["hits"] + info["misses"] == 8
    assert info["misses"] >= 1
    assert info["size"] == 1
