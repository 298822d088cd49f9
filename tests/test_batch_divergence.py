"""Pin the batch engine's fallback machinery: every bail/abort reason,
the ``engine.batch`` stats object, and the batch trace records.

The equivalence property (tests/test_prop_batch_equivalence.py) proves
fallbacks are *correct*; this module proves they happen for the *right
reason* — a silent fallback on a convergent kernel would erase the whole
point of the batch tier, and a silent table execution of a divergent
kernel would be a soundness bug the property might miss if timings
happened to coincide.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import AddressError, ProcessError
from repro.frontend import compile_source, program_cache_clear
from repro.kernels.vecadd import VecAddKernel
from repro.pipeline.fabric import Fabric
from repro.pipeline.ops import ALL_OPS
from repro.trace import TraceHub

_CONVERGENT = """
__kernel void conv(__global int* in, __global int* out, int n) {
    int gid = get_global_id(0);
    out[gid] = in[gid] * 2 + n;
}
"""


def _run_source(source, kernel, n=8, executor="batch", fabric=None,
                extra_args=None):
    fabric = fabric or Fabric()
    program = compile_source(fabric, source)
    fabric.memory.allocate("IN", n).fill(np.arange(n) + 1)
    fabric.memory.allocate("OUT", n)
    args = {"in": "IN", "out": "OUT", "n": n, "__global_size": n}
    if extra_args:
        args.update(extra_args)
    engine = fabric.run_kernel(program.kernel(kernel), args,
                               executor=executor)
    return fabric, engine


class TestTableMode:
    def test_convergent_kernel_runs_in_table_mode(self):
        program_cache_clear()
        hub = TraceHub()
        fabric, engine = _run_source(_CONVERGENT, "conv",
                                     fabric=Fabric(trace=hub))
        outcome = engine.batch
        assert outcome.mode == "table"
        assert outcome.reason == ""
        assert outcome.rows == 8
        assert outcome.ops > 0
        assert outcome.divergence == 0
        assert list(fabric.memory.buffer("OUT").snapshot()) == \
            [(i + 1) * 2 + 8 for i in range(8)]
        launches = [r for r in hub.records if r.schema == "batch.launch"]
        assert len(launches) == 1
        assert launches[0].values == (1, outcome.rows, outcome.ops)
        assert launches[0].site == ""
        assert hub.count("batch.divergence") == 0


class TestStaticBail:
    """Reasons known before any work-item executes (no divergence stat)."""

    def _assert_static_fallback(self, fabric, engine, reason):
        assert engine.batch.mode == "fallback"
        assert engine.batch.reason == reason
        assert engine.batch.divergence == 0
        hub = fabric.trace
        launches = [r for r in hub.records if r.schema == "batch.launch"]
        assert len(launches) == 1
        assert launches[0].site == reason
        assert launches[0].values[0] == 0          # mode=fallback
        assert hub.count("batch.divergence") == 0

    def test_python_ir_kernel_has_no_plan(self):
        hub = TraceHub()
        fabric = Fabric(trace=hub)
        for name in ("a", "b", "c"):
            fabric.memory.allocate(name, 8).fill(np.arange(8))
        engine = fabric.run_kernel(VecAddKernel(), {"n": 8},
                                   executor="batch")
        self._assert_static_fallback(
            fabric, engine, "Python-IR kernel (no op-stream plan)")
        assert list(fabric.memory.buffer("c").snapshot()) == \
            [2 * i for i in range(8)]

    def test_barrier_bails_statically(self):
        program_cache_clear()
        source = """
        __kernel void k(__global int* in, __global int* out, int n) {
            int gid = get_global_id(0);
            int x = in[gid];
            barrier(CLK_GLOBAL_MEM_FENCE);
            out[gid] = x;
        }
        """
        fabric, engine = _run_source(source, "k", fabric=Fabric(trace=TraceHub()))
        self._assert_static_fallback(fabric, engine, "work-group barrier")

    def test_local_memory_bails_statically(self):
        program_cache_clear()
        source = """
        __kernel void k(__global int* in, __global int* out, int n) {
            __local int stage[8];
            int gid = get_global_id(0);
            stage[gid] = in[gid];
            out[gid] = stage[gid];
        }
        """
        fabric, engine = _run_source(source, "k", fabric=Fabric(trace=TraceHub()))
        self._assert_static_fallback(fabric, engine, "__local memory")

    def test_concurrent_simulator_activity_bails(self):
        program_cache_clear()
        hub = TraceHub()
        fabric = Fabric(trace=hub)
        sim = fabric.sim

        def ticker():
            for _ in range(200):
                yield sim.timeout(1)

        sim.process(ticker())
        fabric2, engine = _run_source(_CONVERGENT, "conv", fabric=fabric)
        self._assert_static_fallback(
            fabric, engine, "concurrent simulator activity")

    def test_run_until_under_way_bails(self):
        program_cache_clear()
        hub = TraceHub()
        fabric = Fabric(trace=hub)
        program = compile_source(fabric, _CONVERGENT)
        fabric.memory.allocate("IN", 8).fill(np.arange(8) + 1)
        fabric.memory.allocate("OUT", 8)
        engine = fabric.launch(program.kernel("conv"), {
            "in": "IN", "out": "OUT", "n": 8, "__global_size": 8},
            executor="batch")
        # The launcher first runs inside advance(): a replay would compute
        # the launch ahead of the cycle the caller pauses at.
        fabric.advance(1)
        fabric.run(engine.completion, fabric.memory.drained())
        self._assert_static_fallback(fabric, engine,
                                     "run(until=...) under way")


class TestDynamicDivergence:
    """Aborts discovered *during* Phase A — these bump ``divergence`` and
    emit one ``batch.divergence`` record alongside the fallback launch."""

    def _assert_divergent_fallback(self, fabric, engine, reason, rows=8):
        outcome = engine.batch
        assert outcome.mode == "fallback"
        assert outcome.reason == reason
        assert outcome.rows == rows
        assert outcome.ops > 0                      # plan existed
        assert outcome.divergence == 1
        hub = fabric.trace
        divergences = [r for r in hub.records
                       if r.schema == "batch.divergence"]
        assert len(divergences) == 1
        assert divergences[0].site == reason
        assert divergences[0].values == (rows,)
        launches = [r for r in hub.records if r.schema == "batch.launch"]
        assert len(launches) == 1
        assert launches[0].values == (0, rows, outcome.ops)

    def test_divergent_branch_falls_back(self):
        program_cache_clear()
        source = """
        __kernel void k(__global int* in, __global int* out, int n) {
            int gid = get_global_id(0);
            if (gid % 2 == 0) {
                out[gid] = in[gid];
            } else {
                out[gid] = -in[gid];
            }
        }
        """
        fabric, engine = _run_source(source, "k", fabric=Fabric(trace=TraceHub()))
        self._assert_divergent_fallback(fabric, engine,
                                        "control-flow divergence")
        assert list(fabric.memory.buffer("OUT").snapshot()) == \
            [(i + 1) if i % 2 == 0 else -(i + 1) for i in range(8)]

    def test_read_after_write_hazard_falls_back(self):
        program_cache_clear()
        source = """
        __kernel void k(__global int* in, __global int* out, int n) {
            int gid = get_global_id(0);
            out[gid] = in[gid] + 1;
            int check = out[gid];
            out[gid] = check * 2;
        }
        """
        fabric, engine = _run_source(source, "k", fabric=Fabric(trace=TraceHub()))
        self._assert_divergent_fallback(fabric, engine,
                                        "read-after-write hazard")
        assert list(fabric.memory.buffer("OUT").snapshot()) == \
            [(i + 2) * 2 for i in range(8)]

    def test_write_after_read_hazard_falls_back(self):
        program_cache_clear()
        source = """
        __kernel void k(__global int* in, __global int* out, int n) {
            int gid = get_global_id(0);
            int seed = in[0];
            in[gid] = seed + gid;
            out[gid] = seed;
        }
        """
        fabric, engine = _run_source(source, "k", fabric=Fabric(trace=TraceHub()))
        self._assert_divergent_fallback(fabric, engine,
                                        "write-after-read hazard")
        assert list(fabric.memory.buffer("IN").snapshot()) == \
            [1 + i for i in range(8)]

    def test_out_of_range_index_falls_back_to_real_address_error(self):
        """Phase A sees the wild index, aborts, and the fallback rerun
        raises the same AddressError the reference executor would."""
        program_cache_clear()
        source = """
        __kernel void k(__global int* in, __global int* out, int n) {
            int gid = get_global_id(0);
            out[gid + n] = in[gid];
        }
        """
        with pytest.raises(ProcessError) as exc_info:
            _run_source(source, "k", fabric=Fabric(trace=TraceHub()))
        cause = exc_info.value.__cause__
        while cause is not None and not isinstance(cause, AddressError):
            cause = cause.__cause__
        assert isinstance(cause, AddressError)
        assert "index 8 out of range [0, 8)" in str(exc_info.value)


class TestOpCoverage:
    """Every pipeline op class must have a declared batch disposition.

    When someone adds a new op to ALL_OPS, this test fails until they
    decide — and record here — whether the batch planner tables it,
    statically bails on it, or can never see it (Python-IR-only ops,
    which fall under the no-plan fallback).
    """

    DISPOSITION = {
        # Tabled: compiled into BLoad/BStore/BPure plan nodes.
        "Load": "table",
        "Store": "table",
        "Compute": "table",
        # Static bail: _batch_bail_reason rejects the kernel up front.
        "LoadLocal": "static-bail (__local memory)",
        "StoreLocal": "static-bail (__local memory)",
        "ReadChannel": "static-bail (channel operation)",
        "WriteChannel": "static-bail (channel operation)",
        "Call": "static-bail (HDL library call)",
        "Barrier": "static-bail (work-group barrier)",
        # Park late-phase autorun units only; compile_batch_plan rejects
        # every autorun kernel before planning.
        "AwaitData": "static-bail (autorun kernel)",
        "Drain": "static-bail (autorun kernel)",
        # Python-IR only: never emitted by the codegen op stream, so any
        # kernel producing them has no plan at all.
        "MemFence": "no-plan (Python-IR kernels only)",
        "CollectReduction": "no-plan (Python-IR kernels only)",
        "CycleBoundary": "no-plan (Python-IR kernels only)",
        "Transfer": "no-plan (Python-IR kernels only)",
    }

    def test_every_op_has_a_disposition(self):
        assert set(self.DISPOSITION) == {cls.__name__ for cls in ALL_OPS}

    def test_autorun_kernels_bail_before_planning(self):
        program_cache_clear()
        program = compile_source(Fabric(), """
            channel int c __attribute__((depth(4)));
            __attribute__((autorun))
            __kernel void srv(void) {
                while (1) { bool ok = write_channel_nb_altera(c, 1); }
            }
        """)
        assert program.kernel("srv").batch_plan() == (None, "autorun kernel")
