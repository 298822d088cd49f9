"""Pin the batch engine's fallback machinery: every bail/abort reason,
the ``engine.batch`` stats object, and the batch trace records.

The equivalence property (tests/test_prop_batch_equivalence.py) proves
fallbacks are *correct*; this module proves they happen for the *right
reason* — a silent fallback on a convergent kernel would erase the whole
point of the batch tier.

Rows that disagree at a data-dependent ``if`` or loop test stay in the
table, and that is exact: Phase A values depend only on a row's own
slots and on plan-time memory (a load of an element this launch wrote
aborts as read-after-write, a store to an element it read aborts as
write-after-read), so any read/write overlap on one element between two
rows aborts whichever arm Phase A runs first; and the order of stores to
one element is set by Phase B's issue order, not by Phase A. A
``break``, ``continue`` or ``return`` taken by only some rows stays in
the table too: those rows leave the rest of their loop or body. What
falls back is a hazard, an out-of-range index, or a column operation
that cannot be exact (``tests/test_prop_batch_columns.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import AddressError, KernelBuildError, ProcessError
from repro.frontend import compile_source, program_cache_clear
from repro.kernels.vecadd import VecAddKernel
from repro.pipeline.engine import PipelineEngine
from repro.pipeline.fabric import Fabric
from repro.pipeline.ops import ALL_OPS
from repro.pipeline.replay import LaunchReplay
from repro.sim.core import Simulator
from repro.trace import TraceHub
from tests.executor_oracle import run_kernel

_CONVERGENT = """
__kernel void conv(__global int* in, __global int* out, int n) {
    int gid = get_global_id(0);
    out[gid] = in[gid] * 2 + n;
}
"""


#: Rows 4.. return early: Phase A clears them from the rest of the body.
_PARTIAL_RETURN = """
__kernel void k(__global int* in, __global int* out, int n) {
    int gid = get_global_id(0);
    int x = in[gid];
    if (x > 4) {
        out[gid] = x;
        return;
    }
    out[gid] = -x;
}
"""


class _ReplayedVecAdd(VecAddKernel):
    replayable = True


def _run_source(source, kernel, n=8, executor="batch", fabric=None,
                extra_args=None):
    fabric = fabric or Fabric()
    program = compile_source(fabric, source)
    fabric.memory.allocate("IN", n).fill(np.arange(n) + 1)
    fabric.memory.allocate("OUT", n)
    args = {"in": "IN", "out": "OUT", "n": n, "__global_size": n}
    if extra_args:
        args.update(extra_args)
    engine = run_kernel(fabric, program.kernel(kernel), args,
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

    def test_every_executor_name_takes_the_table(self):
        """``executor`` selects nothing: a launch without it and launches
        naming either tier all run in table mode, identically."""
        seen = []
        for options in ({}, {"executor": "fast"}, {"executor": "batch"}):
            program_cache_clear()
            fabric = Fabric()
            program = compile_source(fabric, _CONVERGENT)
            fabric.memory.allocate("IN", 8).fill(np.arange(8) + 1)
            fabric.memory.allocate("OUT", 8)
            engine = fabric.run_kernel(program.kernel("conv"), {
                "in": "IN", "out": "OUT", "n": 8, "__global_size": 8},
                **options)
            assert engine.batch.mode == "table"
            assert engine.stepped_reason is None
            seen.append((engine.batch, engine.stats, fabric.sim.now,
                         list(fabric.memory.buffer("OUT").snapshot()),
                         list(engine.lsus)))
        assert seen[0] == seen[1] == seen[2]

    @pytest.mark.parametrize("case", ["table", "phase-a-abort", "python-ir"])
    def test_one_tier_decision_reads_the_gate_once(self, monkeypatch, case):
        """A table launch, a launch whose Phase A aborts and a Python-IR
        launch each read the exclusivity gate exactly once."""
        reads = []
        gate = Simulator.exclusive_reason

        def counting(sim):
            reads.append(sim.now)
            return gate(sim)

        monkeypatch.setattr(Simulator, "exclusive_reason", counting)
        program_cache_clear()
        if case == "python-ir":
            fabric = Fabric()
            for name in ("a", "b", "c"):
                fabric.memory.allocate(name, 8)
            engine = fabric.run_kernel(_ReplayedVecAdd(), {"n": 8})
        elif case == "table":
            fabric, engine = _run_source(_CONVERGENT, "conv")
        else:
            fabric, engine = _run_source(_READ_AFTER_WRITE, "k")
        assert (engine.batch.mode == "table") == (case == "table")
        assert engine.stepped_reason is None
        assert reads == [0]

    def test_unknown_executor_is_rejected(self):
        with pytest.raises(KernelBuildError, match="unknown executor"):
            Fabric().launch(VecAddKernel(), {"n": 1}, executor="table")


_DIVERGENT_BRANCH = """
__kernel void k(__global int* in, __global int* out, int n) {
    int gid = get_global_id(0);
    if (gid % 2 == 0) {
        out[gid] = in[gid];
    } else {
        out[gid] = -in[gid];
    }
}
"""

#: Phase A aborts with a read-after-write hazard.
_READ_AFTER_WRITE = """
__kernel void k(__global int* in, __global int* out, int n) {
    int gid = get_global_id(0);
    out[gid] = in[gid] + 1;
    int check = out[gid];
    out[gid] = check * 2;
}
"""

_DIVERGENT_TRIP_COUNT = """
__kernel void k(__global int* in, __global int* out, int n) {
    int gid = get_global_id(0);
    int sum = 0;
    for (int i = 0; i < (gid & 3); i++) {
        sum += in[(gid + i) % n];
    }
    out[gid] = sum;
}
"""


class TestDivergentTable:
    """Rows that disagree at a branch or a loop test stay in the table,
    equal to the reference executor."""

    def _assert_matches_reference(self, source, fabric, engine, n):
        program_cache_clear()
        ref_fabric, ref_engine = _run_source(source, "k", n=n,
                                             executor="reference")
        assert fabric.sim.now == ref_fabric.sim.now
        assert engine.stats.iteration_trace == \
            ref_engine.stats.iteration_trace
        assert list(fabric.memory.buffer("OUT").snapshot()) == \
            list(ref_fabric.memory.buffer("OUT").snapshot())
        # LSUs are registered in first-issue order, as stepping does.
        assert list(engine.lsus) == list(ref_engine.lsus)

    def test_divergent_branch_runs_in_table_mode(self):
        program_cache_clear()
        hub = TraceHub()
        fabric, engine = _run_source(_DIVERGENT_BRANCH, "k",
                                     fabric=Fabric(trace=hub))
        outcome = engine.batch
        assert outcome.mode == "table"
        assert outcome.reason == ""
        assert outcome.rows == 8
        assert outcome.divergence == 0
        assert hub.count("batch.divergence") == 0
        assert list(fabric.memory.buffer("OUT").snapshot()) == \
            [(i + 1) if i % 2 == 0 else -(i + 1) for i in range(8)]
        self._assert_matches_reference(_DIVERGENT_BRANCH, fabric, engine, 8)

    def test_divergent_trip_count_runs_in_table_mode(self):
        program_cache_clear()
        fabric, engine = _run_source(_DIVERGENT_TRIP_COUNT, "k", n=12)
        assert engine.batch.mode == "table"
        assert engine.batch.divergence == 0
        assert list(fabric.memory.buffer("OUT").snapshot()) == [
            sum((gid + i) % 12 + 1 for i in range(gid & 3))
            for gid in range(12)]
        self._assert_matches_reference(_DIVERGENT_TRIP_COUNT, fabric,
                                       engine, 12)

    def _assert_table(self, source, n=8):
        program_cache_clear()
        hub = TraceHub()
        fabric, engine = _run_source(source, "k", n=n,
                                     fabric=Fabric(trace=hub))
        outcome = engine.batch
        assert (outcome.mode, outcome.reason, outcome.divergence) == \
            ("table", "", 0)
        assert hub.count("batch.divergence") == 0
        self._assert_matches_reference(source, fabric, engine, n)
        return fabric

    def test_partial_return_stays_in_table(self):
        """Rows 4.. return early and skip the store after the ``if``."""
        fabric = self._assert_table(_PARTIAL_RETURN)
        assert list(fabric.memory.buffer("OUT").snapshot()) == \
            [-1, -2, -3, -4, 5, 6, 7, 8]

    def test_bounds_guard_return_stays_in_table(self):
        """The common ``if (gid >= n) return;`` guard over a launch wider
        than the buffers."""
        source = """
        __kernel void k(__global int* in, __global int* out, int n) {
            int gid = get_global_id(0);
            if (gid >= 5) return;
            out[gid] = in[gid] * 3;
        }
        """
        fabric = self._assert_table(source)
        assert list(fabric.memory.buffer("OUT").snapshot()) == \
            [3, 6, 9, 12, 15, 0, 0, 0]

    def test_partial_break_stays_in_table(self):
        """Row ``gid`` breaks out of the loop once an element exceeds it;
        the others keep looping."""
        source = """
        __kernel void k(__global int* in, __global int* out, int n) {
            int gid = get_global_id(0);
            int sum = 0;
            for (int i = 0; i < n; i++) {
                int x = in[i];
                if (x > gid) {
                    break;
                }
                sum += x;
            }
            out[gid] = sum;
        }
        """
        fabric = self._assert_table(source)
        assert list(fabric.memory.buffer("OUT").snapshot()) == \
            [gid * (gid + 1) // 2 for gid in range(8)]

    def test_partial_continue_stays_in_table(self):
        """Rows that ``continue`` skip the rest of the body and rejoin
        at the loop's step."""
        source = """
        __kernel void k(__global int* in, __global int* out, int n) {
            int gid = get_global_id(0);
            int sum = 0;
            for (int i = 0; i < 4; i++) {
                if ((i + gid) % 3 == 0) {
                    continue;
                }
                sum += in[(gid + i) % n];
            }
            out[gid] = sum;
        }
        """
        fabric = self._assert_table(source)
        assert list(fabric.memory.buffer("OUT").snapshot()) == [
            sum((gid + i) % 8 + 1 for i in range(4) if (i + gid) % 3)
            for gid in range(8)]

    def test_return_by_every_row_still_looping_stays_in_table(self):
        """Rows 2.. return inside the loop; rows 0 and 1 left it earlier
        and go on to the store after it."""
        source = """
        __kernel void k(__global int* in, __global int* out, int n) {
            int gid = get_global_id(0);
            for (int i = 0; i < gid; i++) {
                int x = in[i];
                if (i == 1) {
                    out[gid] = x;
                    return;
                }
            }
            out[gid] = -gid;
        }
        """
        fabric = self._assert_table(source)
        assert list(fabric.memory.buffer("OUT").snapshot()) == \
            [0, -1] + [2] * 6


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
        """A Python-IR kernel has no plan compiler: every launch skips
        the table and writes no ``batch.*`` trace row."""
        for options in ({}, {"executor": "fast"}, {"executor": "batch"}):
            hub = TraceHub()
            fabric = Fabric(trace=hub)
            for name in ("a", "b", "c"):
                fabric.memory.allocate(name, 8).fill(np.arange(8))
            engine = fabric.run_kernel(VecAddKernel(), {"n": 8}, **options)
            assert engine.batch.mode == "fallback"
            assert engine.batch.reason == \
                "Python-IR kernel (no op-stream plan)"
            assert engine.stepped_reason == "kernel is not replayable"
            assert hub.count("batch.launch") == 0
            assert hub.count("batch.divergence") == 0
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

    @pytest.mark.parametrize("read_first,batch_reason", [
        (True, "channel operation"), (False, "work-group barrier")])
    def test_each_tier_names_its_first_blocker(self, read_first,
                                               batch_reason):
        """One scan finds each tier's first blocker: a blocking channel
        read keeps a launch out of the table but not off the replay,
        where the barrier after it is what blocks."""
        program_cache_clear()
        read = "int x = read_channel_altera(c);"
        barrier = "barrier(CLK_GLOBAL_MEM_FENCE);"
        first, second = (read, barrier) if read_first else (barrier, read)
        source = f"""
        channel int c __attribute__((depth(8)));
        __kernel void fill(int n) {{
            for (int i = 0; i < n; i++) {{
                write_channel_altera(c, i * 3);
            }}
        }}
        __kernel void k(__global int* in, __global int* out, int n) {{
            int gid = get_global_id(0);
            {first}
            {second}
            out[gid] = x + in[gid];
        }}
        """
        fabric = Fabric()
        program = compile_source(fabric, source)
        fabric.run_kernel(program.kernel("fill"), {"n": 8})
        fabric.enable_tracing()
        fabric.memory.allocate("IN", 8).fill(np.arange(8) + 1)
        fabric.memory.allocate("OUT", 8)
        engine = fabric.run_kernel(program.kernel("k"), {
            "in": "IN", "out": "OUT", "n": 8, "__global_size": 8})
        self._assert_static_fallback(fabric, engine, batch_reason)
        assert engine.stepped_reason == "work-group barrier"
        assert list(fabric.memory.buffer("OUT").snapshot()) == \
            [i * 3 + i + 1 for i in range(8)]

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

    def test_hazard_after_a_split_keeps_stepping_lsu_order(self):
        """Phase A registered the loop's LSUs before aborting; the
        stepped re-run registers each at its first issue instead."""
        program_cache_clear()
        source = """
        __kernel void k(__global int* in, __global int* out, int n) {
            int gid = get_global_id(0);
            for (int i = 0; i < gid; i++) {
                out[0] += 1;
            }
            out[gid] = gid;
        }
        """
        fabric, engine = _run_source(source, "k", fabric=Fabric(trace=TraceHub()))
        self._assert_divergent_fallback(fabric, engine,
                                        "write-after-read hazard")
        program_cache_clear()
        ref_fabric, ref_engine = _run_source(source, "k",
                                             executor="reference")
        assert list(engine.lsus) == list(ref_engine.lsus)
        assert list(fabric.memory.buffer("OUT").snapshot()) == \
            list(ref_fabric.memory.buffer("OUT").snapshot())

    def test_read_after_write_hazard_falls_back(self):
        program_cache_clear()
        fabric, engine = _run_source(_READ_AFTER_WRITE, "k",
                                     fabric=Fabric(trace=TraceHub()))
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

    def test_interrupt_in_phase_a_propagates_without_a_fallback(
            self, monkeypatch):
        """A KeyboardInterrupt raised by a plan closure is no divergence:
        it reaches the caller as itself, with no abort record and no run
        on the next tier."""
        program_cache_clear()
        fabric = Fabric(trace=TraceHub())
        kernel = compile_source(fabric, _CONVERGENT).kernel("conv")
        plan, _ = kernel.batch_plan()

        def interrupted(frame, ctx):
            raise KeyboardInterrupt

        monkeypatch.setattr(
            next(node for node in plan.nodes if node.kind == 0), "fn",
            interrupted)
        next_tier = []
        monkeypatch.setattr(PipelineEngine, "_launch_tags",
                            lambda self, space: next_tier.append(space))
        monkeypatch.setattr(LaunchReplay, "run_bodies",
                            lambda self, space: next_tier.append(space))
        fabric.memory.allocate("IN", 8).fill(np.arange(8) + 1)
        fabric.memory.allocate("OUT", 8)
        args = {"in": "IN", "out": "OUT", "n": 8, "__global_size": 8}
        with pytest.raises(KeyboardInterrupt):
            fabric.run_kernel(kernel, args)
        assert next_tier == []
        assert fabric.trace.count("batch.divergence") == 0
        assert fabric.trace.count("batch.launch") == 0
        assert list(fabric.memory.buffer("OUT").snapshot()) == [0] * 8


class _InterruptedVecAdd(VecAddKernel):
    """Raises KeyboardInterrupt in work-item 3's body, after a load."""

    def body(self, ctx):
        gid, _ = ctx.iteration
        value = yield ctx.load("a", gid)
        if gid == 3:
            raise KeyboardInterrupt
        yield ctx.store("c", gid, value)


class _ReplayedInterruptedVecAdd(_InterruptedVecAdd):
    replayable = True


class TestKeyboardInterrupt:
    """A Ctrl-C in a kernel body is no launch failure or process crash:
    it reaches the caller of ``Fabric.run_kernel`` as itself."""

    @pytest.mark.parametrize("kernel_class,stepped_reason", [
        (_InterruptedVecAdd, "kernel is not replayable"),
        (_ReplayedInterruptedVecAdd, None)])
    def test_interrupt_in_a_body_propagates(self, kernel_class,
                                            stepped_reason):
        fabric = Fabric()
        for name in ("a", "c"):
            fabric.memory.allocate(name, 8).fill(np.arange(8))
        kernel = kernel_class()
        with pytest.raises(KeyboardInterrupt):
            fabric.run_kernel(kernel, {"n": 8})
        engine, = fabric.engines
        assert engine.stepped_reason == stepped_reason
        assert engine._failure is None


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
        # Static bail: tier_scan names the blocker up front.
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
