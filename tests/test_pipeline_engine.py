"""Unit/integration tests for the pipeline engine and kernel model."""

from __future__ import annotations

import pytest

from repro.errors import KernelBuildError, KernelError, ProcessError
from repro.pipeline.engine import AutorunEngine, PipelineEngine
from repro.pipeline.fabric import Fabric
from repro.pipeline.kernel import (
    AutorunKernel,
    Kernel,
    NDRangeKernel,
    PipelineConfig,
    ResourceProfile,
    SingleTaskKernel,
)


class CopyKernel(SingleTaskKernel):
    """Copies src -> dst, one element per iteration."""

    def iteration_space(self, args):
        return range(args["n"])

    def body(self, ctx):
        value = yield ctx.load("src", ctx.iteration)
        yield ctx.store("dst", ctx.iteration, value + ctx.arg("bias"))


class TickKernel(AutorunKernel):
    """Counts cycles into a list (for autorun lifecycle tests)."""

    def __init__(self, **kw):
        super().__init__(name="tick", **kw)
        self.ticks = []

    def body(self, ctx):
        while True:
            self.ticks.append(ctx.now)
            yield ctx.cycle()


def _setup_copy(fabric, n=8, bias=0):
    src = fabric.memory.allocate("src", n)
    src.fill(range(n))
    dst = fabric.memory.allocate("dst", n)
    return src, dst


class TestPipelineConfigValidation:
    def test_ii_must_be_positive(self):
        with pytest.raises(KernelBuildError):
            PipelineConfig(ii=0)

    def test_inflight_must_be_positive(self):
        with pytest.raises(KernelBuildError):
            PipelineConfig(max_inflight=0)

    def test_num_compute_units_validated(self):
        with pytest.raises(KernelBuildError):
            SingleTaskKernel(num_compute_units=0)


class TestSingleTaskExecution:
    def test_copy_kernel_correct(self, fabric):
        src, dst = _setup_copy(fabric)
        fabric.run_kernel(CopyKernel(name="copy"), {"n": 8, "bias": 5})
        assert list(dst.snapshot()) == [value + 5 for value in range(8)]

    def test_stats_track_iterations(self, fabric):
        _setup_copy(fabric)
        engine = fabric.run_kernel(CopyKernel(name="copy"), {"n": 8, "bias": 0})
        assert engine.stats.iterations_issued == 8
        assert engine.stats.iterations_retired == 8
        assert engine.stats.total_cycles > 0

    def test_empty_iteration_space_completes(self, fabric):
        _setup_copy(fabric)
        engine = fabric.run_kernel(CopyKernel(name="copy"), {"n": 0, "bias": 0})
        assert engine.stats.iterations_issued == 0
        assert engine.completion.triggered

    def test_pipelining_beats_serial_execution(self, fabric):
        """II=1 pipelining must overlap memory latencies across iterations."""
        _setup_copy(fabric, n=8)
        pipelined = fabric.run_kernel(CopyKernel(name="copy"), {"n": 8, "bias": 0})
        serial_fabric = Fabric()
        _setup_copy(serial_fabric, n=8)
        serial = serial_fabric.run_kernel(
            CopyKernel(name="copy", pipeline=PipelineConfig(max_inflight=1)),
            {"n": 8, "bias": 0})
        assert pipelined.stats.total_cycles < serial.stats.total_cycles

    def test_ii_spacing_slows_issue(self, fabric):
        _setup_copy(fabric, n=4)
        fast = fabric.run_kernel(CopyKernel(name="copy"), {"n": 4, "bias": 0})
        slow_fabric = Fabric()
        _setup_copy(slow_fabric, n=4)
        slow = slow_fabric.run_kernel(
            CopyKernel(name="copy", pipeline=PipelineConfig(ii=50)),
            {"n": 4, "bias": 0})
        assert slow.stats.total_cycles > fast.stats.total_cycles

    def test_issue_stall_recorded_when_pipeline_full(self, fabric):
        _setup_copy(fabric, n=16)
        engine = fabric.run_kernel(
            CopyKernel(name="copy", pipeline=PipelineConfig(max_inflight=2)),
            {"n": 16, "bias": 0})
        assert engine.stats.issue_stall_cycles > 0

    def test_double_start_rejected(self, fabric):
        _setup_copy(fabric)
        engine = fabric.launch(CopyKernel(name="copy"), {"n": 1, "bias": 0})
        with pytest.raises(KernelError):
            engine.start()

    def test_reference_executor_rejected(self, fabric):
        # The one-generator-per-op executor is a test oracle
        # (tests/executor_oracle.py), not a launch option.
        _setup_copy(fabric)
        with pytest.raises(KernelBuildError, match="'fast' or 'batch'"):
            fabric.run_kernel(CopyKernel(name="copy"), {"n": 1, "bias": 0},
                              executor="reference")
        assert fabric.engines == [] and fabric.sim.now == 0

    def test_kernel_exception_surfaces(self, fabric):
        class Exploding(SingleTaskKernel):
            def iteration_space(self, args):
                return [0]
            def body(self, ctx):
                yield ctx.compute(1)
                raise ValueError("bad kernel")
        with pytest.raises(ProcessError, match="bad kernel"):
            fabric.run_kernel(Exploding(name="boom"), {})

    def test_yielding_non_op_is_build_error(self, fabric):
        class BadYield(SingleTaskKernel):
            def iteration_space(self, args):
                return [0]
            def body(self, ctx):
                yield 42
        with pytest.raises(ProcessError, match="must yield Op"):
            fabric.run_kernel(BadYield(name="bad"), {})

    def test_body_not_implemented(self, fabric):
        kernel = SingleTaskKernel(name="abstract")
        with pytest.raises((NotImplementedError, ProcessError)):
            fabric.run_kernel(kernel, {})


class TestSiteDerivation:
    def test_one_source_line_one_lsu(self, fabric):
        _setup_copy(fabric, n=6)
        engine = fabric.run_kernel(CopyKernel(name="copy"), {"n": 6, "bias": 0})
        loads = [(site, lsu) for (site, kind), lsu in engine.lsus.items()
                 if kind == "load"]
        assert len(loads) == 1               # one static load site
        assert loads[0][1].stats.completed == 6

    def test_explicit_site_label_used(self, fabric):
        class Labelled(SingleTaskKernel):
            def iteration_space(self, args):
                return [0]
            def body(self, ctx):
                yield ctx.load("src", 0, site="my_site")
        _setup_copy(fabric)
        engine = fabric.run_kernel(Labelled(name="labelled"), {})
        assert ("my_site", "load") in engine.lsus


class TestNDRange:
    def test_global_size_required(self, fabric):
        kernel = NDRangeKernel(name="abstract")
        with pytest.raises(NotImplementedError):
            list(kernel.iteration_space({}))

    def test_bad_policy_rejected(self):
        with pytest.raises(KernelBuildError):
            NDRangeKernel(policy="bogus")

    def test_workitem_interleaving_observable(self, fabric):
        issue_order = []
        class Probe(NDRangeKernel):
            def global_size(self, args):
                return 3
            def trip_count(self, args):
                return 2
            def body(self, ctx):
                issue_order.append(ctx.iteration)
                yield ctx.compute(1)
        fabric.run_kernel(Probe(name="probe"), {})
        assert issue_order == [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]

    def test_global_id_property(self, fabric):
        gids = []
        class Probe(NDRangeKernel):
            def global_size(self, args):
                return 4
            def body(self, ctx):
                gids.append(ctx.global_id)
                yield ctx.compute(1)
        fabric.run_kernel(Probe(name="probe"), {})
        assert sorted(gids) == [0, 1, 2, 3]


class TestAutorun:
    def test_autorun_cannot_be_enqueued(self, fabric):
        with pytest.raises(KernelBuildError):
            PipelineEngine(fabric, TickKernel())

    def test_pipeline_kernel_cannot_be_autorun(self, fabric):
        with pytest.raises(KernelBuildError):
            AutorunEngine(fabric, CopyKernel(name="copy"))

    def test_ticks_every_cycle(self, fabric):
        kernel = TickKernel()
        fabric.add_autorun(kernel)
        fabric.advance(5)
        assert kernel.ticks[:5] == [0, 1, 2, 3, 4]

    def test_launch_skew_delays_start(self, fabric):
        kernel = TickKernel()
        kernel.launch_skew = 3
        fabric.add_autorun(kernel)
        fabric.advance(6)
        assert kernel.ticks[0] == 3

    def test_stop_halts_units(self, fabric):
        kernel = TickKernel()
        engine = fabric.add_autorun(kernel)
        fabric.advance(3)
        engine.stop()
        fabric.advance(5)
        count_after_stop = len(kernel.ticks)
        fabric.advance(5)
        assert len(kernel.ticks) == count_after_stop

    def test_replication_gives_distinct_compute_ids(self, fabric):
        seen = []
        class IdProbe(AutorunKernel):
            def __init__(self):
                super().__init__(name="probe", num_compute_units=3)
            def body(self, ctx):
                seen.append(ctx.compute_id)
                while True:
                    yield ctx.cycle()
        fabric.add_autorun(IdProbe())
        fabric.advance(2)
        assert sorted(seen) == [0, 1, 2]

    def test_autorun_has_no_iteration_space(self):
        with pytest.raises(KernelBuildError):
            list(TickKernel().iteration_space({}))

    def test_phase_validation(self):
        with pytest.raises(KernelBuildError):
            AutorunKernel(phase="middle")


class TestFabric:
    def test_deadlock_detected(self, fabric):
        channel = fabric.channels.declare("never_written", depth=1)
        class Blocked(SingleTaskKernel):
            def iteration_space(self, args):
                return [0]
            def body(self, ctx):
                yield ctx.read_channel(channel)
        from repro.errors import SimulationError
        with pytest.raises(SimulationError, match="deadlock"):
            fabric.run_kernel(Blocked(name="blocked"), {})

    def test_collecting_abandoned_blocked_launch_schedules_nothing(
            self, monkeypatch):
        # Garbage collection closes the blocked iteration's generator; the
        # launch must neither fail nor retire on the dead simulator.
        import gc

        from repro.sim.core import Simulator

        def abandon():
            fabric = Fabric()
            channel = fabric.channels.declare("never_written", depth=1)

            class Blocked(SingleTaskKernel):
                def iteration_space(self, args):
                    return [0]

                def body(self, ctx):
                    yield ctx.read_channel(channel)

            fabric.launch(Blocked(name="blocked"), {})
            fabric.advance(5)

        abandon()
        count = [0]

        def counting(original):
            def wrapper(sim, *args, **kwargs):
                count[0] += 1
                original(sim, *args, **kwargs)
            return wrapper

        for name in ("_schedule", "_schedule_front"):
            monkeypatch.setattr(Simulator, name,
                                counting(getattr(Simulator, name)))
        gc.collect()
        assert count[0] == 0

    def test_advance_negative_rejected(self, fabric):
        with pytest.raises(KernelError):
            fabric.advance(-1)

    def test_local_memory_lookup_error(self, fabric):
        class NoLocals(SingleTaskKernel):
            def iteration_space(self, args):
                return [0]
            def body(self, ctx):
                yield ctx.load_local("ghost", 0)
        with pytest.raises(ProcessError, match="no local memory"):
            fabric.run_kernel(NoLocals(name="nl"), {})

    def test_create_locals_used_by_context(self, fabric):
        from repro.memory.local_memory import LocalMemory
        results = []
        class WithLocal(SingleTaskKernel):
            def create_locals(self, fab, compute_id):
                return {"scratch": LocalMemory(fab.sim, "scratch", 16)}
            def iteration_space(self, args):
                return [0]
            def body(self, ctx):
                yield ctx.store_local("scratch", 2, 7)
                value = yield ctx.load_local("scratch", 2)
                results.append(value)
        fabric.run_kernel(WithLocal(name="wl"), {})
        assert results == [7]


class TestResourceProfileArithmetic:
    def test_merged_sums_counters(self):
        a = ResourceProfile(load_sites=1, adders=2, intrinsic_path_ns=0.5)
        b = ResourceProfile(load_sites=2, adders=1, intrinsic_path_ns=0.9)
        merged = a.merged(b)
        assert merged.load_sites == 3
        assert merged.adders == 3
        assert merged.intrinsic_path_ns == 0.9  # max, not sum

    def test_scaled_multiplies_counters(self):
        profile = ResourceProfile(load_sites=2, local_memory_bits=100,
                                  intrinsic_path_ns=0.3)
        scaled = profile.scaled(4)
        assert scaled.load_sites == 8
        assert scaled.local_memory_bits == 400
        assert scaled.intrinsic_path_ns == 0.3  # path does not replicate
