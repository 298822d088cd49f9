"""Tests for OpenCL work-group barriers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import KernelBuildError, ProcessError
from repro.memory.local_memory import LocalMemory
from repro.pipeline.kernel import NDRangeKernel, PipelineConfig, SingleTaskKernel


class ReverseInGroup(NDRangeKernel):
    """Classic barrier kernel: stage into local memory, sync, read back
    reversed within the work-group."""

    def __init__(self, local_size, **kw):
        super().__init__(name="reverse", local_size=local_size, **kw)

    def global_size(self, args):
        return args["n"]

    def create_locals(self, fabric, compute_id):
        return {"stage": LocalMemory(fabric.sim, "stage", 64)}

    def body(self, ctx):
        gid = ctx.global_id
        local_size = self.local_size
        lid = gid % local_size
        group_base = gid - lid
        value = yield ctx.load("src", gid)
        yield ctx.store_local("stage", lid, value)
        yield ctx.barrier()
        partner = local_size - 1 - lid
        swapped = yield ctx.load_local("stage", partner)
        yield ctx.store("dst", group_base + lid, swapped)


class TestBarrierSemantics:
    def test_group_reversal_correct(self, fabric):
        n, local = 16, 4
        fabric.memory.allocate("src", n).fill(np.arange(n))
        dst = fabric.memory.allocate("dst", n)
        fabric.run_kernel(ReverseInGroup(local), {"n": n})
        expected = np.concatenate([np.arange(g * local, (g + 1) * local)[::-1]
                                   for g in range(n // local)])
        assert np.array_equal(dst.snapshot(), expected)

    def test_whole_launch_is_one_group_by_default(self, fabric):
        """local_size None: a single barrier synchronizes everything."""
        n = 6
        fabric.memory.allocate("src", n).fill(np.arange(n))
        dst = fabric.memory.allocate("dst", n)

        class WholeLaunch(NDRangeKernel):
            def __init__(self):
                super().__init__(name="whole")
            def global_size(self, args):
                return n
            def create_locals(self, fab, compute_id):
                return {"stage": LocalMemory(fab.sim, "stage", 16)}
            def body(self, ctx):
                gid = ctx.global_id
                value = yield ctx.load("src", gid)
                yield ctx.store_local("stage", gid, value)
                yield ctx.barrier()
                swapped = yield ctx.load_local("stage", n - 1 - gid)
                yield ctx.store("dst", gid, swapped)

        fabric.run_kernel(WholeLaunch(), {"n": n})
        assert np.array_equal(dst.snapshot(), np.arange(n)[::-1])

    def test_no_item_passes_before_all_arrive(self, fabric):
        arrivals = []
        releases = []

        class Probe(NDRangeKernel):
            def __init__(self):
                super().__init__(name="probe", local_size=4)
            def global_size(self, args):
                return 4
            def body(self, ctx):
                # Stagger arrival: higher gids arrive later.
                yield ctx.compute(ctx.global_id * 10)
                arrivals.append((ctx.global_id, ctx.now))
                yield ctx.barrier()
                releases.append((ctx.global_id, ctx.now))

        fabric.run_kernel(Probe(), {})
        last_arrival = max(cycle for _, cycle in arrivals)
        assert all(cycle > last_arrival for _, cycle in releases)
        release_cycles = {cycle for _, cycle in releases}
        assert len(release_cycles) == 1   # the whole group releases together

    def test_groups_independent(self, fabric):
        """One slow group must not hold up another."""
        releases = {}

        class TwoGroups(NDRangeKernel):
            def __init__(self):
                super().__init__(name="two", local_size=2)
            def global_size(self, args):
                return 4
            def body(self, ctx):
                if ctx.global_id >= 2:
                    yield ctx.compute(500)   # group 1 is slow
                yield ctx.barrier()
                releases[ctx.global_id] = ctx.now

        fabric.run_kernel(TwoGroups(), {})
        assert releases[0] < 100 and releases[1] < 100
        assert releases[2] >= 500 and releases[3] >= 500


class TestBarrierErrors:
    def test_single_task_barrier_rejected(self, fabric):
        class Bad(SingleTaskKernel):
            def iteration_space(self, args):
                return [0]
            def body(self, ctx):
                yield ctx.barrier()
        with pytest.raises(ProcessError, match="NDRange"):
            fabric.run_kernel(Bad(name="bad"), {})

    def test_group_larger_than_pipeline_rejected(self, fabric):
        fabric.memory.allocate("src", 8).fill(range(8))
        fabric.memory.allocate("dst", 8)
        kernel = ReverseInGroup(8, pipeline=PipelineConfig(max_inflight=2))
        with pytest.raises(ProcessError, match="rendezvous"):
            fabric.run_kernel(kernel, {"n": 8})

    def test_multi_cu_barrier_rejected(self, fabric):
        fabric.memory.allocate("src", 8).fill(range(8))
        fabric.memory.allocate("dst", 8)
        kernel = ReverseInGroup(4, num_compute_units=2)
        from repro.errors import SimulationError
        with pytest.raises((ProcessError, SimulationError),
                           match="multi-compute-unit|deadlock"):
            fabric.run_replicated(kernel, {"n": 8})

    def test_invalid_local_size_rejected(self):
        with pytest.raises(KernelBuildError):
            NDRangeKernel(local_size=0)
