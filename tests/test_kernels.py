"""Tests for the evaluation kernels (functional correctness + profiles)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.sequence import SequenceService
from repro.core.timestamp import HDLTimestampService, PersistentTimestampService
from repro.errors import KernelArgumentError
from repro.kernels.dot_product import DotProductKernel
from repro.kernels.matmul import (
    MatMulKernel,
    allocate_matmul_buffers,
    expected_matmul,
)
from repro.kernels.matvec import (
    MatVecNDRange,
    MatVecSingleTask,
    allocate_matvec_buffers,
    expected_matvec,
)
from repro.kernels.pointer_chase import PointerChaseKernel, build_chain
from repro.kernels.vecadd import VecAddKernel
from repro.pipeline.fabric import Fabric
from tests.timer_oracle import EagerTimestampService

#: The product's analytic timer and its per-cycle oracle.
SERVICES = {"lazy": PersistentTimestampService,
            "eager": EagerTimestampService}


class TestVecAdd:
    def test_correct(self, fabric):
        n = 16
        fabric.memory.allocate("a", n).fill(np.arange(n))
        fabric.memory.allocate("b", n).fill(np.arange(n) * 2)
        c = fabric.memory.allocate("c", n)
        fabric.run_kernel(VecAddKernel(), {"n": n})
        assert np.array_equal(c.snapshot(), np.arange(n) * 3)


class TestDotProduct:
    def _run(self, fabric, mode=None, n=12):
        persistent = hdl = None
        if mode == "persistent":
            persistent = PersistentTimestampService(fabric, sites=2)
        elif mode == "hdl":
            hdl = HDLTimestampService(fabric)
        kernel = DotProductKernel(timestamps=mode, persistent=persistent,
                                  hdl=hdl)
        fabric.memory.allocate("x", n).fill(np.arange(n))
        fabric.memory.allocate("y", n).fill(np.arange(n) + 1)
        z = fabric.memory.allocate("z", 1)
        fabric.run_kernel(kernel, {"n": n})
        expected = int((np.arange(n) * (np.arange(n) + 1)).sum())
        return kernel, int(z.read(0)), expected

    def test_uninstrumented_correct(self, fabric):
        _, result, expected = self._run(fabric)
        assert result == expected

    def test_persistent_timestamps_measure_positive_latency(self, fabric):
        kernel, result, expected = self._run(fabric, "persistent")
        assert result == expected
        start, end = kernel.measurements[0]
        assert end > start

    def test_hdl_timestamps_measure_positive_latency(self, fabric):
        kernel, result, expected = self._run(fabric, "hdl")
        start, end = kernel.measurements[0]
        assert end > start

    def test_missing_service_rejected(self):
        with pytest.raises(KernelArgumentError):
            DotProductKernel(timestamps="hdl")
        with pytest.raises(KernelArgumentError):
            DotProductKernel(timestamps="persistent")
        with pytest.raises(KernelArgumentError):
            DotProductKernel(timestamps="sundial")


class TestMatVec:
    @pytest.mark.parametrize("cls", [MatVecSingleTask, MatVecNDRange])
    def test_uninstrumented_correct(self, cls):
        fabric = Fabric()
        N, num = 5, 8
        allocate_matvec_buffers(fabric, N, num, instrumented=False)
        fabric.run_kernel(cls(), {"N": N, "num": num})
        z = fabric.memory.buffer("z").snapshot()
        assert np.array_equal(z, expected_matvec(N, num))

    @pytest.mark.parametrize("cls", [MatVecSingleTask, MatVecNDRange])
    def test_instrumented_still_correct(self, cls):
        """Instrumentation must not perturb results (the non-intrusiveness
        requirement of §4)."""
        fabric = Fabric()
        N, num, probe = 4, 6, 3
        seq = SequenceService(fabric)
        ts = PersistentTimestampService(fabric, sites=1)
        allocate_matvec_buffers(fabric, N, num, probe_i=probe)
        fabric.run_kernel(cls(seq, ts, probe_i=probe), {"N": N, "num": num})
        z = fabric.memory.buffer("z").snapshot()
        assert np.array_equal(z, expected_matvec(N, num))

    def test_half_instrumentation_rejected(self, fabric):
        seq = SequenceService(fabric)
        with pytest.raises(KernelArgumentError):
            MatVecSingleTask(sequence=seq, timestamps=None)

    def test_info_buffers_fully_populated(self, fabric):
        N, num, probe = 4, 6, 3
        seq = SequenceService(fabric)
        ts = PersistentTimestampService(fabric, sites=1)
        buffers = allocate_matvec_buffers(fabric, N, num, probe_i=probe)
        fabric.run_kernel(MatVecSingleTask(seq, ts, probe_i=probe),
                          {"N": N, "num": num})
        info2 = buffers["info2"].snapshot()
        info3 = buffers["info3"].snapshot()
        pairs = sorted((int(info2[s]), int(info3[s]))
                       for s in range(1, N * probe + 1))
        assert pairs == [(k, i) for k in range(N) for i in range(probe)]


class TestMatVecSites:
    """The matvec bodies name their LSU sites explicitly, with exactly the
    names the engine derived from the yields' source lines before they
    did (``<kernel>.cu0:<Op>@L<line>``), so per-site reports and LSU keys
    are unchanged and no Fig. 2 op pays for deriving its site."""

    SUFFIXES = [("Load@L40", "load"), ("Load@L41", "load"),
                ("Store@L46", "store"), ("Store@L47", "store"),
                ("Store@L48", "store"), ("Store@L51", "store")]

    # A stepping timestamp service (the per-cycle oracle) keeps the
    # simulator busy, so the launch is stepped instead of replayed.
    @pytest.mark.parametrize("mode", ["lazy", "eager"])
    @pytest.mark.parametrize("cls,name", [
        (MatVecSingleTask, "matvec_single_task"),
        (MatVecNDRange, "matvec_ndrange")])
    def test_sites_keep_their_derived_names(self, monkeypatch, cls, name,
                                            mode):
        from repro.pipeline.engine import _OpExecutor

        def refuse(*args):
            raise AssertionError("matvec site derived from a frame")

        monkeypatch.setattr(_OpExecutor, "_derive_site", refuse)
        fabric = Fabric()
        kernel = cls(SequenceService(fabric),
                     SERVICES[mode](fabric),
                     probe_i=2)
        allocate_matvec_buffers(fabric, 2, 3, probe_i=2)
        engine = fabric.run_kernel(kernel, {"N": 2, "num": 3})
        assert sorted(engine.lsus) == [
            (f"{name}.cu0:{suffix}", kind) for suffix, kind in self.SUFFIXES]


class TestMatMul:
    def test_uninstrumented_correct(self, fabric):
        buffers = allocate_matmul_buffers(fabric, 3, 5, 4)
        fabric.run_kernel(MatMulKernel(), {"rows_a": 3, "col_a": 5,
                                           "col_b": 4})
        result = buffers["data_c"].snapshot().reshape(3, 4)
        assert np.array_equal(result, expected_matmul(3, 5, 4))

    def test_custom_inputs(self, fabric):
        a = np.ones(6, dtype=np.int64)
        b = np.full(6, 2, dtype=np.int64)
        allocate_matmul_buffers(fabric, 2, 3, 2, a=a, b=b)
        fabric.run_kernel(MatMulKernel(), {"rows_a": 2, "col_a": 3,
                                           "col_b": 2})
        result = fabric.memory.buffer("data_c").snapshot()
        assert list(result) == [6, 6, 6, 6]

    def test_profile_grows_with_instrumentation(self, fabric):
        from repro.core.stall_monitor import StallMonitor
        base = MatMulKernel().resource_profile()
        monitor = StallMonitor(fabric, sites=2, depth=8)
        instrumented = MatMulKernel(stall_monitor=monitor).resource_profile()
        assert instrumented.channel_endpoints > base.channel_endpoints


class TestPointerChase:
    def test_chain_traversal_correct(self, fabric):
        size, steps = 16, 5
        chain = build_chain(size, stride=7)
        fabric.memory.allocate("ptr", size).fill(chain)
        out = fabric.memory.allocate("out", 1)
        fabric.run_kernel(PointerChaseKernel(), {"start": 0, "steps": steps})
        expected = 0
        for _ in range(steps):
            expected = chain[expected]
        assert out.read(0) == expected

    def test_serialized_execution_time_scales_with_steps(self):
        times = []
        for steps in (4, 8):
            fabric = Fabric()
            fabric.memory.allocate("ptr", 64).fill(build_chain(64))
            fabric.memory.allocate("out", 1)
            engine = fabric.run_kernel(PointerChaseKernel(),
                                       {"start": 0, "steps": steps})
            times.append(engine.stats.total_cycles)
        assert times[1] > times[0] * 1.5  # near-linear: no pipelining possible

    def test_hdl_stamps_reveal_per_step_latency(self, fabric):
        hdl = HDLTimestampService(fabric)
        kernel = PointerChaseKernel(timestamps="hdl", hdl=hdl)
        fabric.memory.allocate("ptr", 32).fill(build_chain(32))
        fabric.memory.allocate("out", 1)
        fabric.run_kernel(kernel, {"start": 0, "steps": 6})
        gaps = [b - a for a, b in zip(kernel.step_stamps,
                                      kernel.step_stamps[1:])]
        assert all(gap > 0 for gap in gaps)

    def test_chain_generators(self):
        stride_chain = build_chain(10, stride=3)
        assert sorted(stride_chain) == list(range(10))
        random_chain = build_chain(10, seed=7)
        assert sorted(random_chain) == list(range(10))
        # A permutation cycle visits every element exactly once.
        seen, index = set(), 0
        for _ in range(10):
            index = random_chain[index]
            seen.add(int(index))
        assert len(seen) == 10

    def test_chain_validation(self):
        with pytest.raises(KernelArgumentError):
            build_chain(1)
        with pytest.raises(KernelArgumentError):
            build_chain(10, stride=5)  # not coprime
