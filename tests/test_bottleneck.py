"""Tests for the bottleneck diagnosis advisor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.bottleneck import diagnose, render_diagnosis
from repro.errors import ReproError
from repro.kernels.matmul import MatMulKernel, allocate_matmul_buffers
from repro.kernels.pointer_chase import build_chain
from repro.pipeline.kernel import PipelineConfig, SingleTaskKernel


class TestDiagnose:
    def test_memory_site_ranked_first_for_matmul(self, fabric):
        allocate_matmul_buffers(fabric, 4, 8, 4)
        engine = fabric.run_kernel(MatMulKernel(), {"rows_a": 4, "col_a": 8,
                                                    "col_b": 4})
        findings = diagnose(fabric, engine)
        assert findings[0].kind == "memory-site"
        assert findings[0].cost_cycles > 0

    def test_serialization_flagged_for_pointer_chase(self, fabric):
        fabric.memory.allocate("ptr", 64).fill(build_chain(64))
        fabric.memory.allocate("out", 1)

        class SteppedChase(SingleTaskKernel):
            def __init__(self):
                super().__init__(name="chase",
                                 pipeline=PipelineConfig(max_inflight=1))
                self._index = 0
            def iteration_space(self, args):
                return range(args["steps"])
            def body(self, ctx):
                index = self._index if ctx.iteration else 0
                self._index = yield ctx.load("ptr", index)

        engine = fabric.run_kernel(SteppedChase(), {"steps": 10})
        kinds = {finding.kind for finding in diagnose(fabric, engine)}
        assert "serialization" in kinds

    def test_issue_stall_flagged_for_shallow_pipeline(self, fabric):
        fabric.memory.allocate("src", 32).fill(range(32))
        fabric.memory.allocate("dst", 32)

        class Copy(SingleTaskKernel):
            def __init__(self):
                super().__init__(name="copy",
                                 pipeline=PipelineConfig(max_inflight=2))
            def iteration_space(self, args):
                return range(32)
            def body(self, ctx):
                value = yield ctx.load("src", ctx.iteration)
                yield ctx.store("dst", ctx.iteration, value)

        engine = fabric.run_kernel(Copy(), {})
        kinds = {finding.kind for finding in diagnose(fabric, engine)}
        assert "issue-stall" in kinds

    def test_channel_stalls_flagged(self, fabric):
        from repro.kernels.fir import run_fir
        run_fir(fabric, [1] * 8, np.arange(48), channel_depth=2,
                mac_cycles_per_tap=3)
        engine = next(e for e in fabric.engines
                      if e.kernel.name == "fir_reader")
        findings = diagnose(fabric, engine, top=10)
        assert any(finding.kind == "channel" for finding in findings)

    def test_incomplete_launch_rejected(self, fabric):
        allocate_matmul_buffers(fabric, 2, 2, 2)
        engine = fabric.launch(MatMulKernel(), {"rows_a": 2, "col_a": 2,
                                                "col_b": 2})
        with pytest.raises(ReproError):
            diagnose(fabric, engine)

    def test_render_ranked_and_readable(self, fabric):
        allocate_matmul_buffers(fabric, 3, 4, 3)
        engine = fabric.run_kernel(MatMulKernel(), {"rows_a": 3, "col_a": 4,
                                                    "col_b": 3})
        text = render_diagnosis(diagnose(fabric, engine))
        assert "advice:" in text
        assert "memory-site" in text

    def test_render_empty(self):
        assert "no significant" in render_diagnosis([])

    def test_top_limits_results(self, fabric):
        allocate_matmul_buffers(fabric, 3, 4, 3)
        engine = fabric.run_kernel(MatMulKernel(), {"rows_a": 3, "col_a": 4,
                                                    "col_b": 3})
        assert len(diagnose(fabric, engine, top=2)) <= 2
