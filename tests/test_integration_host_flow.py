"""End-to-end integration through the host API: the paper's workflow as a
user would actually drive it — context, queue, source compilation,
instrumentation, readout, and analysis in one flow."""

from __future__ import annotations

import numpy as np

from repro.analysis.order import classify_order, order_records
from repro.core.sequence import SequenceService
from repro.core.stall_monitor import StallMonitor
from repro.core.timestamp import PersistentTimestampService
from repro.host import CommandQueue, Context, Program
from repro.kernels.matvec import MatVecNDRange, expected_matvec


class TestFigure2ThroughHostAPI:
    def test_full_flow(self):
        context = Context()
        queue = CommandQueue(context)
        n_rows, num, probe = 6, 12, 4

        # Device programming: instrumentation services start as autorun.
        sequence = SequenceService(context.fabric)
        timestamps = PersistentTimestampService(context.fabric, sites=1)
        kernel = MatVecNDRange(sequence, timestamps, probe_i=probe)
        program = Program(context, [kernel], name="fig2_image")

        # Buffers through the host API.
        context.create_buffer("x", n_rows * num).write(
            np.arange(n_rows * num))
        context.create_buffer("y", num).write(np.arange(num))
        context.create_buffer("z", n_rows)
        for name in ("info1", "info2", "info3"):
            context.create_buffer(name, n_rows * probe + 1)

        event = queue.enqueue_kernel(program.kernel("matvec_ndrange"),
                                     {"N": n_rows, "num": num})
        queue.finish()

        # Results + profiling info through the host API.
        assert event.profiling_info()["duration"] > 0
        assert np.array_equal(context.buffer("z").read(),
                              expected_matvec(n_rows, num))
        records = order_records(context.buffer("info1").read(),
                                context.buffer("info2").read(),
                                context.buffer("info3").read(),
                                count=n_rows * probe)
        assert classify_order(records) == "interleaved"

    def test_source_compiled_kernel_with_monitor_via_queue(self):
        """Compile from source, instrument a separate native kernel, and
        interleave both launches on one in-order queue."""
        context = Context()
        queue = CommandQueue(context)

        program = context.compile("""
            __kernel void scale(__global int* data, int n) {
                for (int i = 0; i < n; i++) { data[i] = data[i] * 2; }
            }
        """)
        context.create_buffer("data", 8).write(np.arange(8))

        monitor = StallMonitor(context.fabric, sites=2, depth=64)
        from repro.kernels.matmul import MatMulKernel, allocate_matmul_buffers
        matmul = MatMulKernel(stall_monitor=monitor)
        allocate_matmul_buffers(context.fabric, 2, 4, 2)

        queue.enqueue_kernel(program.kernel("scale"), {"data": "data", "n": 8})
        queue.enqueue_kernel(matmul, {"rows_a": 2, "col_a": 4, "col_b": 2})
        queue.finish()

        assert list(context.buffer("data").read()) == [2 * i for i in range(8)]
        assert len(monitor.latencies(0, 1)) == 2 * 4 * 2
