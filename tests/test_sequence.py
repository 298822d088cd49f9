"""Tests for the sequence-number primitive (§3.2, Listing 5)."""

from __future__ import annotations


from repro.core.sequence import SequenceService
from repro.pipeline.kernel import SingleTaskKernel


class SeqReader(SingleTaskKernel):
    def __init__(self, service, **kw):
        super().__init__(**kw)
        self.service = service
        self.observed = []

    def iteration_space(self, args):
        return range(args["n"])

    def body(self, ctx):
        value = yield ctx.load("data", ctx.iteration)
        seq = yield self.service.read_op(ctx)
        self.observed.append((seq, ctx.iteration))


class TestSequenceNumbers:
    def _run(self, fabric, n=10):
        service = SequenceService(fabric)
        fabric.memory.allocate("data", n).fill(range(n))
        kernel = SeqReader(service, name="reader")
        fabric.run_kernel(kernel, {"n": n})
        return kernel.observed

    def test_gap_free_from_one(self, fabric):
        observed = self._run(fabric)
        sequences = sorted(seq for seq, _ in observed)
        assert sequences == list(range(1, 11))

    def test_order_reveals_issue_order(self, fabric):
        """In-order pipeline: sequence order == iteration order."""
        observed = self._run(fabric)
        by_seq = [iteration for _, iteration in sorted(observed)]
        assert by_seq == list(range(10))

    def test_counter_does_not_advance_without_reader(self, fabric):
        service = SequenceService(fabric)
        fabric.advance(100)  # no one reads for 100 cycles
        fabric.memory.allocate("data", 1).fill([0])
        kernel = SeqReader(service, name="reader")
        fabric.run_kernel(kernel, {"n": 1})
        # Had the counter free-run, this would be ~100.
        assert kernel.observed[0][0] == 1

    def test_custom_start_value(self, fabric):
        service = SequenceService(fabric, start=50)
        fabric.memory.allocate("data", 2).fill([0, 0])
        kernel = SeqReader(service, name="reader")
        fabric.run_kernel(kernel, {"n": 2})
        assert sorted(seq for seq, _ in kernel.observed) == [51, 52]

    def test_usable_as_profiling_buffer_address(self, fabric):
        """The paper uses seq as the index into info buffers — distinct
        sequence numbers must give collision-free slots."""
        observed = self._run(fabric, n=32)
        slots = [seq for seq, _ in observed]
        assert len(set(slots)) == len(slots)
