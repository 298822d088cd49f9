"""The paper's listings, compiled from source and executed.

The strongest fidelity statement this reproduction can make: the code the
paper printed runs, and behaves as the paper says it does.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.frontend import compile_source, parse
from repro.frontend.listings import (
    ALL_LISTINGS,
    LISTING_2,
    LISTING_4,
    LISTING_7,
    LISTING_8_DEFINES,
    LISTING_8_IBUFFER,
)
from repro.hdl.library import HDLLibrary
from repro.pipeline.fabric import Fabric


class TestAllListingsParse:
    @pytest.mark.parametrize("number", sorted(ALL_LISTINGS))
    def test_parses(self, number):
        program = parse(ALL_LISTINGS[number])
        assert program.kernels


class TestListing2:
    def test_persistent_timestamps_measure_the_event(self, fabric):
        program = compile_source(fabric, LISTING_2)
        n = 16
        fabric.memory.allocate("X", n).fill(np.arange(n))
        fabric.memory.allocate("Y", n).fill(np.ones(n, dtype=np.int64))
        fabric.memory.allocate("Z", 1)
        fabric.memory.allocate("T", 2)
        fabric.run_kernel(program.kernel("dot_product"),
                          {"x": "X", "y": "Y", "z": "Z", "times": "T",
                           "n": n})
        assert fabric.memory.buffer("Z").read(0) == np.arange(n).sum()
        start_t, end_t = fabric.memory.buffer("T").snapshot()
        assert end_t > start_t   # the event took cycles


class TestListing4:
    def test_hdl_timestamps_measure_the_event(self, fabric):
        library = HDLLibrary(fabric.sim)
        library.add_get_time()
        program = compile_source(fabric, LISTING_4, hdl_library=library)
        n = 12
        fabric.memory.allocate("X", n).fill(np.arange(n))
        fabric.memory.allocate("Y", n).fill(np.ones(n, dtype=np.int64))
        fabric.memory.allocate("Z", 1)
        fabric.memory.allocate("T", 2)
        fabric.run_kernel(program.kernel("dot_product"),
                          {"x": "X", "y": "Y", "z": "Z", "times": "T",
                           "n": n})
        start_t, end_t = fabric.memory.buffer("T").snapshot()
        assert end_t > start_t


class TestListing7:
    def test_figure2b_order_from_source(self, fabric):
        program = compile_source(fabric, LISTING_7)
        n_rows, num = 6, 15
        fabric.memory.allocate("X", n_rows * num).fill(
            np.arange(n_rows * num))
        fabric.memory.allocate("Y", num).fill(np.arange(num))
        fabric.memory.allocate("Z", n_rows)
        for name in ("I1", "I2", "I3"):
            fabric.memory.allocate(name, n_rows * 10 + 1)
        fabric.run_kernel(program.kernel("matvec"), {
            "__global_size": n_rows, "x": "X", "y": "Y", "z": "Z",
            "info1": "I1", "info2": "I2", "info3": "I3", "num": num})

        z = fabric.memory.buffer("Z").snapshot()
        expected = (np.arange(n_rows * num).reshape(n_rows, num)
                    * np.arange(num)).sum(axis=1)
        assert np.array_equal(z, expected)

        info2 = fabric.memory.buffer("I2").snapshot()
        info3 = fabric.memory.buffer("I3").snapshot()
        first = [(int(info2[s]), int(info3[s]))
                 for s in range(1, n_rows + 1)]
        # Figure 2(b): all work-items issue i=0 before any issues i=1.
        assert first == [(k, 0) for k in range(n_rows)]


class TestListing8IBuffer:
    """The OpenCL-coded ibuffer: full sample -> stop -> read protocol."""

    def _setup(self, fabric):
        program = compile_source(fabric, LISTING_8_IBUFFER,
                                 defines=LISTING_8_DEFINES)
        fabric.memory.allocate("OUT", LISTING_8_DEFINES["DEPTH"])
        return program

    def test_records_and_reads_back(self, fabric):
        program = self._setup(fabric)
        data_in = program.channel("data_in")
        # Feed five samples while SAMPLE (the initial state).
        for value in (11, 22, 33, 44, 55):
            data_in.write_nb(value)
            fabric.advance(2)
        # Host: STOP, then READ via the Listing 10 kernel.
        fabric.run_kernel(program.kernel("read_host"),
                          {"cmd": 2, "output": "OUT"})
        fabric.advance(4)
        fabric.run_kernel(program.kernel("read_host"),
                          {"cmd": 3, "output": "OUT"})
        fabric.advance(4)
        out = list(fabric.memory.buffer("OUT").snapshot())
        assert out[:5] == [11, 22, 33, 44, 55]

    def test_reset_clears_write_pointer(self, fabric):
        program = self._setup(fabric)
        data_in = program.channel("data_in")
        data_in.write_nb(99)
        fabric.advance(2)
        fabric.run_kernel(program.kernel("read_host"),
                          {"cmd": 0, "output": "OUT"})   # RESET
        fabric.advance(4)
        fabric.run_kernel(program.kernel("read_host"),
                          {"cmd": 1, "output": "OUT"})   # SAMPLE again
        fabric.advance(4)
        data_in.write_nb(7)
        fabric.advance(2)
        fabric.run_kernel(program.kernel("read_host"),
                          {"cmd": 3, "output": "OUT"})   # READ
        fabric.advance(4)
        out = list(fabric.memory.buffer("OUT").snapshot())
        assert out[0] == 7   # the pre-reset 99 is gone

    def test_data_ignored_while_stopped(self, fabric):
        program = self._setup(fabric)
        data_in = program.channel("data_in")
        fabric.run_kernel(program.kernel("read_host"),
                          {"cmd": 2, "output": "OUT"})   # STOP
        fabric.advance(4)
        data_in.write_nb(123)
        fabric.advance(2)
        fabric.run_kernel(program.kernel("read_host"),
                          {"cmd": 3, "output": "OUT"})   # READ
        fabric.advance(4)
        out = list(fabric.memory.buffer("OUT").snapshot())
        assert 123 not in out


class TestListing6:
    def test_figure2a_order_from_source(self, fabric):
        """The single-task form executes in program order — Figure 2(a)."""
        from repro.frontend.listings import LISTING_6
        program = compile_source(fabric, LISTING_6)
        n_rows, num = 5, 12
        fabric.memory.allocate("X", n_rows * num).fill(
            np.arange(n_rows * num))
        fabric.memory.allocate("Y", num).fill(np.arange(num))
        fabric.memory.allocate("Z", n_rows)
        for name in ("I1", "I2", "I3"):
            fabric.memory.allocate(name, n_rows * 10 + 1)
        fabric.run_kernel(program.kernel("matvec"), {
            "x": "X", "y": "Y", "z": "Z", "info1": "I1", "info2": "I2",
            "info3": "I3", "n": n_rows, "num": num})

        z = fabric.memory.buffer("Z").snapshot()
        expected = (np.arange(n_rows * num).reshape(n_rows, num)
                    * np.arange(num)).sum(axis=1)
        assert np.array_equal(z, expected)

        from repro.analysis.order import classify_order, order_records
        records = order_records(fabric.memory.buffer("I1").snapshot(),
                                fabric.memory.buffer("I2").snapshot(),
                                fabric.memory.buffer("I3").snapshot(),
                                count=n_rows * 10)
        assert classify_order(records) == "program-order"

    def test_listing6_and_7_disagree_on_order(self):
        """The complete Figure 2 comparison, both sides from source."""
        from repro.analysis.order import classify_order, order_records
        from repro.frontend.listings import LISTING_6, LISTING_7

        orders = {}
        for number, source in ((6, LISTING_6), (7, LISTING_7)):
            fabric = Fabric()
            program = compile_source(fabric, source)
            n_rows, num = 4, 11
            fabric.memory.allocate("X", n_rows * num).fill(
                np.arange(n_rows * num))
            fabric.memory.allocate("Y", num).fill(np.arange(num))
            fabric.memory.allocate("Z", n_rows)
            for name in ("I1", "I2", "I3"):
                fabric.memory.allocate(name, n_rows * 10 + 1)
            args = {"x": "X", "y": "Y", "z": "Z", "info1": "I1",
                    "info2": "I2", "info3": "I3", "num": num}
            if number == 6:
                args["n"] = n_rows
            else:
                args["__global_size"] = n_rows
            fabric.run_kernel(program.kernel("matvec"), args)
            records = order_records(fabric.memory.buffer("I1").snapshot(),
                                    fabric.memory.buffer("I2").snapshot(),
                                    fabric.memory.buffer("I3").snapshot(),
                                    count=n_rows * 10)
            orders[number] = classify_order(records)
        assert orders[6] == "program-order"
        assert orders[7] == "interleaved"


def _run_listing(number, n_rows, num):
    """Listing 6 or 7 compiled from source: (z, (k, i) order, engine)."""
    from repro.analysis.order import order_records
    from repro.frontend.listings import LISTING_6, LISTING_7

    fabric = Fabric()
    program = compile_source(fabric, LISTING_6 if number == 6 else LISTING_7)
    fabric.memory.allocate("X", n_rows * num).fill(np.arange(n_rows * num))
    fabric.memory.allocate("Y", num).fill(np.arange(num))
    fabric.memory.allocate("Z", n_rows)
    for name in ("I1", "I2", "I3"):
        fabric.memory.allocate(name, n_rows * 10 + 1)
    args = {"x": "X", "y": "Y", "z": "Z", "info1": "I1", "info2": "I2",
            "info3": "I3", "num": num}
    if number == 6:
        args["n"] = n_rows
    else:
        args["__global_size"] = n_rows
    engine = fabric.run_kernel(program.kernel("matvec"), args)
    records = order_records(*(fabric.memory.buffer(name).snapshot()
                              for name in ("I1", "I2", "I3")),
                            count=n_rows * min(10, num))
    return list(fabric.memory.buffer("Z").snapshot()), records, engine


def _run_python_ir(number, n_rows, num):
    """The Python-IR Fig. 2 kernel standing for Listing 6 or 7."""
    from repro.analysis.order import order_records
    from repro.core.sequence import SequenceService
    from repro.core.timestamp import PersistentTimestampService
    from repro.kernels.matvec import (
        MatVecNDRange,
        MatVecSingleTask,
        allocate_matvec_buffers,
    )

    fabric = Fabric()
    kind = MatVecSingleTask if number == 6 else MatVecNDRange
    kernel = kind(SequenceService(fabric), PersistentTimestampService(fabric),
                  probe_i=10)
    buffers = allocate_matvec_buffers(fabric, n_rows, num, probe_i=10)
    engine = fabric.run_kernel(kernel, {"N": n_rows, "num": num})
    records = order_records(*(buffers[name].snapshot()
                              for name in ("info1", "info2", "info3")),
                            count=n_rows * min(10, num))
    return list(buffers["z"].snapshot()), records, engine


class TestListingsAgreeWithPythonIR:
    """Listings 6/7 from source and the Python-IR Fig. 2 kernels compute
    the same result and reveal the same issue order, but are timed
    differently (see EXPERIMENTS.md, "Fig. 2 from source")."""

    @pytest.mark.parametrize("number", [6, 7])
    @pytest.mark.parametrize("n_rows,num", [(3, 4), (4, 11), (5, 12)])
    def test_same_result_and_order(self, number, n_rows, num):
        from repro.analysis.order import classify_order

        z, records, _ = _run_listing(number, n_rows, num)
        ir_z, ir_records, _ = _run_python_ir(number, n_rows, num)
        assert z == ir_z
        assert ([(r.outer, r.inner) for r in records]
                == [(r.outer, r.inner) for r in ir_records])
        assert classify_order(records) == classify_order(ir_records)

    @pytest.mark.parametrize("number,cycles,iterations", [
        (6, 6_276, 1), (7, 1_656, 5)])
    def test_cycles_differ(self, number, cycles, iterations):
        # From source, Listing 6 runs its whole loop nest inside one
        # pipeline iteration and Listing 7 one work-item's inner loop per
        # iteration; the Python-IR kernels issue every (k, i) as its own
        # pipelined iteration, so they finish far sooner.
        _, _, engine = _run_listing(number, 5, 12)
        _, _, ir_engine = _run_python_ir(number, 5, 12)
        assert (engine.stats.total_cycles,
                engine.stats.iterations_issued) == (cycles, iterations)
        assert (ir_engine.stats.total_cycles,
                ir_engine.stats.iterations_issued) == (1_258, 60)
