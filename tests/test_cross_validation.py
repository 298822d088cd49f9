"""Cross-validation: the OpenCL-compiled ibuffer vs the native model.

The same stimulus driven into (a) the Listing-8-style ibuffer compiled
from OpenCL-C source and (b) the native :class:`repro.core.IBuffer` must
produce identical recorded values through their respective readout
protocols — two independent implementations of the paper's design
agreeing on behaviour.
"""

from __future__ import annotations


from repro.core.host_interface import HostController
from repro.core.ibuffer import IBuffer, IBufferConfig
from repro.core.logic_blocks import RawRecorderLogic
from repro.frontend import compile_source
from repro.frontend.listings import LISTING_8_DEFINES, LISTING_8_IBUFFER
from repro.pipeline.fabric import Fabric

STIMULUS = [5, 17, 3, 99, 42, 8, 64, 7]


def _run_compiled(values):
    fabric = Fabric()
    program = compile_source(fabric, LISTING_8_IBUFFER,
                             defines=LISTING_8_DEFINES)
    fabric.memory.allocate("OUT", LISTING_8_DEFINES["DEPTH"])
    data_in = program.channel("data_in")
    for value in values:
        data_in.write_nb(value)
        fabric.advance(2)
    fabric.run_kernel(program.kernel("read_host"),
                      {"cmd": 2, "output": "OUT"})    # STOP
    fabric.advance(4)
    fabric.run_kernel(program.kernel("read_host"),
                      {"cmd": 3, "output": "OUT"})    # READ
    fabric.advance(4)
    out = list(fabric.memory.buffer("OUT").snapshot())
    return out[:len(values)]


def _run_native(values):
    fabric = Fabric()
    ibuffer = IBuffer(fabric, "native",
                      logic_factory=lambda cu: RawRecorderLogic(),
                      config=IBufferConfig(count=1,
                                           depth=LISTING_8_DEFINES["DEPTH"]))
    controller = HostController(fabric, ibuffer)
    for value in values:
        ibuffer.data_c[0].write_nb(value)
        fabric.advance(2)
    controller.stop()
    return [entry["value"] for entry in controller.read_trace()]


class TestImplementationsAgree:
    def test_recorded_values_identical(self):
        assert _run_compiled(STIMULUS) == _run_native(STIMULUS)

    def test_agree_on_single_value(self):
        assert _run_compiled([123]) == _run_native([123]) == [123]

    def test_agree_on_capacity_overflow(self):
        """Past DEPTH, both implementations keep the same linear prefix."""
        depth = LISTING_8_DEFINES["DEPTH"]
        values = list(range(100, 100 + depth + 6))
        compiled = _run_compiled(values)[:depth]
        native = _run_native(values)[:depth]
        assert compiled == native == values[:depth]
