"""Unit tests for the HDL library integration model."""

from __future__ import annotations

import pytest

from repro.errors import HDLError
from repro.hdl.counter import GetTimeModule
from repro.hdl.library import HDLLibrary
from repro.hdl.module import HDLModule


class TestHDLModule:
    def test_negative_latency_rejected(self, sim):
        with pytest.raises(HDLError):
            HDLModule(sim, "m", latency=-1)

    def test_unknown_mode_rejected(self, sim):
        with pytest.raises(HDLError):
            HDLModule(sim, "m", mode="simulation")

    def test_abstract_methods(self, sim):
        module = HDLModule(sim, "m")
        with pytest.raises(NotImplementedError):
            module.emulate()
        with pytest.raises(NotImplementedError):
            module.synthesize_behavior()

    def test_invocations_counted(self, sim):
        module = GetTimeModule(sim)
        def body():
            result = yield from module.invoke((0,))
            return result
        process = sim.process(body())
        sim.run(until=process)
        assert module.invocations == 1


class TestGetTimeModule:
    def test_synthesis_returns_cycle(self, sim):
        module = GetTimeModule(sim)
        sim.timeout(42)
        sim.run()
        assert module.synthesize_behavior(0) == 42

    def test_emulation_returns_command_plus_one(self, sim):
        module = GetTimeModule(sim)
        assert module.emulate(10) == 11

    def test_counter_wraps_at_width(self, sim):
        module = GetTimeModule(sim, width_bits=4)
        sim.timeout(20)
        sim.run()
        assert module.synthesize_behavior() == 20 % 16

    def test_start_offset_applied(self, sim):
        module = GetTimeModule(sim, start_offset=100)
        assert module.synthesize_behavior() == 100

    def test_zero_width_rejected(self, sim):
        with pytest.raises(HDLError):
            GetTimeModule(sim, width_bits=0)

    def test_resource_profile_has_counter_registers(self, sim):
        profile = GetTimeModule(sim, width_bits=64).resource_profile()
        assert profile.extra_registers == 64
        assert profile.hdl_modules == 1


class TestHDLLibrary:
    def test_register_and_get(self, sim):
        library = HDLLibrary(sim)
        module = library.add_get_time()
        assert library.get("get_time") is module
        assert "get_time" in library

    def test_duplicate_registration_rejected(self, sim):
        library = HDLLibrary(sim)
        library.add_get_time()
        with pytest.raises(HDLError):
            library.add_get_time()

    def test_unknown_lookup_raises(self, sim):
        library = HDLLibrary(sim)
        with pytest.raises(HDLError):
            library.get("ghost")

    def test_set_mode_switches_all_modules(self, sim):
        library = HDLLibrary(sim)
        library.add_get_time("a")
        library.add_get_time("b")
        library.set_mode("emulation")
        assert all(module.mode == "emulation" for module in library.modules())

    def test_set_mode_validates(self, sim):
        library = HDLLibrary(sim)
        library.add_get_time()
        with pytest.raises(HDLError):
            library.set_mode("hardware")
