"""Unit tests for the synthesis area/timing model."""

from __future__ import annotations

import pytest

from repro.errors import SynthesisError
from repro.pipeline.kernel import ResourceProfile, SingleTaskKernel
from repro.synthesis.cost_model import ChannelSpec, CostModel, CostTable
from repro.synthesis.design import Design
from repro.synthesis.report import compare_reports, synthesize
from repro.synthesis.resources import (
    ARRIA_10,
    DeviceModel,
    PLATFORMS,
    ResourceVector,
    STRATIX_V,
)
from repro.synthesis.timing_model import TimingModel


class _StubKernel(SingleTaskKernel):
    def __init__(self, profile, name="stub", num_compute_units=1):
        super().__init__(name=name, num_compute_units=num_compute_units)
        self._profile = profile

    def resource_profile(self):
        return self._profile


class TestResourceVector:
    def test_addition(self):
        total = (ResourceVector(alms=10, ram_blocks=2)
                 + ResourceVector(alms=5, dsps=1))
        assert total.alms == 15
        assert total.ram_blocks == 2
        assert total.dsps == 1

    def test_scaling(self):
        scaled = ResourceVector(alms=10, ram_blocks=3).scaled(2)
        assert scaled.alms == 20
        assert scaled.ram_blocks == 6


class TestDeviceModels:
    def test_stratix_v_capacity(self):
        assert STRATIX_V.total_memory_bits == 2_560 * 20_480

    def test_platform_registry(self):
        assert set(PLATFORMS) == {"stratix-v", "arria-10",
                                  "arria-10-integrated"}

    def test_invalid_device_rejected(self):
        with pytest.raises(SynthesisError):
            DeviceModel(name="bad", alms=0, registers=1, m20k_blocks=1,
                        bits_per_block=1, dsps=1, base_path_ns=1,
                        lsu_path_ns=0, alu_path_ns=0, channel_path_ns=0,
                        fanout_path_ns=0, congestion_path_ns=0,
                        retiming_path_factor=1, retiming_alm_factor=1)


class TestCostModel:
    def test_loads_dominate_area(self):
        model = CostModel()
        loads = model.profile_vector(ResourceProfile(load_sites=1,
                                                     control_states=0))
        adders = model.profile_vector(ResourceProfile(adders=1,
                                                      control_states=0))
        assert loads.alms > 10 * adders.alms

    def test_multiplier_uses_dsp(self):
        vector = CostModel().profile_vector(ResourceProfile(multipliers=3))
        assert vector.dsps == 3

    def test_structural_blocks_override_packing(self):
        model = CostModel()
        profile = ResourceProfile(local_memory_bits=1_000_000,
                                  ram_blocks_structural=50)
        assert model.blocks_for(profile) == 50

    def test_packed_blocks_ceil(self):
        model = CostModel(bits_per_block=20_480)
        profile = ResourceProfile(local_memory_bits=20_480)
        # 20480 bits at 85% packing needs 2 blocks.
        assert model.blocks_for(profile) == 2

    def test_lsu_caches_charged_one_block_each(self):
        model = CostModel()
        profile = ResourceProfile(load_sites=2, store_sites=1)
        assert model.blocks_for(profile) == 3

    def test_bad_packing_rejected(self):
        with pytest.raises(SynthesisError):
            CostTable(m20k_packing=0.0)


class TestChannelCosts:
    def test_depth_zero_is_register(self):
        vector = CostModel().channel_vector(ChannelSpec(depth=0, width_bits=32))
        assert vector.ram_blocks == 0
        assert vector.registers == 32

    def test_shallow_fifo_in_mlabs(self):
        vector = CostModel().channel_vector(ChannelSpec(depth=8, width_bits=32))
        assert vector.ram_blocks == 0
        assert vector.alms > 0

    def test_deep_fifo_in_m20k(self):
        vector = CostModel().channel_vector(ChannelSpec(depth=1024,
                                                        width_bits=64))
        assert vector.ram_blocks >= 4
        assert vector.memory_bits == 1024 * 64

    def test_invalid_spec_rejected(self):
        with pytest.raises(SynthesisError):
            ChannelSpec(depth=-1)


class TestTimingModel:
    def test_more_lsus_slower(self):
        timing = TimingModel(STRATIX_V)
        small = timing.kernel_fmax_mhz(ResourceProfile(load_sites=1))
        big = timing.kernel_fmax_mhz(ResourceProfile(load_sites=8))
        assert big < small

    def test_intrinsic_path_caps_fmax(self):
        timing = TimingModel(STRATIX_V)
        free = timing.kernel_fmax_mhz(ResourceProfile())
        chained = timing.kernel_fmax_mhz(
            ResourceProfile(intrinsic_path_ns=2.0))
        assert chained < free

    def test_operator_depth_saturates(self):
        """Unrolled datapaths are pipelined: 64 vs 640 operators same path."""
        timing = TimingModel(STRATIX_V)
        wide = timing.kernel_fmax_mhz(ResourceProfile(adders=64))
        wider = timing.kernel_fmax_mhz(ResourceProfile(adders=640))
        assert wide == wider

    def test_retiming_raises_fmax(self):
        timing = TimingModel(STRATIX_V)
        profile = ResourceProfile(load_sites=2, adders=4)
        assert (timing.kernel_fmax_mhz(profile, retimed=True)
                > timing.kernel_fmax_mhz(profile, retimed=False))

    def test_congestion_lowers_fmax(self):
        timing = TimingModel(STRATIX_V)
        profile = ResourceProfile(load_sites=1)
        assert (timing.kernel_fmax_mhz(profile, utilization_fraction=0.9)
                < timing.kernel_fmax_mhz(profile, utilization_fraction=0.1))


class TestDesignAndReport:
    def test_duplicate_kernel_names_rejected(self):
        design = Design("d", kernels=[_StubKernel(ResourceProfile(), "k"),
                                      _StubKernel(ResourceProfile(), "k")])
        with pytest.raises(SynthesisError):
            design.kernel_profiles()

    def test_instrumented_designs_lose_retiming(self):
        class Instr(_StubKernel):
            is_instrumentation = True
        clean = Design("clean", kernels=[_StubKernel(ResourceProfile())])
        dirty = Design("dirty", kernels=[
            _StubKernel(ResourceProfile()),
            Instr(ResourceProfile(), "probe")])
        assert clean.retiming_eligible()
        assert not dirty.retiming_eligible()

    def test_intrinsic_path_disqualifies_retiming(self):
        design = Design("d", kernels=[
            _StubKernel(ResourceProfile(intrinsic_path_ns=0.5))])
        assert not design.retiming_eligible()

    def test_report_includes_shell(self):
        design = Design("d", kernels=[_StubKernel(ResourceProfile())])
        report = synthesize(design)
        assert report.total.alms >= design.shell.alms

    def test_report_rows_and_render(self):
        design = Design("d", kernels=[_StubKernel(
            ResourceProfile(load_sites=1, multipliers=2))])
        report = synthesize(design)
        row = report.row()
        assert row["clock_freq_mhz"] > 0
        assert "Synthesis report" in report.render()

    def test_replication_multiplies_profile(self):
        single = synthesize(Design("s", kernels=[
            _StubKernel(ResourceProfile(load_sites=1), "k", 1)]))
        triple = synthesize(Design("t", kernels=[
            _StubKernel(ResourceProfile(load_sites=1), "k", 3)]))
        assert (triple.per_kernel["k"].alms
                == pytest.approx(3 * single.per_kernel["k"].alms))

    def test_compare_reports_renders_deltas(self):
        base = synthesize(Design("base", kernels=[
            _StubKernel(ResourceProfile(load_sites=1))]))
        other = synthesize(Design("other", kernels=[
            _StubKernel(ResourceProfile(load_sites=4))]))
        text = compare_reports({"base": base, "other": other}, "base")
        assert "dFreq%" in text

    def test_compare_unknown_baseline_rejected(self):
        report = synthesize(Design("d", kernels=[
            _StubKernel(ResourceProfile())]))
        with pytest.raises(KeyError):
            compare_reports({"d": report}, "nope")

    def test_utilization_fractions(self):
        design = Design("d", kernels=[_StubKernel(ResourceProfile(
            load_sites=2, multipliers=4))])
        report = synthesize(design, device=STRATIX_V)
        util = report.utilization_of(STRATIX_V)
        assert 0 < util["alms"] < 1
        assert util["dsps"] == pytest.approx(4 / STRATIX_V.dsps)

    def test_devices_differ_in_fmax(self):
        design = Design("d", kernels=[_StubKernel(
            ResourceProfile(load_sites=2, adders=4))])
        stratix = synthesize(design, device=STRATIX_V)
        arria = synthesize(design, device=ARRIA_10)
        assert arria.fmax_mhz > stratix.fmax_mhz
