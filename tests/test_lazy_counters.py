"""Lazy free-running counters must be observationally identical to the
per-cycle processes they replace (``tests/timer_oracle.py``).

Covers the §3.1 ablation scenarios of ``bench_ablation_limitations`` —
healthy, launch-skewed, and compiler-overridden depth — plus the HDL
counter, the emulator's service discovery, the counter channel's
read-only/stats/freeze contract, and a host that reads or stops the
timer between cycles.
"""

from __future__ import annotations

import pytest

from repro.channels.channel import Channel, CounterRegisterChannel
from repro.core.timestamp import PersistentTimestampService
from repro.errors import ChannelUsageError
from repro.experiments import limitations
from repro.hdl.counter import GetTimeModule
from repro.pipeline.fabric import Fabric
from repro.pipeline.kernel import SingleTaskKernel
from tests.timer_oracle import EagerGetTimeModule, EagerTimestampService

#: The product's analytic timer and its per-cycle oracle.
SERVICES = {"lazy": PersistentTimestampService,
            "eager": EagerTimestampService}


class _Probe(SingleTaskKernel):
    """Reads one timestamp site after a delay."""

    def __init__(self, reader, delay, name="probe"):
        super().__init__(name=name)
        self.reader = reader
        self.delay = delay
        self.values = []

    def iteration_space(self, args):
        return [0]

    def body(self, ctx):
        yield ctx.compute(self.delay)
        self.values.append((yield self.reader(ctx)))


def _persistent_read(mode, delay, sites=1, launch_skews=None, site=0):
    fabric = Fabric()
    service = SERVICES[mode](fabric, sites=sites, launch_skews=launch_skews)
    probe = _Probe(lambda ctx: service.read_op(ctx, site), delay)
    fabric.run_kernel(probe, {})
    return probe.values[0]


class TestPersistentLazyEqualsEager:
    @pytest.mark.parametrize("delay", [1, 7, 25, 100, 1000])
    def test_healthy_read_identical(self, delay):
        assert _persistent_read("lazy", delay) == _persistent_read("eager", delay)

    @pytest.mark.parametrize("skew", [1, 10, 25])
    def test_skewed_read_identical(self, skew):
        assert (_persistent_read("lazy", 60, launch_skews=[skew])
                == _persistent_read("eager", 60, launch_skews=[skew]))

    def test_read_blocked_until_skewed_start_identical(self):
        # Read site reached before the counter starts: both modes block
        # until the first counter write and observe value 1.
        assert (_persistent_read("lazy", 3, launch_skews=[20])
                == _persistent_read("eager", 3, launch_skews=[20]))

    @pytest.mark.parametrize("delay", [2, 40])
    def test_nonblocking_read_identical(self, delay):
        def run(mode):
            fabric = Fabric()
            service = SERVICES[mode](fabric, sites=1)
            got = []

            class NB(SingleTaskKernel):
                def iteration_space(self, args):
                    return [0]

                def body(self, ctx):
                    yield ctx.compute(delay)
                    got.append(service.read(ctx, 0))
            fabric.run_kernel(NB(name="nb"), {})
            return got[0]
        assert run("lazy") == run("eager")

    def test_compiled_depth_falls_back_to_eager(self):
        fabric = Fabric()
        service = PersistentTimestampService(fabric, sites=1,
                                             compiled_depth=8)
        # FIFO staleness needs the real per-cycle writer.
        assert type(service.channels[0]) is Channel
        assert fabric.service_kernels == []
        assert len(fabric.autorun_engines) == 1

    def test_lazy_mode_runs_no_per_cycle_processes(self):
        fabric = Fabric()
        PersistentTimestampService(fabric, sites=3)
        assert fabric.autorun_engines == []
        assert len(fabric.service_kernels) == 3
        # Nothing scheduled at all: the counters are free.
        assert fabric.sim.peek() is None


class TestLimitationsScenariosLazyEqualsEager:
    """The full bench_ablation_limitations measurement matrix, both modes."""

    def _measure(self, mode, gap, compiled_depth=None, launch_skews=None):
        fabric = Fabric()
        service = SERVICES[mode](fabric, sites=2,
                                 compiled_depth=compiled_depth,
                                 launch_skews=launch_skews)
        probe = limitations._TwoSiteProbe(service.read_op, gap, "probe")
        fabric.advance(compiled_depth or 0)
        fabric.run_kernel(probe, {})
        start, end = probe.pairs[0]
        return end - start

    def test_healthy_scenario(self):
        assert self._measure("lazy", 40) == self._measure("eager", 40) == 40

    def test_skewed_scenario(self):
        lazy = self._measure("lazy", 40, launch_skews=[0, 25])
        eager = self._measure("eager", 40, launch_skews=[0, 25])
        assert lazy == eager
        # Limitation 2 still reproduces under the lazy model.
        assert lazy - 40 == pytest.approx(-25, abs=1)

    def test_stale_depth_scenario_is_eager_either_way(self):
        lazy = self._measure("lazy", 40, compiled_depth=16)
        eager = self._measure("eager", 40, compiled_depth=16)
        assert lazy == eager
        assert lazy < 20    # limitation 1: hopelessly stale

    def test_experiment_module_unchanged(self):
        result = limitations.run(gap_cycles=40, compiled_depth=16,
                                 launch_skew=25)
        assert result.healthy_measured == pytest.approx(40, abs=1)
        assert result.skew_error == pytest.approx(-25, abs=1)
        assert result.hdl_measured == 40


class TestHDLCounterLazyEqualsEager:
    @pytest.mark.parametrize("delay", [0, 5, 17, 300])
    def test_get_time_identical(self, delay):
        def run(module_cls):
            fabric = Fabric()
            module = module_cls(fabric.sim)
            probe = _Probe(lambda ctx: ctx.call(module, 0), delay)
            fabric.run_kernel(probe, {})
            return probe.values[0]
        assert run(GetTimeModule) == run(EagerGetTimeModule)

    def test_eager_register_wraps_at_width(self):
        fabric = Fabric()
        module = EagerGetTimeModule(fabric.sim, width_bits=4)
        probe = _Probe(lambda ctx: ctx.call(module, 0), delay=20)
        fabric.run_kernel(probe, {})
        module.stop()
        assert probe.values[0] == 20 % 16


class TestCounterRegisterChannel:
    def test_kernel_writes_rejected(self, sim):
        channel = CounterRegisterChannel(sim, "ctr")
        with pytest.raises(ChannelUsageError):
            channel.write_nb(1)
        with pytest.raises(ChannelUsageError):
            channel.write(1)

    def test_read_nb_invalid_before_start(self, sim):
        channel = CounterRegisterChannel(sim, "ctr", start_cycle=10)
        value, valid = channel.read_nb()
        assert not valid and value is None
        assert channel.stats.read_failures == 1

    def test_stats_synthesize_counter_writes(self, sim):
        channel = CounterRegisterChannel(sim, "ctr")
        sim.timeout(49)
        sim.run()
        # The virtual counter wrote once per cycle since cycle 0.
        assert channel.stats.writes == 50
        assert channel.stats.max_occupancy == 1

    def test_freeze_pins_the_last_value(self, sim):
        channel = CounterRegisterChannel(sim, "ctr")
        sim.timeout(30)
        sim.run()
        channel.freeze()
        frozen_value, _ = channel.read_nb()
        sim.timeout(100)
        sim.run()
        value, valid = channel.read_nb()
        assert valid and value == frozen_value

    def test_fabric_stop_autorun_freezes_lazy_counters(self):
        fabric = Fabric()
        service = PersistentTimestampService(fabric, sites=1)
        fabric.advance(20)
        fabric.stop_autorun()
        frozen, _ = service.channels[0].read_nb()
        fabric.advance(50)
        value, valid = service.channels[0].read_nb()
        assert valid and value == frozen


class TestHostBetweenCycles:
    """After ``advance()`` the host observes the model between cycles: no
    event of the new cycle has run, so the per-cycle writer has written
    the previous cycle's count, and a stop made there freezes it."""

    @pytest.mark.parametrize("mode", ["lazy", "eager"])
    def test_advance_reads_the_last_begun_cycle(self, mode):
        fabric = Fabric()
        channel = SERVICES[mode](fabric).channels[0]
        fabric.advance(10)
        assert channel.read_nb() == (10, True)
        assert channel.stats.writes == 10

    @pytest.mark.parametrize("mode", ["lazy", "eager"])
    def test_stop_between_cycles_freezes_the_last_write(self, mode):
        fabric = Fabric()
        channel = SERVICES[mode](fabric).channels[0]
        fabric.advance(10)
        fabric.stop_autorun()
        fabric.advance(5)
        assert channel.read_nb() == (10, True)
        assert channel.stats.writes == 10

    @pytest.mark.parametrize("mode", ["lazy", "eager"])
    def test_nothing_written_before_the_first_cycle(self, mode):
        fabric = Fabric()
        channel = SERVICES[mode](fabric).channels[0]
        fabric.advance(0)
        assert channel.read_nb() == (None, False)
        assert channel.stats.writes == 0


class TestEmulatorDiscovery:
    def test_lazy_timer_service_discovered(self):
        from repro.host.emulation import Emulator

        fabric = Fabric()
        service = PersistentTimestampService(fabric, sites=1)
        emulator = Emulator(fabric)
        emulated = emulator._channels[id(service.channels[0])]
        assert emulated.service == "timer"
        assert emulator.stats.warnings == []
