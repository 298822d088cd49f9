"""Serial/parallel equivalence: the sweep determinism contract.

The acceptance property for the sweep engine is that ``--workers N`` and
``--serial`` are indistinguishable from the merged outputs: per-point
values pickle identically, rendered reports match byte for byte, merged
``.ctb`` bundles are byte-identical, and trace queries over those
bundles return the same rows. These tests pin that for the §4
scalability grid and the Table 1 configurations, at the engine, the
experiment-module, and the CLI layer.
"""

from __future__ import annotations

import os
import pickle
import time

import pytest

from repro import cli
from repro.experiments import scalability, table1
from repro.sweep import WorkerPool, families, run_sweep

# Small-but-real grid: every point synthesizes AND simulates the
# instrumented matmul, so parallel workers do meaningful work.
GRID = dict(counts=(1, 2), depths=(256, 1024), simulate=True,
            sim_shape=(4, 6, 4))


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _per_key_identical(serial_outcome, parallel_outcome) -> None:
    serial_values = serial_outcome.value_map()
    parallel_values = parallel_outcome.value_map()
    assert list(serial_values) == list(parallel_values)
    for key in serial_values:
        assert pickle.dumps(serial_values[key]) == pickle.dumps(
            parallel_values[key]), f"point {key} diverged"


class TestScalabilityEquivalence:
    def test_engine_values_identical(self):
        spec = families.scalability_spec(
            counts=GRID["counts"], depths=GRID["depths"], simulate=True,
            sim_shape=GRID["sim_shape"])
        serial_outcome = run_sweep(spec, serial=True)
        parallel_outcome = run_sweep(spec, workers=2, chunk_size=1)
        serial_outcome.raise_if_failed()
        parallel_outcome.raise_if_failed()
        _per_key_identical(serial_outcome, parallel_outcome)

    def test_rendered_report_identical(self):
        serial_result = scalability.run(**GRID)
        parallel_result = scalability.run(workers=2, **GRID)
        assert serial_result.render() == parallel_result.render()
        assert "Cycles" in serial_result.render()   # dynamics present

    def test_trace_bundles_byte_identical_and_query_equal(self, tmp_path):
        from repro.trace.columnar import ColumnarStore
        from repro.trace.query import TraceQuery

        spec = families.scalability_spec(
            counts=GRID["counts"], depths=GRID["depths"], simulate=True,
            sim_shape=GRID["sim_shape"])
        serial_path = str(tmp_path / "serial.ctb")
        parallel_path = str(tmp_path / "parallel.ctb")
        run_sweep(spec, serial=True,
                  trace_path=serial_path).raise_if_failed()
        run_sweep(spec, workers=2, chunk_size=1,
                  trace_path=parallel_path).raise_if_failed()

        with open(serial_path, "rb") as handle:
            serial_bytes = handle.read()
        with open(parallel_path, "rb") as handle:
            parallel_bytes = handle.read()
        assert serial_bytes == parallel_bytes

        serial_store = ColumnarStore.load(serial_path)
        parallel_store = ColumnarStore.load(parallel_path)
        assert serial_store.schemas() == parallel_store.schemas()
        for schema in serial_store.schemas():
            serial_rows = TraceQuery(serial_store).schema(schema).rows()
            parallel_rows = TraceQuery(parallel_store).schema(schema).rows()
            assert serial_rows == parallel_rows


class TestTable1Equivalence:
    def test_engine_values_identical(self):
        spec = families.table1_spec(depth=256)
        serial_outcome = run_sweep(spec, serial=True)
        parallel_outcome = run_sweep(spec, workers=2, chunk_size=1)
        serial_outcome.raise_if_failed()
        parallel_outcome.raise_if_failed()
        _per_key_identical(serial_outcome, parallel_outcome)

    def test_rendered_report_identical(self):
        serial_result = table1.run(depth=256)
        parallel_result = table1.run(depth=256, workers=2)
        assert serial_result.render() == parallel_result.render()


class TestCLIEquivalence:
    """``repro-fpga sweep --serial`` and ``--workers 2`` print the same
    report (telemetry goes to stderr, so stdout is the contract)."""

    @pytest.mark.parametrize("family", ["scalability", "table1"])
    def test_stdout_identical(self, family, capsys):
        assert cli.main(["sweep", family, "--serial"]) == 0
        serial_stdout = capsys.readouterr().out
        assert cli.main(["sweep", family, "--workers", "2"]) == 0
        parallel_stdout = capsys.readouterr().out
        assert serial_stdout == parallel_stdout
        assert serial_stdout.strip()

    def test_trace_out_identical(self, tmp_path, capsys):
        serial_path = tmp_path / "serial.ctb"
        parallel_path = tmp_path / "parallel.ctb"
        grid = ["--counts", "1", "--counts", "2", "--depths", "256"]
        assert cli.main(["sweep", "scalability", "--serial", "--simulate",
                         *grid, "--trace-out", str(serial_path)]) == 0
        assert cli.main(["sweep", "scalability", "--workers", "2",
                         "--simulate", *grid, "--trace-out",
                         str(parallel_path)]) == 0
        capsys.readouterr()
        assert serial_path.read_bytes() == parallel_path.read_bytes()


class TestRepeatFamilies:
    def test_sec52_repeats_identical_serial_vs_parallel(self):
        spec = families.repeat_spec("sec52", repeats=2)
        serial_outcome = run_sweep(spec, serial=True)
        parallel_outcome = run_sweep(spec, workers=2, chunk_size=1)
        _per_key_identical(serial_outcome, parallel_outcome)
        rendered = families.render_outcome(parallel_outcome)
        assert "identical: True" in rendered


@pytest.mark.skipif(_cpus() < 4,
                    reason="process-level speedup needs >= 4 CPUs")
class TestSpeedupGate:
    def test_sweep_grid_speedup_at_4_workers(self):
        """The full §4 grid (every point synthesizes *and* simulates the
        instrumented matmul) runs >= 2x faster sharded over 4 worker
        processes than serially, with identical merged results."""
        spec = families.scalability_spec(simulate=True, sim_shape=(4, 6, 4))
        start = time.perf_counter()
        serial_outcome = run_sweep(spec, serial=True)
        serial_s = time.perf_counter() - start
        serial_outcome.raise_if_failed()

        start = time.perf_counter()
        with WorkerPool(workers=4) as pool:
            parallel_outcome = run_sweep(spec, pool=pool, chunk_size=1)
        parallel_s = time.perf_counter() - start
        parallel_outcome.raise_if_failed()

        _per_key_identical(serial_outcome, parallel_outcome)
        assert serial_s / parallel_s >= 2.0, (
            f"sweep speedup {serial_s / parallel_s:.2f}x < 2x "
            f"(serial {serial_s:.2f}s, parallel {parallel_s:.2f}s)")
