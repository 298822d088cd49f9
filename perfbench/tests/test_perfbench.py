"""Self-tests of the benchmark: determinism, metric names, failure counting.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import common, worker  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def _items(name: str, seed: int, tmp_path):
    workload = worker.load_workload(name)(seed, str(tmp_path))
    return [workload.round_items(index) for index in range(2)]


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_same_items(name, tmp_path):
    first = _items(name, 7, tmp_path)
    second = _items(name, 7, tmp_path)
    assert json.dumps(first, sort_keys=True, default=repr) == json.dumps(
        second, sort_keys=True, default=repr)


def test_trace_store_inputs_repeat(tmp_path):
    from perfbench.trace_store import Workload

    first, second = Workload(3, str(tmp_path)), Workload(3, str(tmp_path))
    for one, other in zip(first.bundles, second.bundles):
        assert (one.base, one.delta) == (other.base, other.delta)
        assert one.queries == other.queries


def test_trace_store_streams_keep_the_paper_mix(tmp_path):
    from perfbench.trace_store import BASE_SCALE, PAPER_MIX, Workload

    bundle = Workload(3, str(tmp_path)).bundles[0]
    rows = [0] * len(PAPER_MIX)
    for index, _, _ in bundle.base:
        rows[index] += 1
    assert rows == [entry[4] * BASE_SCALE for entry in PAPER_MIX]


@pytest.mark.parametrize("name", WORKLOADS)
def test_first_round_order_is_the_same_for_every_seed(name, tmp_path):
    def first_round(seed):
        items = _items(name, seed, tmp_path)[0]
        return json.dumps(
            [item.get("spec", item.get("size")) if isinstance(item, dict)
             else item for item in items], default=repr)

    assert first_round(1) == first_round(2)


def test_at_reference_speed_scales_times_and_rates():
    assert common.at_reference_speed(30.0, "ms", 1.5) == 20.0
    assert common.at_reference_speed(4.0, "1/s", 1.5) == 6.0
    assert common.at_reference_speed(0.5, "ratio", 1.5) == 0.5
    assert common.host_slowdown(0.01) > 0


def test_end_to_end_divides_each_window_by_its_slowdown():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import run

    timed = {"item_s": [0.2, 0.4, 0.6], "item_slowdown": [2.0, 2.0, 2.0],
             "wall": 1.2, "cpu": 1.2, "host_slowdown": 2.0,
             "setup_s": 1.0, "setup_slowdown": 2.0, "peak_rss_mb": 50.0}
    setup = {"setup_s": 0.5, "setup_slowdown": 1.0}
    normalised = run.end_to_end([timed], [setup, setup])
    assert normalised == {"setup_s": 0.5, "items_per_s": 5.0,
                          "item_p50_ms": 200.0, "cpu_ms_per_item": 200.0,
                          "peak_rss_mb": 50.0}
    raw = run.end_to_end([timed], [setup, setup], normalise=False)
    assert raw["items_per_s"] == 2.5 and raw["item_p50_ms"] == 400.0


def test_workloads_match_the_worker():
    assert tuple(WORKLOADS) == worker.WORKLOADS


def _run(name: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", name, "--seed", "5", "--seconds", "0.1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(name, trace):
    proc = _run(name, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [entry["name"] for entry in declared]
    for entry in declared:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
    if not trace:
        assert all(result["metrics"][entry["name"]]["value"] > 0
                   for entry in declared)


def test_server_failures_repeat_per_round():
    proc = _run("server_sessions", 0)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # The tiny menu holds one session too long for one request line.
    assert result["failed"] * 2 == result["attempted"]


def test_missing_sources_exit_nonzero(tmp_path):
    os.makedirs(tmp_path / "perfbench")
    for name in os.listdir(os.path.join(ROOT, "perfbench")):
        source = os.path.join(ROOT, "perfbench", name)
        if os.path.isfile(source):
            with open(source, "rb") as handle:
                (tmp_path / "perfbench" / name).write_bytes(handle.read())
    with open(os.path.join(ROOT, "BENCHMARK.json"), "rb") as handle:
        (tmp_path / "BENCHMARK.json").write_bytes(handle.read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


class _Corrupting:
    """Wraps a workload so every item's output is corrupted."""

    def __init__(self, inner, corrupt) -> None:
        self.inner = inner
        self.corrupt = corrupt
        self.extra_pids = []

    def round_items(self, index):
        return self.inner.round_items(index)

    def run_item(self, item, tracer, counts):
        return self.corrupt(self.inner.run_item(item, tracer, counts))

    def check(self, item, output):
        return self.inner.check(item, output)


def test_corrupted_paper_output_counts_as_failed(tmp_path):
    from perfbench.paper_experiments import Workload

    workload = Workload(1, str(tmp_path), tiny=True)
    workload.setup()

    def corrupt(output):
        output = dict(output)
        key = "cycles" if "cycles" in output else next(iter(output))
        output[key] = "corrupted"
        return output

    tally = worker.run_rounds(workload, common.NullTracer(), 0, rounds=1)
    assert tally["failed"] == 0
    tally = worker.run_rounds(_Corrupting(workload, corrupt),
                              common.NullTracer(), 0, rounds=1)
    assert tally["failed"] == tally["attempted"] == 3


def test_corrupted_kernel_output_counts_as_failed(tmp_path):
    from perfbench.opencl_kernels import Workload

    workload = Workload(1, str(tmp_path), tiny=True)
    workload.setup()

    def corrupt(output):
        out = np.array(output["out"])
        out[-1] += 1
        return {"out": out}

    tally = worker.run_rounds(_Corrupting(workload, corrupt),
                              common.NullTracer(), 0, rounds=1)
    assert tally["failed"] == tally["attempted"] > 0


def test_wrong_trace_answers_fail(tmp_path):
    from perfbench.trace_store import Workload

    workload = Workload(1, str(tmp_path), tiny=True)
    workload.setup()
    for item in workload.round_items(0):
        output = workload.run_item(item, common.NullTracer(), {})
        assert workload.check(item, output)
        answers = list(output["answers"])
        answers[2] = ("wrong",)
        assert not workload.check(item, dict(output, answers=answers))
        assert not workload.check(item, dict(
            output, captured=output["captured"] - 1))
        assert not workload.check(item, dict(
            output, chrome=output["chrome"][:-1]))


def test_wrong_server_result_fails(tmp_path):
    from repro.server.jobs import execute_experiment_job, execute_kernel_job

    from perfbench.server_sessions import Workload, _job, _json

    workload = Workload(1, str(tmp_path), tiny=True)
    workload.prepare_expected()
    session = workload.sessions[0]
    result = _json(execute_kernel_job(**_job(session)))
    good = {"result": result, "values": result["buffers"]["c"]}
    if session["experiment"] is not None:
        job = execute_experiment_job("fig2", session["experiment"],
                                     trace=True)
        good["experiment"] = (job["rendered"], sum(
            1 for record in job["trace_records"]
            if record.schema == "order.record"))
    assert workload.check(session, good)
    bad = dict(good, values=list(good["values"]))
    bad["values"][0] += 1
    assert not workload.check(session, bad)


def test_peak_rss_reset_forgets_earlier_peaks():
    def peak_mb():
        return common.proc_peak_rss_mb(os.getpid())

    block = bytearray(64 << 20)
    block[::4096] = b"x" * len(block[::4096])
    high = peak_mb()
    del block
    worker.reset_peak_rss()
    assert peak_mb() < high - 32


def test_invariants_must_repeat():
    assert worker.invariants_repeat([{"a": 1}, {"a": 1}])
    assert not worker.invariants_repeat([{"a": 1}, {"a": 2}])


def test_self_time_subtracts_children():
    tracer = common.Tracer()
    tracer.spans = [("item", 0.0, 10.0, -1, 0),
                    ("trace.query", 1.0, 5.0, 0, 0),
                    ("trace.load", 6.0, 7.0, 0, 0)]
    assert tracer.self_times() == {"item": 5.0, "trace": 5.0}
    assert tracer.covered_share() == 0.5


def test_tail_has_ten_samples_beyond():
    value, pct, beyond = common.tail([float(i) for i in range(100)])
    assert beyond >= 10 and pct == 75.0 and value == 75.0
