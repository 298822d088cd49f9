"""One workload process: generate inputs, set up, then run timed rounds.

Started by ``perfbench/run.py`` (never by hand) as
``python3 -m perfbench.worker --workload NAME --seed N --seconds S
--trace 0|1 --spawned T --workdir DIR [--tiny]`` with ``src`` and the
checkout root on ``PYTHONPATH``. ``--spawned`` is the launcher's
``time.monotonic()`` just before it started this process. The last
stdout line is one JSON object for the launcher: raw tallies with
``--trace 0``, per-layer metrics with ``--trace 1``.

Phases, in order: input generation and expected outputs (the benchmark's
own reference values), both excluded from every metric; set-up
(imports, daemon spawn, first session, warm-up), followed by
``SETUP_CALIBRATION_S`` of calibration chunks for its host slowdown;
then whole rounds of items until the time is used. With
``--setup-only`` the worker skips the expected outputs and stops after
set-up. The peak-RSS high-water mark is reset
between the first two phases and read after the first round, so it
covers set-up and one round's work.
A round runs the same work for every seed, so rates and invariant
counts compare exactly across rounds and seeds. After each item the
worker times one host-speed calibration chunk
(``common.calibration_chunk``); chunks are left out of every wall and
CPU figure, and their mean against the reference gives the window's
host slowdown.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from typing import Any, Dict, List, Tuple

from perfbench import common

WORKLOADS = ("paper_experiments", "opencl_kernels", "trace_store",
             "server_sessions")

#: Rounds a worker always runs.
MIN_ROUNDS = 1

#: Seconds of calibration chunks right after set-up, for its slowdown.
SETUP_CALIBRATION_S = 0.2


def load_workload(name: str):
    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; expected one of "
                         f"{', '.join(WORKLOADS)}")
    return importlib.import_module(f"perfbench.{name}").Workload


def run_rounds(workload, tracer, seconds: float, rounds: int = 0,
               first_round: int = 0) -> Dict[str, Any]:
    """Run whole rounds of items; ``rounds=0`` sizes the run to ``seconds``.

    Each item's wall time covers only its calls into the program; its
    output check and the calibration chunk after it run after the clock
    stops. Returns the raw tallies, calibration time taken out; an
    item's own slowdown is the mean of the chunks on either side of it.
    """
    item_s: List[float] = []
    item_slowdown: List[float] = []
    round_counts: List[Dict[str, Any]] = []
    #: Per round: (items, wall seconds, CPU seconds of every process).
    round_tallies: List[Tuple[int, float, float]] = []
    attempted = failed = 0
    errors: Dict[str, int] = {}
    #: Wall and CPU seconds of the calibration chunks.
    calibration = [0.0, 0.0]
    previous_chunk = _timed_chunk()[0]
    cpu0 = time.process_time()
    extra_cpu0 = [common.proc_cpu_seconds(pid) for pid in workload.extra_pids]
    start = time.perf_counter()
    index = 0
    while True:
        counts: Dict[str, Any] = {}
        round_start = (len(item_s), time.perf_counter(), _cpu(workload),
                       *calibration)
        for item in workload.round_items(first_round + index):
            tracer.item = attempted
            attempted += 1
            t0 = time.perf_counter()
            try:
                with tracer.span("item"):
                    output = workload.run_item(item, tracer, counts)
                t1 = time.perf_counter()
                ok = workload.check(item, output)
            except Exception as exc:  # noqa: BLE001 - a failed item is counted
                t1 = time.perf_counter()
                ok = False
                errors[type(exc).__name__] = errors.get(
                    type(exc).__name__, 0) + 1
            item_s.append(t1 - t0)
            if not ok:
                failed += 1
                counts["failed_items"] = counts.get("failed_items", 0) + 1
            chunk_wall, chunk_cpu = _timed_chunk()
            calibration[0] += chunk_wall
            calibration[1] += chunk_cpu
            item_slowdown.append((previous_chunk + chunk_wall) / 2
                                 / common.CALIBRATION_REFERENCE_S)
            previous_chunk = chunk_wall
        round_counts.append(counts)
        calibration_wall = calibration[0] - round_start[3]
        calibration_cpu = calibration[1] - round_start[4]
        round_tallies.append((
            len(item_s) - round_start[0],
            time.perf_counter() - round_start[1] - calibration_wall,
            _cpu(workload) - round_start[2] - calibration_cpu))
        index += 1
        if index == 1:
            # Memory of set-up plus a fixed amount of work: the program's
            # RSS climbs over the first few rounds as the allocator and
            # collector settle, so a peak over all rounds would depend on
            # how many rounds the host's speed allowed.
            peak_rss_mb = _peak_rss_mb(workload)
        elapsed = time.perf_counter() - start
        if rounds:
            if index >= rounds:
                break
        elif index >= MIN_ROUNDS and elapsed + 0.5 * elapsed / index >= seconds:
            break
    wall = time.perf_counter() - start - calibration[0]
    extra_cpu = sum(common.proc_cpu_seconds(pid) - before
                    for pid, before in zip(workload.extra_pids, extra_cpu0))
    cpu = time.process_time() - cpu0 - calibration[1] + extra_cpu
    slowdown = calibration[0] / attempted / common.CALIBRATION_REFERENCE_S
    return {"item_s": item_s, "item_slowdown": item_slowdown,
            "round_counts": round_counts,
            "attempted": attempted, "failed": failed, "errors": errors,
            "wall": wall, "cpu": cpu, "extra_cpu": extra_cpu,
            "rounds": index, "round_tallies": round_tallies,
            "peak_rss_mb": peak_rss_mb, "host_slowdown": slowdown}


def _timed_chunk() -> Tuple[float, float]:
    """Wall and CPU seconds of one calibration chunk."""
    wall, cpu = time.perf_counter(), time.process_time()
    common.calibration_chunk()
    return time.perf_counter() - wall, time.process_time() - cpu


def _cpu(workload) -> float:
    """CPU seconds so far of this process and the workload's others."""
    return time.process_time() + sum(
        common.proc_cpu_seconds(pid) for pid in workload.extra_pids)


def _peak_rss_mb(workload) -> float:
    """Summed VmHWM of this process and the workload's others."""
    return common.proc_peak_rss_mb(os.getpid()) + sum(
        common.proc_peak_rss_mb(pid) for pid in workload.extra_pids)


def reset_peak_rss() -> None:
    """Reset this process's VmHWM to its current resident set."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def invariants_repeat(round_counts: List[Dict[str, Any]]) -> bool:
    """Every round's counts equal the first round's."""
    return all(counts == round_counts[0] for counts in round_counts[1:])


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes only (self-test smoke runs)")
    parser.add_argument("--workdir", required=True,
                        help="directory for the run's files")
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--setup-only", action="store_true",
                        help="report set-up alone; skip expected outputs")
    args = parser.parse_args(argv)

    # One CPU for the worker and any daemon it starts: the closed loop
    # never runs them at once, and on a shared host a wakeup that crosses
    # CPUs waits for the hypervisor to schedule the other vCPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload_class = load_workload(args.workload)
    excluded_start = time.monotonic()
    workload = workload_class(args.seed, args.workdir, tiny=args.tiny)
    try:
        if not args.setup_only:
            workload.prepare_expected()
        excluded_s = time.monotonic() - excluded_start
        reset_peak_rss()
        workload.setup()
        ready = time.monotonic()
        setup = {"setup_s": ready - args.spawned - excluded_s,
                 "setup_slowdown": common.host_slowdown(SETUP_CALIBRATION_S)}
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        seconds = args.seconds / 2 if args.trace else args.seconds
        tally = run_rounds(workload, common.NullTracer(), seconds)
        result: Dict[str, Any] = {
            **setup,
            "attempted": tally["attempted"],
            "failed": tally["failed"],
            "errors": tally["errors"],
            "round_counts": tally["round_counts"],
            "correct": invariants_repeat(tally["round_counts"]),
        }
        if args.trace:
            tracer = common.Tracer()
            traced = run_rounds(workload, tracer, seconds,
                                rounds=tally["rounds"],
                                first_round=tally["rounds"])
            result["correct"] = result["correct"] and invariants_repeat(
                tally["round_counts"] + traced["round_counts"])
            result["attempted"] += traced["attempted"]
            result["failed"] += traced["failed"]
            result["metrics"] = layer_metrics(workload, tally, traced,
                                              tracer)
            if args.spans_out:
                tracer.write(args.spans_out)
        else:
            for key in ("item_s", "item_slowdown", "wall", "cpu",
                        "round_tallies", "peak_rss_mb", "host_slowdown"):
                result[key] = tally[key]
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


def layer_metrics(workload, untraced: Dict[str, Any],
                  traced: Dict[str, Any], tracer) -> Dict[str, Any]:
    """Per-layer metrics of the traced rounds, plus bench diagnostics.

    Times and rates are scaled to the reference host's speed, each by
    the slowdown of the window it was measured in.
    """
    metrics: Dict[str, Any] = {}
    item_time = sum(traced["item_s"])
    self_times = tracer.self_times()
    per_item = traced["attempted"]
    for layer in common.LAYERS:
        seconds = self_times.get(layer, 0.0)
        metrics[f"{layer}.self_ms_per_item"] = (seconds * 1e3 / per_item,
                                                "ms")
        metrics[f"{layer}.self_share"] = (
            seconds / item_time if item_time else 0.0, "ratio")
    metrics.update(workload.layer_metrics(
        tracer, untraced["round_counts"][0], traced))
    metrics = {name: (common.at_reference_speed(
        value, unit, traced["host_slowdown"]), unit)
        for name, (value, unit) in metrics.items()}
    metrics["bench.span_coverage"] = (tracer.covered_share(), "ratio")
    value, pct, beyond = common.tail([s * 1e3 for s in untraced["item_s"]])
    metrics["bench.item_tail_ms"] = (
        value / untraced["host_slowdown"], "ms")
    metrics["bench.item_tail_pct"] = (pct, "pct")
    metrics["bench.item_tail_beyond"] = (beyond, "count")
    untraced_rate, traced_rate = (
        tally["attempted"] / tally["wall"] * tally["host_slowdown"]
        for tally in (untraced, traced))
    metrics["bench.tracing_overhead"] = (untraced_rate / traced_rate - 1.0,
                                         "ratio")
    metrics["bench.failed_share"] = (
        untraced["failed"] / untraced["attempted"], "ratio")
    metrics["bench.host_slowdown"] = (untraced["host_slowdown"], "ratio")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
