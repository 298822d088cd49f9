"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The launcher measures from outside the program. With ``--trace 0`` it
starts ``WORKERS`` fresh worker processes (``perfbench/worker.py``) one
after another, each set up afresh and timed for an equal share of
``--seconds``, then ``SETUP_ONLY_WORKERS`` that only set up, and reports
the end-to-end metrics of ``BENCHMARK.json``: the median of all their
set-up times, and the other figures over the timed windows taken
together. Times and rates are scaled to the reference host's speed by
each window's host slowdown (``common.calibration_chunk``). With
``--trace 1`` one worker runs rounds untraced for half of
``--seconds``, then as many rounds traced, and reports every per-layer
metric. Exits non-zero without a result when the program's sources are
missing or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Timed worker processes per ``--trace 0`` run, each set up afresh;
#: their timed windows are pooled.
WORKERS = 3

#: Further ``--trace 0`` workers that only set up: set-up time is the
#: median over all ``WORKERS + SETUP_ONLY_WORKERS`` set-ups.
SETUP_ONLY_WORKERS = 2

#: Seconds a run may take before its worker is killed.
RUN_TIMEOUT_S = 170.0


def _launch(argv: List[str], env: Dict[str, str], timeout: float) -> Dict:
    """Run one worker in its own process group; return its JSON result.

    On timeout the whole group (the worker and any daemon it started) is
    killed and reaped.
    """
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker timed out after {timeout:.0f}s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def end_to_end(results: List[Dict[str, Any]], setups: List[Dict[str, Any]],
               normalise: bool = True) -> Dict[str, float]:
    """Median set-up time; the rest over all workers' timed windows.

    With ``normalise`` each window's times are divided by its host
    slowdown, so they read as on the reference host: a worker's timed
    window, set-up or single item. ``setups`` holds the results of the
    set-up-only workers.
    """
    def slowdown(result: Dict[str, Any], key: str = "host_slowdown"
                 ) -> Any:
        """The window's slowdown (a list per item), or ones."""
        if normalise:
            return result[key]
        return [1.0] * len(result[key]) if key == "item_slowdown" else 1.0

    items = sum(len(r["item_s"]) for r in results)
    return {
        "setup_s": statistics.median(
            r["setup_s"] / slowdown(r, "setup_slowdown")
            for r in results + setups),
        "items_per_s": items / sum(r["wall"] / slowdown(r)
                                   for r in results),
        "item_p50_ms": statistics.median(
            s / item for r in results
            for s, item in zip(r["item_s"], slowdown(r, "item_slowdown"))
        ) * 1e3,
        "cpu_ms_per_item": sum(r["cpu"] / slowdown(r)
                               for r in results) * 1e3 / items,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes only (self-test smoke runs)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: src/repro not found; run from a full checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + RUN_TIMEOUT_S
    workdir = os.path.join(".perfbench", f"run-{os.getpid()}")
    os.makedirs(os.path.join(ROOT, workdir), exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    # The same string hashes in every worker, so dicts and sets lay out
    # alike from run to run.
    env["PYTHONHASHSEED"] = "0"
    workers = 1 if args.trace else WORKERS
    argv = [sys.executable, "-m", "perfbench.worker",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds / workers),
            "--trace", str(args.trace), "--workdir", workdir,
            "--spans-out", os.path.join(
                ".perfbench", f"spans-{args.workload}-seed{args.seed}.jsonl")]
    if args.tiny:
        argv.append("--tiny")
    launches = [argv] * workers
    if not args.trace:
        launches += [argv + ["--setup-only"]] * SETUP_ONLY_WORKERS
    try:
        results = [_launch(launch + ["--spawned", repr(time.monotonic())],
                           env, deadline - time.monotonic())
                   for launch in launches]
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)

    results, setups = results[:workers], results[workers:]
    measured = (results[0]["metrics"] if args.trace else
                {name: {"value": value, "unit": None}
                 for name, value in end_to_end(results, setups).items()})
    metrics: Dict[str, Any] = {}
    for entry in declared:
        value = measured.pop(entry["name"], {"value": 0.0,
                                             "unit": entry["unit"]})
        if value["unit"] not in (None, entry["unit"]):
            print(f"error: {entry['name']} measured in {value['unit']}, "
                  f"declared in {entry['unit']}", file=sys.stderr)
            return 1
        metrics[entry["name"]] = {"value": value["value"],
                                  "unit": entry["unit"]}
    if measured:
        print(f"error: undeclared metrics {sorted(measured)}",
              file=sys.stderr)
        return 1
    # Invariant counts must agree within every worker and across them.
    first_round = results[0]["round_counts"][0]
    correct = all(result["correct"]
                  and result["round_counts"][0] == first_round
                  for result in results)
    print(json.dumps({
        "host_slowdown": [result.get("host_slowdown") for result in results],
        "raw": None if args.trace else end_to_end(results, setups,
                                                  normalise=False),
        "setups_s": [result["setup_s"] for result in results + setups],
        "setup_slowdowns": [result["setup_slowdown"]
                            for result in results + setups],
        "rounds": [[[n, round(w, 3), round(c, 3)]
                    for n, w, c in result.get("round_tallies", ())]
                   for result in results],
        "errors": [result["errors"] for result in results],
        "counts": first_round}), file=sys.stderr)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
