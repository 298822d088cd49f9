"""``paper_experiments``: a closed loop of Fig. 2, §5.1 and §5.2 runs.

The event core, engine dispatch, LSU/DRAM model and ibuffer
instrumentation do nearly all the work; frontend, trace and server do
none. Every round runs each configuration below once, in an order drawn
from the seed, so every seed carries the same work and the spread
between seeds is the machine's, not the inputs'.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Any, Dict, List, Tuple

from perfbench.common import FIRST_ROUND_ORDER

#: Per kind, the sizes a round runs; the first entry is the paper's default.
#: The defaults take most of a round; the smaller sizes make a run hold
#: over ten calls of each kind.
CONFIGS: Dict[str, List[Dict[str, int]]] = {
    "fig2": [
        {"n": 50, "num": 100, "probe_i": 10},
        {"n": 20, "num": 40, "probe_i": 10},
        {"n": 30, "num": 30, "probe_i": 8},
        {"n": 10, "num": 20, "probe_i": 5},
        {"n": 15, "num": 15, "probe_i": 5},
    ],
    "sec51": [
        {"rows_a": 8, "col_a": 16, "col_b": 8, "depth": 1024},
        {"rows_a": 4, "col_a": 8, "col_b": 4, "depth": 256},
        {"rows_a": 4, "col_a": 4, "col_b": 4, "depth": 128},
        {"rows_a": 2, "col_a": 4, "col_b": 2, "depth": 64},
    ],
    "sec52": [
        {"n": 24, "offset": 4, "src_size": 24, "depth": 256},
        {"n": 12, "offset": 4, "src_size": 12, "depth": 64},
        {"n": 16, "offset": 2, "src_size": 16, "depth": 128},
        {"n": 8, "offset": 2, "src_size": 8, "depth": 64},
    ],
}

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_paper.json")


def config_key(kind: str, config: Dict[str, int]) -> str:
    return kind + ":" + ",".join(f"{k}={config[k]}" for k in sorted(config))


def summarize(kind: str, result: Any) -> Dict[str, Any]:
    """The simulated statistics an item is checked on."""
    if kind == "fig2":
        return {
            "cycles": [result.single_task.total_cycles,
                       result.ndrange.total_cycles],
            "order": [result.single_task.classification,
                      result.ndrange.classification],
            "correct": [result.single_task.result_correct,
                        result.ndrange.result_correct],
        }
    if kind == "sec51":
        measured = result.measured
        return {
            "samples": len(measured),
            "latency_sum": sum(measured),
            "latency_max": max(measured) if measured else 0,
            "latency_sha": hashlib.sha256(
                json.dumps(measured).encode()).hexdigest()[:16],
            "ground_truth": result.matches_ground_truth,
            "correct": result.result_correct,
        }
    return {
        "watch_hits": len(result.watch_hits),
        "bound_violations": len(result.bound_violations),
        "invariance_violations": len(result.invariance_violations),
        "checks": [result.bound_check_correct,
                   result.invariance_check_correct],
    }


def load_golden() -> Dict[str, Dict[str, Any]]:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


class Workload:
    name = "paper_experiments"

    def __init__(self, seed: int, workdir: str, tiny: bool = False) -> None:
        self.rng = random.Random(seed)
        configs = {kind: entries[-1:] if tiny else entries
                   for kind, entries in CONFIGS.items()}
        self.items: List[Tuple[str, Dict[str, int]]] = [
            (kind, config) for kind, entries in configs.items()
            for config in entries]
        self.golden = load_golden()
        self.extra_pids: List[int] = []

    def round_items(self, round_index: int) -> List[Tuple[str, Dict]]:
        items = list(self.items)
        (self.rng if round_index else
         random.Random(FIRST_ROUND_ORDER)).shuffle(items)
        return items

    def setup(self) -> None:
        from repro.experiments import fig2, sec51, sec52

        self.run = {"fig2": fig2.run, "sec51": sec51.run, "sec52": sec52.run}
        # Warm-up: the smallest size of each kind.
        for kind, entries in CONFIGS.items():
            self.run[kind](**entries[-1])

    def prepare_expected(self) -> None:
        """Expected outputs are the committed golden statistics."""

    def run_item(self, item, tracer, counts: Dict[str, Any]) -> Dict[str, Any]:
        kind, config = item
        with tracer.span(f"experiments.{kind}"):
            result = self.run[kind](**config)
        summary = summarize(kind, result)
        if kind == "fig2":
            counts["sim.cycles"] = counts.get("sim.cycles", 0) + sum(
                summary["cycles"])
        return summary

    def check(self, item, output: Dict[str, Any]) -> bool:
        kind, config = item
        return output == self.golden.get(config_key(kind, config))

    def layer_metrics(self, tracer, counts: Dict[str, Any],
                      tally: Dict[str, Any]) -> Dict[str, Any]:
        rounds = tally["rounds"]
        from perfbench.common import p50_ms

        metrics = {f"experiments.{kind}_ms": (
            p50_ms(tracer.durations(f"experiments.{kind}")), "ms")
            for kind in CONFIGS}
        # Only Fig. 2 results carry cycle counts, so host time per cycle
        # is taken over the Fig. 2 calls.
        fig2_s = sum(tracer.durations("experiments.fig2"))
        cycles = counts.get("sim.cycles", 0)
        metrics["sim.cycles"] = (cycles, "cycles")
        metrics["sim.host_us_per_cycle"] = (
            fig2_s * 1e6 / (cycles * rounds) if cycles else 0.0, "us/cycle")
        return metrics

    def close(self) -> None:
        pass
