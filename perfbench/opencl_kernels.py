"""``opencl_kernels``: compile and launch OpenCL-C kernels, check with numpy.

Each item compiles one program with ``compile_source`` on a fresh
fabric, launches one kernel and compares its output buffer with a numpy
reference. Three kinds of kernel:

* convergent NDRange kernels, launched with ``executor="batch"``, which
  run in table mode;
* NDRange kernels with data-dependent divergence or ``__local`` memory
  and a barrier, which the batch tier hands back to stepping;
* Listings 6 and 7 with their autorun sequence/timer services.

A round launches every spec in ``SPECS`` twice: first as a new program
(a ``VARIANT`` define no earlier item used, so the program cache
misses), later in the round as a re-run of that same program (a hit).
Set-up fills the 128-entry cache with other programs first, so the mix
holds more distinct programs than the cache and every new program
evicts one, as on a long-running host.
The frontend and batch tier do most of the work here; the same
pipeline and sim code runs stepped in ``paper_experiments``.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

import numpy as np

from perfbench.common import (FIRST_ROUND_ORDER, NullTracer, add_counts,
                              model_metrics, p50_ms)

SAXPY = """
__kernel void saxpy(__global long* a, __global long* b, __global long* c) {
    int gid = get_global_id(0);
    c[gid] = a[gid] * SCALE + b[gid] + VARIANT;
}
"""

MATMUL = """
__kernel void matmul(__global long* a, __global long* b, __global long* c,
                     int col_a, int col_b) {
    int gid = get_global_id(0);
    int row = gid / col_b;
    int col = gid % col_b;
    long acc = VARIANT;
    for (int k = 0; k < col_a; k++) {
        acc += a[row * col_a + k] * b[k * col_b + col];
    }
    c[gid] = acc;
}
"""

SELECT = """
__kernel void select(__global long* a, __global long* b, __global long* c,
                     long t) {
    int gid = get_global_id(0);
    long x = a[gid];
    if (x > t) {
        c[gid] = x * SCALE + VARIANT;
    } else {
        c[gid] = b[gid] + VARIANT;
    }
}
"""

ROTATE = """
__kernel void rotate(__global long* a, __global long* b, __global long* c,
                     int n) {
    __local long stage[64];
    int gid = get_global_id(0);
    stage[gid] = a[gid] * SCALE + b[gid];
    barrier(CLK_LOCAL_MEM_FENCE);
    c[gid] = stage[(gid + 1) % n] + VARIANT;
}
"""

#: Buffer sizes the NDRange kinds draw from; ``server_sessions`` uses the
#: same menu, whose largest vector does not fit one 64 KiB request line.
SIZES = (64, 256, 1024, 4096, 16384)

#: One round's launches: (kind, size); the many small vectors weight the
#: mix towards compile cost. Barrier kernels keep a whole work-group in
#: flight, so ``rotate`` stays within the 64-deep pipeline.
SPECS: Tuple[Tuple[str, Any], ...] = (
    tuple(("saxpy", n) for n in SIZES + (128, 320, 512))
    + (("matmul", (8, 8, 8)), ("matmul", (16, 16, 16)))
    + tuple(("select", n) for n in SIZES[:3] + (32, 96, 160))
    + tuple(("rotate", n) for n in (16, 32, 64))
    + (("listing6", (6, 16)), ("listing7", (6, 16)), ("listing7", (16, 32)))
)

#: First VARIANT of the programs set-up compiles to fill the cache;
#: timed items count up from 1 and never reach it.
FILLER_VARIANTS = 1_000_000

TINY_SPECS = (("saxpy", 64), ("select", 64), ("rotate", 16),
              ("listing6", (6, 16)))


def expected_output(kind: str, size: Any, a: np.ndarray, b: np.ndarray,
                    scale: int, variant: int, threshold: int) -> np.ndarray:
    """The numpy reference for one launch."""
    if kind == "saxpy":
        return a * scale + b + variant
    if kind == "matmul":
        rows, col_a, col_b = size
        return (a.reshape(rows, col_a) @ b.reshape(col_a, col_b)
                ).reshape(-1) + variant
    if kind == "select":
        return np.where(a > threshold, a * scale + variant, b + variant)
    if kind == "rotate":
        return np.roll(a * scale + b, -1) + variant
    rows, num = size
    return a.reshape(rows, num) @ b


def make_inputs(rng: random.Random, kind: str, size: Any):
    """Seeded input vectors (a, b) for one spec."""
    gen = np.random.default_rng(rng.getrandbits(63))
    if kind == "matmul":
        rows, col_a, col_b = size
        return (gen.integers(0, 100, rows * col_a, dtype=np.int64),
                gen.integers(0, 100, col_a * col_b, dtype=np.int64))
    if kind in ("listing6", "listing7"):
        rows, num = size
        return (gen.integers(0, 100, rows * num, dtype=np.int64),
                gen.integers(0, 100, num, dtype=np.int64))
    return (gen.integers(0, 1000, size, dtype=np.int64),
            gen.integers(0, 1000, size, dtype=np.int64))


class Workload:
    name = "opencl_kernels"

    def __init__(self, seed: int, workdir: str, tiny: bool = False) -> None:
        self.rng = random.Random(seed)
        self.specs = TINY_SPECS if tiny else SPECS
        self.inputs = {spec: make_inputs(self.rng, *spec)
                       for spec in self.specs}
        self.scale = {spec: self.rng.randrange(2, 9) for spec in self.specs}
        self.threshold = {spec: self.rng.randrange(200, 800)
                          for spec in self.specs}
        self.extra_pids: List[int] = []
        self._variants = 0
        #: Traced-run samples: cold compiles, launches, stepped launches.
        self.cold_compile_s: List[float] = []
        self.run_kernel_s: List[float] = []
        self.stepped_run_s: List[float] = []

    def round_items(self, round_index: int) -> List[Dict[str, Any]]:
        """Every spec as a new program, then again as a re-run of it.

        The seed shuffles the order (the first round's is
        ``FIRST_ROUND_ORDER``'s for every seed); each re-run comes after
        its first launch.
        """
        rng = self.rng if round_index else random.Random(FIRST_ROUND_ORDER)
        fresh = []
        for spec in self.specs:
            self._variants += 1
            fresh.append({"spec": spec, "variant": self._variants})
        rng.shuffle(fresh)
        items: List[Dict[str, Any]] = []
        pending = list(fresh)
        reruns: List[Dict[str, Any]] = []
        while pending or reruns:
            if reruns and (not pending or rng.random() < 0.5):
                items.append(reruns.pop(rng.randrange(len(reruns))))
            else:
                item = pending.pop()
                items.append(item)
                reruns.append(item)
        return items

    def setup(self) -> None:
        from repro.frontend.compiler import compile_source, program_cache_info
        from repro.frontend.listings import LISTING_6, LISTING_7
        from repro.pipeline.fabric import Fabric

        self.sources = {"saxpy": SAXPY, "matmul": MATMUL, "select": SELECT,
                        "rotate": ROTATE, "listing6": LISTING_6,
                        "listing7": LISTING_7}
        self.compile_source = compile_source
        self.program_cache_info = program_cache_info
        self.Fabric = Fabric
        # Fill the program cache with other programs, as on a long-running
        # host, so every new program of the timed rounds evicts one.
        fabric = Fabric(keep_lsu_samples=False)
        for filler in range(program_cache_info()["maxsize"]):
            compile_source(fabric, SAXPY, defines={
                "VARIANT": FILLER_VARIANTS + filler, "SCALE": 1})
        # Warm-up: one launch of each kind at its smallest size, under a
        # VARIANT no timed item uses.
        seen = set()
        for spec in self.specs:
            if spec[0] not in seen:
                seen.add(spec[0])
                self._variants += 1
                item = {"spec": spec, "variant": self._variants}
                if not self.check(item, self.run_item(item, NullTracer(), {})):
                    raise RuntimeError(f"warm-up launch of {spec} is wrong")

    def prepare_expected(self) -> None:
        """References are computed per item by :meth:`check` (numpy)."""

    def run_item(self, item, tracer, counts: Dict[str, Any]) -> Dict[str, Any]:
        kind, size = item["spec"]
        a, b = self.inputs[item["spec"]]
        defines = {"VARIANT": item["variant"],
                   "SCALE": self.scale[item["spec"]]}
        with tracer.span("sim.fabric"):
            fabric = self.Fabric(keep_lsu_samples=False)
        before = self.program_cache_info()["hits"]
        with tracer.span("frontend.compile_source"):
            program = self.compile_source(fabric, self.sources[kind],
                                          defines=defines)
        hit = self.program_cache_info()["hits"] > before
        if tracer.enabled and not hit:
            _, start, end, _, _ = tracer.spans[-1]
            self.cold_compile_s.append(end - start)
        with tracer.span("memory.allocate"):
            fabric.memory.allocate("A", len(a)).fill(a)
            fabric.memory.allocate("B", len(b)).fill(b)
            if kind in ("listing6", "listing7"):
                rows, num = size
                fabric.memory.allocate("C", rows)
                for name in ("I1", "I2", "I3"):
                    fabric.memory.allocate(name, rows * 10 + 1)
            else:
                fabric.memory.allocate("C", len(a) if kind != "matmul"
                                       else size[0] * size[2])
        args, executor = self._launch_args(kind, size, item["spec"])
        kernel = program.kernel("matvec" if kind.startswith("listing")
                                else kind)
        with tracer.span("pipeline.run_kernel"):
            engine = fabric.run_kernel(kernel, args, executor=executor)
        if tracer.enabled:
            _, start, end, _, _ = tracer.spans[-1]
            self.run_kernel_s.append(end - start)
            launched_s = end - start
        if kind.startswith("listing"):
            with tracer.span("sim.stop_autorun"):
                fabric.stop_autorun()
        with tracer.span("memory.snapshot"):
            out = fabric.memory.buffer("C").snapshot()
        stats = fabric.memory.stats
        tally = {
            "sim.cycles": fabric.sim.now,
            "pipeline.iterations_retired": engine.stats.iterations_retired,
            "pipeline.issue_stall_cycles": engine.stats.issue_stall_cycles,
            "memory.loads": stats.loads,
            "memory.stores": stats.stores,
            "memory.row_hits": stats.row_hits,
            "memory.row_misses": stats.row_misses,
            "memory.total_load_latency": stats.total_load_latency,
            "frontend.compiles": 0 if hit else 1,
            "frontend.cache_hits": 1 if hit else 0,
        }
        table = executor == "batch" and engine.batch.mode == "table"
        if executor == "batch":
            tally["pipeline.batch_attempts"] = 1
            tally["pipeline.batch_table"] = int(table)
            tally["pipeline.batch_fallbacks"] = int(not table)
        if not table:
            tally["sim.stepped_cycles"] = fabric.sim.now
            if tracer.enabled:
                self.stepped_run_s.append(launched_s)
        add_counts(counts, tally)
        return {"out": out}

    def _launch_args(self, kind: str, size: Any, spec) -> Tuple[Dict, str]:
        if kind in ("listing6", "listing7"):
            rows, num = size
            args = {"x": "A", "y": "B", "z": "C", "info1": "I1",
                    "info2": "I2", "info3": "I3", "num": num}
            if kind == "listing6":
                args["n"] = rows
            else:
                args["__global_size"] = rows
            return args, "fast"
        args = {"a": "A", "b": "B", "c": "C"}
        if kind == "matmul":
            rows, col_a, col_b = size
            args.update(col_a=col_a, col_b=col_b,
                        __global_size=rows * col_b)
        else:
            args["__global_size"] = size
        if kind == "select":
            args["t"] = self.threshold[spec]
        if kind == "rotate":
            args["n"] = size
        return args, "batch"

    def check(self, item, output: Dict[str, Any]) -> bool:
        kind, size = item["spec"]
        a, b = self.inputs[item["spec"]]
        expected = expected_output(kind, size, a, b, self.scale[item["spec"]],
                                   item["variant"],
                                   self.threshold[item["spec"]])
        return bool(np.array_equal(np.asarray(output["out"]), expected))

    def layer_metrics(self, tracer, counts: Dict[str, Any],
                      tally: Dict[str, Any]) -> Dict[str, Any]:
        rounds = tally["rounds"]
        metrics = model_metrics(counts)
        metrics["frontend.compile_ms"] = (p50_ms(self.cold_compile_s), "ms")
        metrics["pipeline.run_kernel_ms"] = (p50_ms(self.run_kernel_s), "ms")
        # Host time per simulated cycle over the launches the stepping
        # tier ran (fallbacks and listings).
        stepped_s = sum(self.stepped_run_s)
        cycles = counts.get("sim.stepped_cycles", 0) * rounds
        metrics["sim.host_us_per_cycle"] = (
            stepped_s * 1e6 / cycles if cycles else 0.0, "us/cycle")
        return metrics

    def close(self) -> None:
        pass
