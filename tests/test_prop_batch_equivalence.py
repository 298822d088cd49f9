"""Property test: ``executor="batch"`` is observationally equal to the
reference executor.

Hypothesis generates random NDRange kernels — arithmetic on
``get_global_id``, divergent branches, private arrays, global loads and
stores (including read-modify-write patterns that trip the intra-launch
hazard detector) — and runs each under ``executor="batch"`` and
``executor="reference"`` on independent fabrics. Every externally
observable surface must match exactly: buffer contents, ``sim.now``,
engine statistics (including issue-stall cycles and the per-iteration
trace), global-memory statistics and per-buffer traffic, and the
per-(site, kind) LSU timing snapshots. Kernels the batch engine cannot
table-execute (divergence, hazards, barriers, ``__local`` memory) must
fall back transparently and still match — ``executor="batch"`` is always
safe to request.

Example budget: ``BATCH_EQUIV_EXAMPLES`` (default 60); CI runs a
dedicated step with a larger budget.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend import compile_source, program_cache_clear
from repro.pipeline.fabric import Fabric
from tests.executor_oracle import run_kernel

MAX_EXAMPLES = int(os.environ.get("BATCH_EQUIV_EXAMPLES", "60"))

_BUF = 16         # size of the in/out buffers
_ACC = 8          # size of the private array


@st.composite
def _exprs(draw, depth=0):
    """A source-text expression; total values stay modest via & masks."""
    leaves = [
        st.integers(-9, 9).map(str),
        st.sampled_from(["a", "b", "c", "n", "gid"]),
        st.just(f"in[((gid + a) & {_BUF - 1})]"),
        st.just(f"acc[(b & {_ACC - 1})]"),
    ]
    if depth >= 3:
        return draw(st.one_of(leaves))
    node = draw(st.integers(0, 9))
    if node <= 3:
        return draw(st.one_of(leaves))
    left = draw(_exprs(depth=depth + 1))
    right = draw(_exprs(depth=depth + 1))
    if node == 4:
        op = draw(st.sampled_from(["+", "-", "*", "&", "|", "^"]))
        return f"({left} {op} {right})"
    if node == 5:
        op = draw(st.sampled_from(["<", ">", "<=", ">=", "==", "!="]))
        return f"({left} {op} {right})"
    if node == 6:
        op = draw(st.sampled_from(["&&", "||"]))
        return f"({left} {op} {right})"
    if node == 7:
        op = draw(st.sampled_from(["/", "%"]))
        # Denominator folded into [1, 8] — never zero.
        return f"({left} {op} (1 + ({right} & 7)))"
    if node == 8:
        op = draw(st.sampled_from(["!", "-", "~"]))
        return f"({op}({left}))"
    shift = draw(st.integers(0, 3))
    return f"(({left} & 255) << {shift})"


@st.composite
def _stmts(draw, depth=0, loop_depth=0):
    """One source-text statement (possibly a nested block construct).

    Statements referencing ``gid`` in branch conditions make control
    flow diverge across work-items; ``out[...] op=`` statements read and
    write the output buffer, tripping the batch hazard detector. Both
    force the batch engine down its fallback path — on purpose: the
    property holds regardless of which path executes the launch.
    """
    node = draw(st.integers(0, 11))
    if node <= 2:
        target = draw(st.sampled_from(["a", "b", "c"]))
        op = draw(st.sampled_from(["=", "+=", "-=", "*="]))
        return f"{target} {op} {draw(_exprs())};"
    if node == 3:
        return f"acc[((gid + a) & {_ACC - 1})] = {draw(_exprs())};"
    if node == 4:
        op = draw(st.sampled_from(["=", "+=", "-="]))
        return f"out[(b & {_BUF - 1})] {op} {draw(_exprs())};"
    if node == 5:
        target = draw(st.sampled_from(["a", "b", "c"]))
        return f"{target}{draw(st.sampled_from(['++', '--']))};"
    if node == 6:
        return f"out[(c & {_BUF - 1})] = in[(a & {_BUF - 1})];"
    if depth >= 2 or node <= 8:
        return f"a = {draw(_exprs())};"
    inner = draw(st.lists(_stmts(depth=depth + 1, loop_depth=loop_depth),
                          min_size=1, max_size=3))
    block = " ".join(inner)
    if node == 9:
        other = draw(st.lists(_stmts(depth=depth + 1, loop_depth=loop_depth),
                              min_size=0, max_size=2))
        else_block = (" else { " + " ".join(other) + " }") if other else ""
        return f"if ({draw(_exprs())}) {{ {block} }}{else_block}"
    if node == 10 and loop_depth < 2:
        var = f"i{loop_depth}"
        bound = draw(st.integers(1, 4))
        inner = draw(st.lists(
            _stmts(depth=depth + 1, loop_depth=loop_depth + 1),
            min_size=1, max_size=3))
        return (f"for (int {var} = 0; {var} < {bound}; {var}++) "
                f"{{ {' '.join(inner)} c += {var}; }}")
    return f"{{ int t = {draw(_exprs())}; b = t + 1; }}"


@st.composite
def _kernel_sources(draw):
    body = draw(st.lists(_stmts(), min_size=1, max_size=8))
    lines = [
        "int gid = get_global_id(0);",
        f"int a = {draw(st.integers(0, 9))};",
        f"int b = {draw(st.integers(0, 9))};",
        "int c = 0;",
        f"int acc[{_ACC}];",
    ] + body + [
        f"out[(gid & {_BUF - 1})] = c + acc[((gid + b) & {_ACC - 1})];",
    ]
    return (
        "__kernel void k(__global int* in, __global int* out, int n) {\n"
        + "\n".join("    " + line for line in lines) + "\n}\n")


def _lsu_snapshot(engine):
    """Per-LSU timing stats with *rank-normalized* site labels.

    Each ``compile_source`` call parses fresh AST nodes, so the numeric
    part of a site label (``k:n<node_id>``) differs between the two
    compiles even though the ASTs are structurally identical. Node ids
    are assigned in parse order, so ranking them restores a stable
    correspondence: the i-th static site of one compile must carry
    exactly the timings of the i-th static site of the other.
    """
    raw = {}
    for (site, kind), lsu in engine.lsus.items():
        stats = lsu.stats
        raw[(site, kind)] = (
            stats.issued, stats.completed, stats.total_latency,
            stats.max_latency, stats.ordering_stall_cycles,
            tuple(stats.samples))

    def _site_id(site):
        kernel, _, node = site.rpartition(":n")
        return (kernel, int(node))

    ordered = sorted({site for site, _ in raw}, key=_site_id)
    rank = {site: f"{_site_id(site)[0]}:site{index}"
            for index, site in enumerate(ordered)}
    return {(rank[site], kind): value
            for (site, kind), value in raw.items()}


def _memory_snapshot(fabric):
    stats = fabric.memory.stats
    return (
        (stats.loads, stats.stores, stats.row_hits, stats.row_misses,
         stats.total_load_latency, stats.bytes_read, stats.bytes_written),
        {name: (t.loads, t.stores, t.bytes_read, t.bytes_written)
         for name, t in fabric.memory.traffic.items()},
    )


def _run_generated(source, global_size, executor, kernel="k",
                   buffers=(("IN", "in"), ("OUT", "out")), n=7):
    fabric = Fabric(keep_lsu_samples=True)
    program = compile_source(fabric, source)
    args = {"n": n, "__global_size": global_size}
    for alloc_name, arg_name in buffers:
        fabric.memory.allocate(alloc_name, _BUF).fill(
            np.arange(_BUF) * 3 - 5)
        args[arg_name] = alloc_name
    engine = run_kernel(fabric, program.kernel(kernel), args,
                        executor=executor)
    return fabric, engine


def _assert_equivalent(batch, ref, buffers):
    batch_fabric, batch_engine = batch
    ref_fabric, ref_engine = ref
    assert batch_fabric.sim.now == ref_fabric.sim.now
    bs, rs = batch_engine.stats, ref_engine.stats
    assert (bs.iterations_issued, bs.iterations_retired) == \
        (rs.iterations_issued, rs.iterations_retired)
    assert (bs.start_cycle, bs.finish_cycle) == \
        (rs.start_cycle, rs.finish_cycle)
    assert bs.issue_stall_cycles == rs.issue_stall_cycles
    assert bs.iteration_trace == rs.iteration_trace
    assert _lsu_snapshot(batch_engine) == _lsu_snapshot(ref_engine)
    assert _memory_snapshot(batch_fabric) == _memory_snapshot(ref_fabric)
    assert batch_fabric.memory.pending_commits == 0
    assert ref_fabric.memory.pending_commits == 0
    for name in buffers:
        batch_buffer = batch_fabric.memory.buffer(name)
        ref_buffer = ref_fabric.memory.buffer(name)
        assert list(batch_buffer.snapshot()) == list(ref_buffer.snapshot()), \
            f"buffer {name!r} diverged"


class TestBatchEquivalence:
    @given(source=_kernel_sources(), global_size=st.integers(0, 12))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_batch_matches_reference(self, source, global_size):
        program_cache_clear()
        batch = _run_generated(source, global_size, "batch")
        ref = _run_generated(source, global_size, "reference")
        outcome = batch[1].batch
        assert outcome.mode in ("table", "fallback")
        if outcome.mode == "table":
            assert outcome.divergence == 0 and outcome.reason == ""
        _assert_equivalent(batch, ref, ["IN", "OUT"])

    @given(n=st.integers(1, 16))
    @settings(max_examples=max(4, MAX_EXAMPLES // 10), deadline=None)
    def test_local_and_barrier_kernels_fall_back_and_match(self, n):
        """The canonical __local + barrier work-group reverse: statically
        ineligible for table mode, still bit-equal through the fallback."""
        source = """
        __kernel void reverse(__global int* in, __global int* out, int n) {
            __local int stage[%d];
            int gid = get_global_id(0);
            stage[gid] = in[gid];
            barrier(CLK_LOCAL_MEM_FENCE);
            out[gid] = stage[n - 1 - gid];
        }
        """ % _BUF
        program_cache_clear()
        batch = _run_generated(source, n, "batch", kernel="reverse", n=n)
        ref = _run_generated(source, n, "reference", kernel="reverse", n=n)
        assert batch[1].batch.mode == "fallback"
        assert batch[1].batch.reason == "__local memory"
        _assert_equivalent(batch, ref, ["IN", "OUT"])
        assert list(batch[0].memory.buffer("OUT").snapshot())[:n] == \
            list(batch[0].memory.buffer("IN").snapshot())[:n][::-1]


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


#: The speedup gate's workload: two convergent NDRange kernels (no
#: divergent branches, no barriers) that the batch executor runs in table
#: mode — elementwise vecadd and a flattened matmul with a uniform inner
#: reduction loop.
_NDRANGE_BATCH_SOURCE = """
__kernel void vecadd(__global long* a, __global long* b, __global long* c) {
    int gid = get_global_id(0);
    c[gid] = a[gid] + b[gid];
}

__kernel void matmul(__global long* x, __global long* y, __global long* z,
                     int col_a, int col_b) {
    int gid = get_global_id(0);
    int row = gid / col_b;
    int col = gid % col_b;
    long acc = 0;
    for (int k = 0; k < col_a; k++) {
        acc += x[row * col_a + k] * y[k * col_b + col];
    }
    z[gid] = acc;
}
"""


def _ndrange_batch_round(executor: str):
    """One full run of both gate kernels under ``executor``.

    Returns (simulated cycles, wall seconds, per-launch batch modes).
    """
    vec_n = 8192
    rows, col_a, col_b = 24, 24, 24
    launches = (
        ("vecadd", {"A": np.arange(vec_n) % 97, "B": np.arange(vec_n) % 31,
                    "C": vec_n},
         {"a": "A", "b": "B", "c": "C", "__global_size": vec_n}),
        ("matmul", {"X": np.arange(rows * col_a) % 13,
                    "Y": np.arange(col_a * col_b) % 7, "Z": rows * col_b},
         {"x": "X", "y": "Y", "z": "Z", "col_a": col_a, "col_b": col_b,
          "__global_size": rows * col_b}),
    )
    modes = []
    cycles = 0
    elapsed = 0.0
    for kernel, buffers, args in launches:
        fabric = Fabric(keep_lsu_samples=False)
        program = compile_source(fabric, _NDRANGE_BATCH_SOURCE)
        for name, init in buffers.items():
            if isinstance(init, int):
                fabric.memory.allocate(name, init)
            else:
                fabric.memory.allocate(name, len(init)).fill(init)
        start = time.perf_counter()
        engine = run_kernel(fabric, program.kernel(kernel), args,
                            executor=executor)
        elapsed += time.perf_counter() - start
        cycles += fabric.sim.now
        modes.append(engine.batch.mode if hasattr(engine, "batch") else "-")
    return cycles, elapsed, modes


@pytest.mark.skipif(_cpus() < 4,
                    reason="wall-clock speedup gate needs an unloaded host "
                           "with >= 4 CPUs")
class TestBatchSpeedupGate:
    def test_ndrange_batch_speedup_floor(self):
        """The acceptance floor: >= 3x sim-cycles/s over the fast
        executor on the convergent NDRange gate workload. Every tier
        must agree exactly on simulated cycles (batch is bit-equal to
        the oracles)."""
        rates = {}
        cycle_counts = {}
        batch_modes = None
        for tier in ("fast", "reference", "batch"):
            cycles, elapsed, modes = _ndrange_batch_round(tier)
            rates[tier] = cycles / elapsed
            cycle_counts[tier] = cycles
            if tier == "batch":
                batch_modes = modes
        assert len(set(cycle_counts.values())) == 1, (
            f"executor tiers disagree on simulated cycles: {cycle_counts}")
        assert batch_modes == ["table", "table"]
        speedup = rates["batch"] / rates["fast"]
        assert speedup >= 3.0, (
            f"batch speedup {speedup:.2f}x < 3x "
            f"(batch {rates['batch']:,.0f} vs fast "
            f"{rates['fast']:,.0f} sim-cycles/s)")
