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
table-execute (hazards, barriers, ``__local`` memory) must
fall back transparently and still match — ``executor="batch"`` is always
safe to request.

Example budget: ``BATCH_EQUIV_EXAMPLES`` (default 60); CI runs a
dedicated step with a larger budget.
"""

from __future__ import annotations

import os
import re
import time

import numpy as np
import pytest
from hypothesis import find, given, settings, strategies as st

from repro.frontend import FrontendError, compile_source, program_cache_clear
from repro.frontend.listings import LISTING_6, LISTING_7
from repro.pipeline.engine import ONE_ITERATION
from repro.pipeline.fabric import Fabric
from repro.pipeline.kernel import PipelineConfig
from repro.pipeline.replay import timeline_cache_clear
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
def _stmts(draw, depth=0, loop_depth=0, convergent=False):
    """One source-text statement (possibly a nested block construct).

    Branch conditions and loop bounds that read ``gid`` or ``in[...]``
    make control flow diverge across work-items: the batch engine splits
    its rows at such an ``if``, drops rows out of such a loop, and
    clears the rows that take a ``return``, ``break`` or ``continue``
    from the rest of the body or loop. ``out[...] op=`` statements read
    and write the output buffer, tripping the batch hazard detector. The
    property holds whichever path executes the launch.

    ``convergent`` leaves out both: no ``out[...] op=`` and no partial
    ``return``, ``break`` or ``continue``, so batch Phase A plans the
    whole launch (branches and loop trips may still differ per row).
    """
    node = draw(st.integers(0, 16))
    if node <= 2:
        target = draw(st.sampled_from(["a", "b", "c"]))
        op = draw(st.sampled_from(["=", "+=", "-=", "*="]))
        return f"{target} {op} {draw(_exprs())};"
    if node == 3:
        return f"acc[((gid + a) & {_ACC - 1})] = {draw(_exprs())};"
    if node == 4:
        op = draw(st.sampled_from(["="] if convergent else ["=", "+=", "-="]))
        return f"out[(b & {_BUF - 1})] {op} {draw(_exprs())};"
    if node == 5:
        target = draw(st.sampled_from(["a", "b", "c"]))
        return f"{target}{draw(st.sampled_from(['++', '--']))};"
    if node == 6:
        return f"out[(c & {_BUF - 1})] = in[(a & {_BUF - 1})];"
    if node == 13 and not convergent:
        return f"if ((({draw(_exprs())}) & 3) == (gid & 3)) {{ return; }}"
    if node == 14 and loop_depth > 0 and not convergent:
        keyword = draw(st.sampled_from(["break", "continue"]))
        return f"if ({draw(_exprs())}) {{ {keyword}; }}"
    if depth >= 2 or node <= 8 or node == 14:
        return f"a = {draw(_exprs())};"
    if node == 9:
        block = " ".join(draw(st.lists(
            _stmts(depth=depth + 1, loop_depth=loop_depth,
                   convergent=convergent),
            min_size=1, max_size=3)))
        other = draw(st.lists(_stmts(depth=depth + 1, loop_depth=loop_depth,
                                     convergent=convergent),
                              min_size=0, max_size=2))
        else_block = (" else { " + " ".join(other) + " }") if other else ""
        return f"if ({draw(_exprs())}) {{ {block} }}{else_block}"
    if node in (10, 15) and loop_depth < 2:
        var = f"i{loop_depth}"
        if node == 10:
            bound = str(draw(st.integers(1, 4)))
        else:
            bound = f"(({draw(_exprs())}) & 3)"     # data-dependent trips
        inner = draw(st.lists(
            _stmts(depth=depth + 1, loop_depth=loop_depth + 1,
                   convergent=convergent),
            min_size=1, max_size=3))
        return (f"for (int {var} = 0; {var} < {bound}; {var}++) "
                f"{{ {' '.join(inner)} c += {var}; }}")
    if node == 16 and loop_depth < 2:
        # The counter steps first, so a generated ``continue`` still ends.
        var = f"w{loop_depth}"
        inner = draw(st.lists(
            _stmts(depth=depth + 1, loop_depth=loop_depth + 1,
                   convergent=convergent),
            min_size=1, max_size=3))
        return (f"{{ int {var} = 0; while ({var} < ((gid + a) & 3)) "
                f"{{ {var}++; {' '.join(inner)} }} }}")
    # Node 11, or a loop nested too deep: a block-local declaration.
    return f"{{ int t = {draw(_exprs())}; b = t + 1; }}"


#: One pattern per statement shape :func:`_stmts` can produce.
_STMT_SHAPES = {
    "scalar assign": r"^[abc] [-+*]?= ",
    "private store": r"^acc\[\(\(gid \+ a\)",
    "global read-modify-write": r"^out\[\(b & 15\)\] [-+]?= ",
    "increment": r"^[abc](\+\+|--);$",
    "global copy": r"^out\[\(c & 15\)\] = in\[",
    "if/else": r"^if \(.*\) \{ .* \} else \{ .* \}$",
    "constant-trip for": r"^for \(int i0 = 0; i0 < \d; ",
    "data-dependent for": r"^for \(int i0 = 0; i0 < \(\(",
    "while": r"^\{ int w0 = 0; while ",
    "block-local declaration": r"^\{ int t = ",
    "partial return": r"^if .* \{ return; \}$",
    "break": r"\{ break; \}",
    "continue": r"\{ continue; \}",
}


@pytest.mark.parametrize("shape", sorted(_STMT_SHAPES))
def test_generator_draws_every_statement_shape(shape):
    pattern = re.compile(_STMT_SHAPES[shape])
    find(_stmts(), lambda text: pattern.search(text) is not None,
         settings=settings(database=None, max_examples=2000))


@st.composite
def _kernel_sources(draw, convergent=False):
    body = draw(st.lists(_stmts(convergent=convergent), min_size=1,
                         max_size=8))
    lines = [
        "int gid = get_global_id(0);",
        f"int a = {draw(st.integers(0, 9))};",
        f"int b = {draw(st.integers(0, 9))};",
        "int c = 0;",
        f"int acc[{_ACC}];",
    ] + body + [
        f"out[(gid & {_BUF - 1})] = c + acc[((gid + b) & {_ACC - 1})];",
    ]
    source = (
        "__kernel void k(__global int* in, __global int* out, int n) {\n"
        + "\n".join("    " + line for line in lines) + "\n}\n")
    if convergent:
        # Phase A cannot plan a short-circuit operator whose operand
        # reads memory: make them bitwise.
        source = source.replace("&&", "&").replace("||", "|")
    return source


@st.composite
def _float_exprs(draw, depth=0):
    """A source-text expression over ``double`` buffer values (quarters
    in [-1.25, 10]), small ints and ``gid``: ``+ - * /``, the
    comparisons, ``!`` and unary ``-``. Divisors are at least 2."""
    leaves = [
        st.integers(-9, 9).map(str),
        st.sampled_from(["x", "y", "gid"]),
        st.sampled_from(["in[(gid & 15)]", "in[((gid + 3) & 15)]"]),
    ]
    node = draw(st.integers(0, 7))
    if depth >= 3 or node <= 2:
        return draw(st.one_of(leaves))
    left = draw(_float_exprs(depth=depth + 1))
    if node == 6:
        return f"({draw(st.sampled_from(['!', '-']))}({left}))"
    right = draw(_float_exprs(depth=depth + 1))
    if node == 3:
        return f"({left} {draw(st.sampled_from(['+', '-', '*']))} {right})"
    if node == 4:
        op = draw(st.sampled_from(["<", ">", "<=", ">=", "==", "!="]))
        return f"({left} {op} {right})"
    return f"({left} / (2 + ({right}) * ({right})))"


@st.composite
def _float_kernel_sources(draw):
    """A straight-line kernel over ``double`` buffers: every row runs
    every statement, so no column mixes ints and floats."""
    body = []
    for _ in range(draw(st.integers(1, 6))):
        target = draw(st.sampled_from(
            ["x", "y", "out[((gid + 1) & 15)]", "out[((gid + 2) & 15)]"]))
        body.append(f"{target} = {draw(_float_exprs())};")
    lines = ["int gid = get_global_id(0);",
             "double x = in[(gid & 15)];",
             "double y = in[((gid + 5) & 15)];"] + body + [
        "out[(gid & 15)] = x + y;"]
    return ("__kernel void k(__global double* in, __global double* out, "
            "int n) {\n" + "\n".join("    " + line for line in lines)
            + "\n}\n")


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
                   buffers=(("IN", "in"), ("OUT", "out")), n=7,
                   pipeline=None, dtype="int64"):
    fabric = Fabric(keep_lsu_samples=True)
    program = compile_source(fabric, source)
    args = {"n": n, "__global_size": global_size}
    values = np.arange(_BUF) * 3 - 5
    if dtype == "float64":
        values = values / 4
    for alloc_name, arg_name in buffers:
        fabric.memory.allocate(alloc_name, _BUF, dtype=dtype).fill(values)
        args[arg_name] = alloc_name
    compiled = program.kernel(kernel)
    if pipeline is not None:
        compiled.pipeline = pipeline
    engine = run_kernel(fabric, compiled, args, executor=executor)
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
    # Ordered: LSUs are registered at their site's first issue.
    assert list(_lsu_snapshot(batch_engine).items()) == \
        list(_lsu_snapshot(ref_engine).items())
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


#: Narrow pipelines: an initiation interval above 1 leaves gaps between
#: issues, and a few slots fill before the first row retires.
_PIPELINES = st.builds(PipelineConfig, ii=st.integers(1, 3),
                       max_inflight=st.sampled_from([1, 2, 5, 64]))


class TestBatchEquivalenceUnderPressure:
    """Table mode under launcher pressure: up to 80 rows through a
    pipeline of 1, 2, 5 or 64 slots at II 1-3, so the replay's
    full-pipeline stall, its slot re-arm at a retire and its II gap all
    meet the oracle."""

    @given(source=st.one_of(_kernel_sources(),
                            _kernel_sources(convergent=True)),
           global_size=st.integers(0, 80), pipeline=_PIPELINES)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_batch_matches_reference_under_pressure(self, source,
                                                    global_size, pipeline):
        program_cache_clear()
        batch = _run_generated(source, global_size, "batch",
                               pipeline=pipeline)
        ref = _run_generated(source, global_size, "reference",
                             pipeline=pipeline)
        _assert_equivalent(batch, ref, ["IN", "OUT"])

    def test_narrow_pipeline_stalls_in_table_mode(self):
        source = """
        __kernel void k(__global int* in, __global int* out, int n) {
            int gid = get_global_id(0);
            out[gid & 15] = in[(gid * 5) & 15] + in[gid & 15] * n;
        }
        """
        pipeline = PipelineConfig(ii=2, max_inflight=2)
        program_cache_clear()
        batch = _run_generated(source, 80, "batch", pipeline=pipeline)
        ref = _run_generated(source, 80, "reference", pipeline=pipeline)
        assert batch[1].batch.mode == "table"
        assert batch[1].stats.issue_stall_cycles > 0
        _assert_equivalent(batch, ref, ["IN", "OUT"])


def _assert_planned(run, global_size):
    """A convergent launch runs in the table, but for one work-item,
    which takes the bodies replay."""
    outcome = run[1].batch
    if global_size == 1:
        assert (outcome.mode, outcome.reason) == ("fallback", ONE_ITERATION)
        assert run[1].stepped_reason is None
    else:
        assert outcome.mode == "table", outcome


class TestPlannedMatchesBodies:
    """The replay's two launch feeders against each other and the
    oracle. A convergent kernel without ``__local`` memory or a barrier
    runs three ways: the product engine plans it in Phase A and times
    the op lists (``LaunchReplay.run_planned``); the test-side
    ``"bodies"`` engine, with the table switched off, replays the
    compiled body generators (``LaunchReplay.run_bodies``); the
    reference executor steps it."""

    @given(source=_kernel_sources(convergent=True),
           global_size=st.integers(0, 40), pipeline=_PIPELINES)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_planned_bodies_and_reference_agree(self, source, global_size,
                                                pipeline):
        program_cache_clear()
        planned = _run_generated(source, global_size, "batch",
                                 pipeline=pipeline)
        bodies = _run_generated(source, global_size, "bodies",
                                pipeline=pipeline)
        ref = _run_generated(source, global_size, "reference",
                             pipeline=pipeline)
        _assert_planned(planned, global_size)
        assert bodies[1].stepped_reason is None
        assert bodies[1].batch.mode == ""
        _assert_equivalent(planned, ref, ["IN", "OUT"])
        _assert_equivalent(bodies, ref, ["IN", "OUT"])

    @given(source=_float_kernel_sources(), global_size=st.integers(0, 40),
           pipeline=_PIPELINES)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_float_planned_bodies_and_reference_agree(self, source,
                                                      global_size, pipeline):
        """The same over ``double`` buffers: float64 columns follow the
        closures' float semantics, C's floating ``/`` included."""
        program_cache_clear()
        runs = [_run_generated(source, global_size, executor,
                               pipeline=pipeline, dtype="float64")
                for executor in ("batch", "bodies", "reference")]
        planned, bodies, ref = runs
        _assert_planned(planned, global_size)
        assert bodies[1].stepped_reason is None
        _assert_equivalent(planned, ref, ["IN", "OUT"])
        _assert_equivalent(bodies, ref, ["IN", "OUT"])

    @pytest.mark.parametrize("listing,rows,num", [
        (6, 3, 12), (7, 2, 5), (7, 6, 16), (7, 16, 32)])
    def test_listings_planned_bodies_and_reference_agree(self, listing,
                                                         rows, num):
        """Listings 6/7 with their timer and sequence probes: Listing
        7's work-items run as planned rows whose channel reads the loop
        fills in (Listing 6, one iteration, replays its body), against
        the replayed bodies and stepping; the channels' statistics
        too."""
        runs = [_run_listing(listing, rows, num, executor)
                for executor in ("batch", "bodies", "reference")]
        planned, bodies, ref = runs
        if listing == 7:
            assert planned[1].batch.mode == "table", planned[1].batch
        else:
            assert planned[1].batch.reason == ONE_ITERATION
        buffers = ["Z", "I1", "I2", "I3"]
        _assert_equivalent(planned, ref, buffers)
        _assert_equivalent(bodies, ref, buffers)
        tables = [fabric.channels.stats_table() for fabric, _ in runs]
        assert tables[0] == tables[1] == tables[2]


def _run_listing(listing, rows, num, executor):
    """Listing 6 (``n = rows``) or 7 (``rows`` work-items) with its
    compiled timer and sequence services, on a fresh fabric."""
    fabric = Fabric(keep_lsu_samples=True)
    program = compile_source(
        fabric, LISTING_6 if listing == 6 else LISTING_7)
    memory = fabric.memory
    memory.allocate("X", rows * num).fill(np.arange(rows * num) % 11)
    memory.allocate("Y", num).fill(np.arange(num) % 5 - 2)
    memory.allocate("Z", rows)
    for name in ("I1", "I2", "I3"):
        memory.allocate(name, rows * min(num, 10) + 1)
    args = {"x": "X", "y": "Y", "z": "Z", "info1": "I1", "info2": "I2",
            "info3": "I3", "num": num}
    if listing == 6:
        args["n"] = rows
    else:
        args["__global_size"] = rows
    engine = run_kernel(fabric, program.kernel("matvec"), args,
                        executor=executor)
    return fabric, engine


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
    The timeline memo is cleared first, so table launches run their
    issue loop.
    """
    timeline_cache_clear()
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
        modes.append(engine.batch.mode)
    return cycles, elapsed, modes


@pytest.mark.skipif(_cpus() < 4,
                    reason="wall-clock speedup gate needs an unloaded host "
                           "with >= 4 CPUs")
class TestBatchSpeedupGate:
    def test_ndrange_batch_speedup_floor(self):
        """The acceptance floor: >= 3x sim-cycles/s of table mode over
        per-iteration stepping on the fast drive loop (the ``"stepped"``
        executor: the fast executor itself replays these compiled
        kernels) on the convergent NDRange gate workload. Every tier
        must agree exactly on simulated cycles (batch is bit-equal to
        the oracles)."""
        rates = {}
        cycle_counts = {}
        batch_modes = None
        for tier in ("stepped", "fast", "reference", "batch"):
            cycles, elapsed, modes = _ndrange_batch_round(tier)
            rates[tier] = cycles / elapsed
            cycle_counts[tier] = cycles
            if tier == "batch":
                batch_modes = modes
        assert len(set(cycle_counts.values())) == 1, (
            f"executor tiers disagree on simulated cycles: {cycle_counts}")
        assert batch_modes == ["table", "table"]
        speedup = rates["batch"] / rates["stepped"]
        assert speedup >= 3.0, (
            f"batch speedup {speedup:.2f}x < 3x "
            f"(batch {rates['batch']:,.0f} vs stepped "
            f"{rates['stepped']:,.0f} sim-cycles/s)")


#: CSR sparse matrix-vector product: each work-item's trip count is its
#: row's nonzero count, so rows leave the loop at different trips.
_SPMV_CSR = """
__kernel void spmv(__global int* ptr, __global int* col, __global int* val,
                   __global int* x, __global int* y) {
    int gid = get_global_id(0);
    int sum = 0;
    for (int j = ptr[gid]; j < ptr[gid + 1]; j++) {
        sum += val[j] * x[col[j]];
    }
    y[gid] = sum;
}
"""


def _run_buffers(source, kernel, buffers, args, executor):
    fabric = Fabric(keep_lsu_samples=True)
    program = compile_source(fabric, source)
    for name, values in buffers.items():
        fabric.memory.allocate(name, len(values)).fill(np.asarray(values))
    engine = run_kernel(fabric, program.kernel(kernel), args,
                        executor=executor)
    return fabric, engine


class TestSpmvCsr:
    @pytest.mark.parametrize("seed", range(20))
    def test_spmv_runs_in_table_mode_and_matches(self, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 13))
        width = 8
        counts = rng.integers(0, 5, size=rows)
        ptr = np.concatenate([[0], np.cumsum(counts)])
        nnz = max(int(ptr[-1]), 1)
        buffers = {"PTR": ptr, "COL": rng.integers(0, width, size=nnz),
                   "VAL": rng.integers(-9, 10, size=nnz),
                   "X": rng.integers(-9, 10, size=width), "Y": [0] * rows}
        args = {"ptr": "PTR", "col": "COL", "val": "VAL", "x": "X",
                "y": "Y", "__global_size": rows}
        runs = []
        for executor in ("batch", "reference"):
            program_cache_clear()
            runs.append(_run_buffers(_SPMV_CSR, "spmv", buffers, args,
                                     executor))
        outcome = runs[0][1].batch
        assert (outcome.mode, outcome.divergence) == ("table", 0)
        _assert_equivalent(runs[0], runs[1], list(buffers))
        dense = np.zeros((rows, width), dtype=np.int64)
        for row in range(rows):
            for j in range(ptr[row], ptr[row + 1]):
                dense[row, buffers["COL"][j]] += buffers["VAL"][j]
        assert list(runs[0][0].memory.buffer("Y").snapshot()) == \
            list(dense @ buffers["X"])


#: The control-flow stress shapes of oclude's ``stress.cl``, written here
#: with conditions and bounds that read the work-item's own input. Each
#: entry names the outcome it must have: a batch mode, or "rejected" for
#: syntax the OpenCL-C subset does not parse.
_STRESS_SHAPES = {
    "boolvar": ("""
        bool big = in[gid] > 4;
        if (big) { out[gid] = in[gid]; } else { out[gid] = gid; }
    """, "table"),
    "if": ("""
        int x = in[gid];
        if (x % 3 == 0) { out[gid] = in[(gid + 1) & 15] + x; }
    """, "table"),
    "muchif": ("""
        int x = in[gid];
        if (x < 0) { out[gid] = -x; }
        else if (x < 8) { out[gid] = in[(x + gid) & 15]; }
        else { out[gid] = x * 2; }
        if (gid & 1) { out[gid + 16] = x; }
        if ((x & 3) == 1) { if (gid > 4) { out[gid + 16] = -x; } }
    """, "table"),
    "while": ("""
        int i = 0;
        int sum = 0;
        while (i < (in[gid] & 7)) { sum += in[(gid + i) & 15]; i++; }
        out[gid] = sum;
    """, "table"),
    "dowhile": ("""
        int i = 0;
        do { out[gid] = i; i++; } while (i < (in[gid] & 3));
    """, "rejected"),
    "for": ("""
        int sum = 0;
        for (int i = gid; i < 2 * gid; i++) { sum += in[i & 15]; }
        for (int k = 0; k < (in[gid] & 3); k++) {
            for (int m = 0; m < k + (gid & 1); m++) { sum += in[m]; }
        }
        out[gid] = sum;
    """, "table"),
    "ternary": ("""
        int x = in[gid];
        out[gid] = x > 4 ? in[(gid + 1) & 15] : in[(gid + 2) & 15];
        out[gid + 16] = x > 7 ? x : -x;
    """, "rejected"),
    "switch": ("""
        int x = in[gid];
        switch (x & 3) {
            case 0: out[gid] = in[gid]; break;
            case 1: out[gid] = x + 1;
            case 2: out[gid + 16] = x; break;
            default: out[gid] = -x;
        }
    """, "fallback"),
}


class TestStressShapes:
    """Each shape runs equal to the oracle, or is rejected with a
    positioned ``FrontendError``."""

    @pytest.mark.parametrize("name", sorted(_STRESS_SHAPES))
    def test_shape_matches_reference_or_is_rejected(self, name):
        body, outcome = _STRESS_SHAPES[name]
        source = ("__kernel void k(__global int* in, __global int* out, "
                  "int n) {\n    int gid = get_global_id(0);\n"
                  + body + "\n}\n")
        values = (np.arange(_BUF) * 7 + 3) % 13 - 2
        buffers = {"IN": values, "OUT": [0] * (2 * _BUF)}
        args = {"in": "IN", "out": "OUT", "n": _BUF, "__global_size": _BUF}
        runs = []
        for executor in ("batch", "reference"):
            program_cache_clear()
            try:
                runs.append(_run_buffers(source, "k", buffers, args,
                                         executor))
            except FrontendError as exc:
                assert outcome == "rejected", str(exc)
                assert exc.line and exc.column, str(exc)
                return
        assert runs[0][1].batch.mode == outcome, runs[0][1].batch
        _assert_equivalent(runs[0], runs[1], list(buffers))
