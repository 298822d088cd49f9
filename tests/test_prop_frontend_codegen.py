"""Property test: the closure-codegen frontend is observationally equal
to the reference tree-walking interpreter (``tests/frontend_oracle.py``).

Hypothesis generates random OpenCL-C kernels (arithmetic, compound
assignment, post-increment side effects, short-circuit logic, nested
loops, private arrays, global loads/stores) and compiles each both with
``compile_source`` and with the oracle's ``compile_reference`` on
independent fabrics. Every externally observable surface must match: buffer
contents, wall-clock time, engine statistics, and the per-(site, kind)
LSU timing snapshots — the last pins that both backends emit the *same
op stream with the same static site labels*, not merely the same final
values.

A second property runs the paper's Listing 6 (autorun service kernels,
channels, HDL-free instrumented matvec) at randomized sizes under both
backends.

Example budget: ``FRONTEND_EQUIV_EXAMPLES`` (default 60); CI runs a
dedicated step with a larger budget.
"""

from __future__ import annotations

import os

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.frontend import program_cache_clear
from repro.pipeline.fabric import Fabric
from tests.frontend_oracle import COMPILERS

MAX_EXAMPLES = int(os.environ.get("FRONTEND_EQUIV_EXAMPLES", "60"))

_BUF = 16         # size of the in/out buffers
_ACC = 8          # size of the private array


@st.composite
def _exprs(draw, depth=0):
    """A source-text expression; total values stay modest via & masks."""
    leaves = [
        st.integers(-9, 9).map(str),
        st.sampled_from(["a", "b", "c", "n"]),
        st.just(f"in[(a & {_BUF - 1})]"),
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
    """One source-text statement (possibly a nested block construct)."""
    node = draw(st.integers(0, 11))
    if node <= 2:
        target = draw(st.sampled_from(["a", "b", "c"]))
        op = draw(st.sampled_from(["=", "+=", "-=", "*="]))
        return f"{target} {op} {draw(_exprs())};"
    if node == 3:
        return f"acc[(a & {_ACC - 1})] = {draw(_exprs())};"
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
        f"int a = {draw(st.integers(0, 9))};",
        f"int b = {draw(st.integers(0, 9))};",
        "int c = 0;",
        f"int acc[{_ACC}];",
    ] + body + [
        f"for (int i0 = 0; i0 < {_ACC}; i0++) "
        f"{{ out[i0] = out[i0] + acc[i0]; }}",
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


def _run_generated(source, n, frontend):
    fabric = Fabric(keep_lsu_samples=True)
    program = COMPILERS[frontend](fabric, source)
    fabric.memory.allocate("IN", _BUF).fill(np.arange(_BUF) * 3 - 5)
    fabric.memory.allocate("OUT", _BUF)
    engine = fabric.run_kernel(program.kernel("k"),
                               {"in": "IN", "out": "OUT", "n": n})
    return fabric, engine


def _assert_equivalent(fast, ref, buffers):
    fast_fabric, fast_engine = fast
    ref_fabric, ref_engine = ref
    assert fast_fabric.sim.now == ref_fabric.sim.now
    fs, rs = fast_engine.stats, ref_engine.stats
    assert (fs.iterations_issued, fs.iterations_retired) == \
        (rs.iterations_issued, rs.iterations_retired)
    assert (fs.start_cycle, fs.finish_cycle) == \
        (rs.start_cycle, rs.finish_cycle)
    assert fs.issue_stall_cycles == rs.issue_stall_cycles
    assert fs.iteration_trace == rs.iteration_trace
    assert _lsu_snapshot(fast_engine) == _lsu_snapshot(ref_engine)
    for name in buffers:
        fast_buffer = fast_fabric.memory.buffer(name)
        ref_buffer = ref_fabric.memory.buffer(name)
        assert list(fast_buffer.snapshot()) == list(ref_buffer.snapshot()), \
            f"buffer {name!r} diverged"


class TestCodegenEquivalence:
    @given(source=_kernel_sources(), n=st.integers(0, 12))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_codegen_matches_reference(self, source, n):
        program_cache_clear()
        fast = _run_generated(source, n, "codegen")
        ref = _run_generated(source, n, "reference")
        _assert_equivalent(fast, ref, ["IN", "OUT"])

    @given(n_rows=st.integers(1, 6), num=st.integers(1, 16))
    @settings(max_examples=max(4, MAX_EXAMPLES // 10), deadline=None)
    def test_listing6_matches_reference(self, n_rows, num):
        """The paper's instrumented matvec (channels + autorun services)
        behaves identically under both backends at randomized sizes."""
        from repro.frontend.listings import LISTING_6

        program_cache_clear()
        outcomes = {}
        for frontend in ("codegen", "reference"):
            fabric = Fabric(keep_lsu_samples=True)
            program = COMPILERS[frontend](fabric, LISTING_6)
            fabric.memory.allocate("X", n_rows * num).fill(
                np.arange(n_rows * num))
            fabric.memory.allocate("Y", num).fill(np.arange(num))
            fabric.memory.allocate("Z", n_rows)
            for name in ("I1", "I2", "I3"):
                fabric.memory.allocate(name, n_rows * 10 + 1)
            engine = fabric.run_kernel(program.kernel("matvec"), {
                "x": "X", "y": "Y", "z": "Z", "info1": "I1", "info2": "I2",
                "info3": "I3", "n": n_rows, "num": num})
            snapshots = {
                name: list(fabric.memory.buffer(name).snapshot())
                for name in ("Z", "I1", "I2", "I3")}
            outcomes[frontend] = (fabric.sim.now, snapshots,
                                  _lsu_snapshot(engine),
                                  engine.stats.iteration_trace)
            fabric.stop_autorun()
        assert outcomes["codegen"] == outcomes["reference"]
