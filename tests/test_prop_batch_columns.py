"""Property test: batch Phase A's column operations are exact-or-abort.

Phase A computes every work-item's values a column at a time, in
``int64``/``float64`` numpy columns (:mod:`repro.pipeline.columns`),
where the closure backend computes Python ints of any width. Each
column operation must yield exactly the Python value on every row, or
abort the table attempt with a reason that names it, so the engine's
next tier computes the launch with the closures.

Hypothesis draws ``long`` operands near ±2**63 (and near the int32 and
int64 multiplication edges) and shift counts 0-70, for ``+ - * / % <<
>>`` and unary ``-``. The batch launch must equal the reference executor
(``tests/executor_oracle.py``): the same buffers, ``sim.now``, engine,
LSU and memory statistics, or the same raised exception type.

Example budget: ``BATCH_EQUIV_EXAMPLES`` (default 60), like the other
batch suites.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend import compile_source, program_cache_clear
from repro.pipeline.fabric import Fabric
from tests.executor_oracle import run_kernel
from tests.test_prop_batch_equivalence import _assert_equivalent

MAX_EXAMPLES = int(os.environ.get("BATCH_EQUIV_EXAMPLES", "60"))

_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1

#: int64 operands: both edges of the range, the products that just fit
#: or just overflow, small values and anything else.
_OPERANDS = st.one_of(
    st.integers(_I64_MIN, _I64_MIN + (1 << 16)),
    st.integers(_I64_MAX - (1 << 16), _I64_MAX),
    st.integers(-(1 << 33), 1 << 33),
    st.integers(3037000000, 3037001000).map(lambda v: v * (-1) ** (v & 1)),
    st.integers(-3, 3),
    st.integers(_I64_MIN, _I64_MAX),
)
_SHIFTS = st.integers(0, 70)

#: The reasons a column operation aborts with.
_COLUMN_REASONS = (
    "int64 overflow on ", "zero divisor in ", "shift count outside 0-63",
    "<< loses bits", "value does not fit int64")

_BINARY = ("+", "-", "*", "/", "%", "<<", ">>")


def _expected_reason(op, lefts, rights):
    """The reason a single ``out = x <op> y`` column must abort with on
    these rows, or "" when every row's value fits int64."""
    if op in ("<<", ">>"):
        if any(not 0 <= r <= 63 for r in rights):
            return "shift count outside 0-63"
        if op == "<<" and any(not _I64_MIN <= l << r <= _I64_MAX
                              for l, r in zip(lefts, rights)):
            return "<< loses bits"
        return ""
    if op in ("/", "%"):
        if 0 in rights:
            return f"zero divisor in {op}"
        if op == "/" and any(l == _I64_MIN and r == -1
                             for l, r in zip(lefts, rights)):
            return "int64 overflow on /"
        return ""
    if op == "neg":
        values = [-l for l in lefts]
        op = "unary -"
    else:
        apply = {"+": lambda l, r: l + r, "-": lambda l, r: l - r,
                 "*": lambda l, r: l * r}[op]
        values = [apply(l, r) for l, r in zip(lefts, rights)]
    if any(not _I64_MIN <= v <= _I64_MAX for v in values):
        return f"int64 overflow on {op}"
    return ""


def _launch(source, buffers, executor, size):
    """Run kernel ``k`` under ``executor``: ``(fabric, engine, error)``."""
    program_cache_clear()
    fabric = Fabric(keep_lsu_samples=True)
    program = compile_source(fabric, source)
    args = {"__global_size": size}
    for name, (values, dtype) in buffers.items():
        fabric.memory.allocate(name.upper(), len(values),
                               dtype=dtype).fill(values)
        args[name] = name.upper()
    try:
        engine = run_kernel(fabric, program.kernel("k"), args,
                            executor=executor)
    except Exception as exc:
        engine, = fabric.engines
        return fabric, engine, exc
    return fabric, engine, None


def _assert_batch_matches_reference(source, buffers, size):
    """The batch launch equals the reference one; returns the batch
    engine's outcome."""
    batch = _launch(source, buffers, "batch", size)
    ref = _launch(source, buffers, "reference", size)
    if ref[2] is not None or batch[2] is not None:
        assert type(batch[2]) is type(ref[2]), (batch[2], ref[2])
    else:
        _assert_equivalent(batch[:2], ref[:2],
                           [name.upper() for name in buffers])
    outcome = batch[1].batch
    if outcome.mode == "fallback":
        # Only an error the reference raises too (a constant division
        # by zero, say) may abort outside the column operations.
        named = _COLUMN_REASONS + (("body raised ",) if ref[2] else ())
        assert outcome.reason.startswith(named), outcome
    return outcome


def _rows(draw, count, elements):
    return draw(st.lists(elements, min_size=count, max_size=count))


class TestSingleColumnOps:
    """``out[gid] = x[gid] <op> y[gid]`` over rows drawn at the int64
    edges: the table runs exactly when every row's value fits, and
    otherwise names the operation."""

    @pytest.mark.parametrize("op", _BINARY + ("neg",))
    @given(data=st.data())
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_column_op_is_exact_or_names_its_abort(self, op, data):
        size = data.draw(st.integers(1, 6))
        lefts = _rows(data.draw, size, _OPERANDS)
        rights = _rows(data.draw, size,
                       _SHIFTS if op in ("<<", ">>") else _OPERANDS)
        value = "-x[gid]" if op == "neg" else f"x[gid] {op} y[gid]"
        source = ("__kernel void k(__global long* x, __global long* y, "
                  "__global long* out) {\n"
                  "    int gid = get_global_id(0);\n"
                  f"    out[gid] = {value};\n}}\n")
        buffers = {"x": (lefts, "int64"), "y": (rights, "int64"),
                   "out": ([0] * size, "int64")}
        outcome = _assert_batch_matches_reference(source, buffers, size)
        expected = _expected_reason(op, lefts, rights)
        assert (outcome.mode, outcome.reason) == \
            ("fallback" if expected else "table", expected)


@st.composite
def _int_exprs(draw, depth=0):
    """An expression over int64 edge operands; ``s[gid]`` is a shift
    count in 0-70."""
    leaves = st.sampled_from(["x[gid]", "y[gid]", "gid", "7", "-1"])
    if depth >= 2 or draw(st.integers(0, 3)) == 0:
        return draw(leaves)
    left = draw(_int_exprs(depth=depth + 1))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return f"(-({left}))"
    if kind == 1:
        return f"({left} {draw(st.sampled_from(['<<', '>>']))} s[gid])"
    right = draw(_int_exprs(depth=depth + 1))
    return f"({left} {draw(st.sampled_from(['+', '-', '*', '/', '%']))} " \
        f"{right})"


class TestColumnExpressions:
    @given(data=st.data(), expr=_int_exprs(), compound=st.sampled_from(
        ["=", "+=", "-=", "*=", "/=", "%="]))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_expression_matches_reference(self, data, expr, compound):
        """Nested column operations and a compound update of a variable
        equal the reference executor, or raise what it raises."""
        size = data.draw(st.integers(1, 6))
        buffers = {"x": (_rows(data.draw, size, _OPERANDS), "int64"),
                   "y": (_rows(data.draw, size, _OPERANDS), "int64"),
                   "s": (_rows(data.draw, size, _SHIFTS), "int64"),
                   "out": ([0] * size, "int64")}
        source = ("__kernel void k(__global long* x, __global long* y, "
                  "__global long* s, __global long* out) {\n"
                  "    int gid = get_global_id(0);\n"
                  "    long r = y[gid];\n"
                  f"    r {compound} {expr};\n"
                  "    out[gid] = r;\n}\n")
        _assert_batch_matches_reference(source, buffers, size)


class TestStoreConversion:
    def test_int32_store_overflow_raises_on_both_tiers(self):
        """A value >= 2**31 stored into an ``int`` buffer: the table
        hands ``BackingStore.write`` the Python int, so the commit
        raises numpy's OverflowError exactly as stepping does."""
        source = """
        __kernel void k(__global long* x, __global int* out) {
            int gid = get_global_id(0);
            out[gid] = x[gid] * 2;
        }
        """
        buffers = {"x": ([1, 2, 1 << 30, 3], "int64"),
                   "out": ([0] * 4, "int32")}
        batch = _launch(source, buffers, "batch", 4)
        ref = _launch(source, buffers, "reference", 4)
        assert batch[1].batch.mode == "table"
        assert type(batch[2]) is type(ref[2]) is OverflowError
        assert str(batch[2]) == str(ref[2])

    def test_uint64_beyond_int64_aborts(self):
        """An element no int64 column holds sends the launch to the next
        tier, which reads it as the Python int it is."""
        source = """
        __kernel void k(__global ulong* x, __global ulong* out) {
            int gid = get_global_id(0);
            out[gid] = x[gid] - 1;
        }
        """
        buffers = {"x": ([5, (1 << 64) - 1], "uint64"),
                   "out": ([0, 0], "uint64")}
        outcome = _assert_batch_matches_reference(source, buffers, 2)
        assert (outcome.mode, outcome.reason) == \
            ("fallback", "value does not fit int64")

    def test_float_division_truncates_on_every_tier(self):
        """A float ``/`` truncates to an int, as the closures' ``_c_div``
        does (7.0 / 2.0 stores 3.0, where C gives 3.5): the float64
        column keeps that semantics rather than mending it."""
        source = """
        __kernel void k(__global double* x, __global double* out) {
            int gid = get_global_id(0);
            out[gid] = x[gid] / x[gid + 1];
        }
        """
        buffers = {"x": ([7.0, 2.0, -7.5], "float64"),
                   "out": ([0.0] * 3, "float64")}
        outcome = _assert_batch_matches_reference(source, buffers, 2)
        assert outcome.mode == "table"
        fabric, _, _ = _launch(source, buffers, "batch", 2)
        assert list(fabric.memory.buffer("OUT").snapshot()) == \
            [3.0, 0.0, 0.0]

    def test_float_index_truncates_as_the_ops_do(self):
        """``ops.Load``/``ops.Store`` take ``int(index)``: a float index
        column is truncated per row, in the table as when stepping."""
        source = """
        __kernel void k(__global double* f, __global long* x,
                        __global long* out) {
            int gid = get_global_id(0);
            out[f[gid + 2]] = x[f[gid]];
        }
        """
        buffers = {"f": ([1.7, 0.2, 0.9, 1.99], "float64"),
                   "x": ([5, 6], "int64"), "out": ([0, 0], "int64")}
        outcome = _assert_batch_matches_reference(source, buffers, 2)
        assert outcome.mode == "table"
        fabric, _, _ = _launch(source, buffers, "batch", 2)
        assert list(fabric.memory.buffer("OUT").snapshot()) == [6, 5]
