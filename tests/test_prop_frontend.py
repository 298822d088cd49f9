"""Property-based tests for the OpenCL-C frontend.

Random integer expressions compiled and executed on the fabric must agree
with a Python reference using C semantics (truncating division), and
64-bit ``long`` division and modulo must be exact on the batch table and
stepped tiers.
"""

from __future__ import annotations

from hypothesis import assume, given, settings, strategies as st

from repro.frontend import compile_source, parse, tokenize
from repro.pipeline.fabric import Fabric
from tests.executor_oracle import run_kernel

# -- expression generator ----------------------------------------------------

_literals = st.integers(min_value=0, max_value=200)


def _c_div(a: int, b: int) -> int:
    """Exact C truncating division: floor division, rounded toward 0."""
    quotient = a // b
    if quotient < 0 and quotient * b != a:
        quotient += 1
    return quotient


def _c_mod(a: int, b: int) -> int:
    return a - _c_div(a, b) * b


@st.composite
def _expressions(draw, depth=0):
    """Returns (source_text, python_value) pairs."""
    if depth >= 3 or draw(st.booleans()):
        value = draw(_literals)
        return str(value), value
    op = draw(st.sampled_from(["+", "-", "*", "/", "%", "<", ">", "==",
                               "&&", "||"]))
    left_src, left_val = draw(_expressions(depth=depth + 1))
    right_src, right_val = draw(_expressions(depth=depth + 1))
    source = f"({left_src} {op} {right_src})"
    if op == "+":
        return source, left_val + right_val
    if op == "-":
        return source, left_val - right_val
    if op == "*":
        return source, left_val * right_val
    if op == "/":
        assume(right_val != 0)
        return source, _c_div(left_val, right_val)
    if op == "%":
        assume(right_val != 0)
        return source, _c_mod(left_val, right_val)
    if op == "<":
        return source, 1 if left_val < right_val else 0
    if op == ">":
        return source, 1 if left_val > right_val else 0
    if op == "==":
        return source, 1 if left_val == right_val else 0
    if op == "&&":
        return source, 1 if (left_val and right_val) else 0
    return source, 1 if (left_val or right_val) else 0


class TestExpressionSemantics:
    @given(pair=_expressions())
    @settings(max_examples=60, deadline=None)
    def test_compiled_expression_matches_reference(self, pair):
        source_expr, expected = pair
        fabric = Fabric()
        program = compile_source(fabric, f"""
            __kernel void k(__global int* out) {{
                out[0] = {source_expr};
            }}
        """)
        fabric.memory.allocate("O", 1)
        fabric.run_kernel(program.kernel("k"), {"out": "O"})
        assert fabric.memory.buffer("O").read(0) == expected


_LONG_DIVISION = """
__kernel void k(__global long* out, long a, long b) {
    out[0] = a / b;
    out[1] = a % b;
    long q = a;
    q /= b;
    out[2] = q;
    long r = a;
    r %= b;
    out[3] = r;
}
"""

_LONGS = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)
#: Divisors: small ones give quotients above 2**53, where a float rounds.
_DIVISORS = st.one_of(st.integers(-1000, 1000), _LONGS).filter(bool)


class TestLongDivision:
    """``/ % /= %=`` on 64-bit operands of both signs, where a division
    through a 53-bit float would round."""

    @staticmethod
    def _run(a, b, executor):
        fabric = Fabric()
        program = compile_source(fabric, _LONG_DIVISION)
        fabric.memory.allocate("O", 4)
        engine = run_kernel(fabric, program.kernel("k"),
                            {"out": "O", "a": a, "b": b}, executor=executor)
        tier = ("table" if engine.batch.mode == "table"
                else engine.stepped_reason or "replay")
        return tier, [int(v) for v in fabric.memory.buffer("O").snapshot()]

    @given(a=_LONGS, b=_DIVISORS)
    @settings(max_examples=60, deadline=None)
    def test_matches_exact_c_truncation(self, a, b):
        # The quotient 2**63 does not fit a long.
        assume(not (a == -(1 << 63) and b == -1))
        quotient, remainder = _c_div(a, b), _c_mod(a, b)
        expected = [quotient, remainder, quotient, remainder]
        # A task is one iteration: the bodies replay times it.
        assert self._run(a, b, "fast") == ("replay", expected)
        assert self._run(a, b, "stepped") == ("stepping executor", expected)

    def test_pinned_values(self):
        big = (1 << 62) + 1
        assert self._run(big, 3, "fast")[1] == [1537228672809129301, 2] * 2
        assert self._run(big, 10, "fast")[1] == [461168601842738790, 5] * 2
        assert self._run(-big, 10, "stepped")[1] == [
            -461168601842738790, -5] * 2


class TestLexerProperties:
    @given(identifiers=st.lists(
        st.from_regex(r"[a-z_][a-z0-9_]{0,8}", fullmatch=True),
        min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_identifier_stream_roundtrip(self, identifiers):
        from repro.frontend.lexer import KEYWORDS, TYPE_NAMES
        assume(all(name not in KEYWORDS and name not in TYPE_NAMES
                   for name in identifiers))
        tokens = tokenize(" ".join(identifiers))
        assert [t.text for t in tokens[:-1]] == identifiers

    @given(value=st.integers(min_value=0, max_value=2**40))
    @settings(max_examples=50, deadline=None)
    def test_number_roundtrip_decimal_and_hex(self, value):
        for text in (str(value), hex(value)):
            token = tokenize(text)[0]
            assert token.kind == "number"
            assert int(token.text, 0) == value


class TestParserProperties:
    @given(depth=st.integers(min_value=1, max_value=12))
    @settings(max_examples=30, deadline=None)
    def test_deeply_nested_blocks(self, depth):
        body = "x = 1;"
        for _ in range(depth):
            body = "{ " + body + " }"
        program = parse(f"__kernel void k(void) {{ int x; {body} }}")
        assert program.kernels[0].name == "k"

    @given(count=st.integers(min_value=1, max_value=20))
    @settings(max_examples=30, deadline=None)
    def test_many_statements(self, count):
        statements = "".join(f"int v{i} = {i};" for i in range(count))
        program = parse(f"__kernel void k(void) {{ {statements} }}")
        assert len(program.kernels[0].body.statements) == count


class TestLoopEquivalence:
    @given(n=st.integers(min_value=0, max_value=20),
           scale=st.integers(min_value=-5, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_for_and_while_compute_identically(self, n, scale):
        """The same accumulation written as for- and while-loops must
        produce identical results and identical cycle counts."""
        for_source = f"""
            __kernel void k(__global int* out) {{
                int acc = 0;
                for (int i = 0; i < {n}; i++) {{ acc += i * {scale}; }}
                out[0] = acc;
            }}
        """
        while_source = f"""
            __kernel void k(__global int* out) {{
                int acc = 0;
                int i = 0;
                while (i < {n}) {{ acc += i * {scale}; i++; }}
                out[0] = acc;
            }}
        """
        results = []
        for source in (for_source, while_source):
            fabric = Fabric()
            program = compile_source(fabric, source)
            fabric.memory.allocate("O", 1)
            engine = fabric.run_kernel(program.kernel("k"), {"out": "O"})
            results.append((fabric.memory.buffer("O").read(0),
                            engine.stats.total_cycles))
        assert results[0] == results[1]
        assert results[0][0] == sum(i * scale for i in range(n))
