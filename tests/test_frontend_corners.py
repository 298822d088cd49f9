"""Corner-semantics tests run under BOTH frontend backends.

Each case pins a C-semantics subtlety — switch fallthrough, compound
assignment, short-circuit evaluation order, scope shadowing, diagnostic
positions — and must behave identically whether the kernel body executes
through the reference tree-walking interpreter (``tests/frontend_oracle.py``)
or the closure codegen.
"""

from __future__ import annotations

import pytest

from repro.errors import ProcessError
from repro.frontend import FrontendError, compile_source
from repro.pipeline.fabric import Fabric
from tests.frontend_oracle import COMPILERS


@pytest.fixture(params=sorted(COMPILERS))
def frontend(request):
    return request.param


def _run(body, frontend, n=8, extra_args=None, params=""):
    fabric = Fabric()
    source = f"""
        __kernel void k(__global int* out, int n{params}) {{ {body} }}
    """
    program = COMPILERS[frontend](fabric, source)
    fabric.memory.allocate("OUT", n)
    args = {"out": "OUT", "n": n}
    args.update(extra_args or {})
    fabric.run_kernel(program.kernel("k"), args)
    return fabric.memory.buffer("OUT").snapshot()


class TestSwitchFallthrough:
    SOURCE = """
        int hits = 0;
        switch (n) {
            case 1: hits += 1;
            case 2: hits += 10;
            case 3: hits += 100; break;
            case 4: hits += 1000;
            default: hits += 10000;
        }
        out[0] = hits;
    """

    @pytest.mark.parametrize("n,expected", [
        (1, 111),       # falls through 1 -> 2 -> 3, stops at break
        (2, 110),       # enters mid-chain
        (3, 100),
        (4, 11000),     # falls through into default
        (9, 10000),     # no match: default only
    ])
    def test_fallthrough(self, frontend, n, expected):
        out = _run(self.SOURCE, frontend, extra_args={"n": n})
        assert out[0] == expected

    def test_no_match_no_default_is_noop(self, frontend):
        out = _run("""
            out[0] = 5;
            switch (n) { case 1: out[0] = 9; break; }
        """, frontend, extra_args={"n": 3})
        assert out[0] == 5

    def test_all_labels_evaluated_in_order(self, frontend):
        # Label expressions may have side effects; C evaluates the chosen
        # one, but this frontend (both backends) evaluates every label in
        # order while scanning for the match — pin that behavior.
        out = _run("""
            int probe = 0;
            switch (2) {
                case 1: out[1] = 1; break;
                case (probe++ + 2): out[0] = probe; break;
            }
        """, frontend)
        assert out[0] == 1


class TestCompoundAssignment:
    def test_scalar_compounds(self, frontend):
        out = _run("""
            int a = 7;
            a += 5; out[0] = a;
            a -= 2; out[1] = a;
            a *= 3; out[2] = a;
            a /= 4; out[3] = a;   // 30 / 4 == 7 (truncation)
            a %= 5; out[4] = a;
        """, frontend)
        assert list(out[:5]) == [12, 10, 30, 7, 2]

    def test_private_array_compound(self, frontend):
        out = _run("""
            int acc[4];
            acc[1] = 10;
            acc[1] += 32;
            out[0] = acc[1];
        """, frontend)
        assert out[0] == 42

    def test_buffer_compound_is_load_then_store(self, frontend):
        out = _run("""
            out[0] = 40;
            out[0] += 2;
            out[1] = 50;
            out[1] /= 7;
        """, frontend)
        assert list(out[:2]) == [42, 7]

    def test_compound_rvalue_evaluated_before_target_read(self, frontend):
        # ``x += x++`` : the rvalue (old x) is computed first, then the
        # *updated* x is read as the compound's current value.
        out = _run("""
            int x = 5;
            x += x++;
            out[0] = x;
        """, frontend)
        assert out[0] == 11     # 6 (post-increment applied) + 5 (old)

    def test_negative_truncating_division(self, frontend):
        out = _run("""
            int a = -7;
            a /= 2;
            out[0] = a;        // C truncates toward zero: -3
            out[1] = -7 % 2;   // sign follows the dividend: -1
        """, frontend)
        assert list(out[:2]) == [-3, -1]


class TestShortCircuit:
    def test_and_skips_rhs_when_false(self, frontend):
        out = _run("""
            int evals = 0;
            int r = (n > 100) && (evals++ < 99);
            out[0] = r;
            out[1] = evals;
        """, frontend)
        assert list(out[:2]) == [0, 0]

    def test_and_evaluates_rhs_when_true(self, frontend):
        out = _run("""
            int evals = 0;
            int r = (n > 0) && (evals++ < 99);
            out[0] = r;
            out[1] = evals;
        """, frontend)
        assert list(out[:2]) == [1, 1]

    def test_or_skips_rhs_when_true(self, frontend):
        out = _run("""
            int evals = 0;
            int r = (n > 0) || (evals++ < 99);
            out[0] = r;
            out[1] = evals;
        """, frontend)
        assert list(out[:2]) == [1, 0]

    def test_or_evaluates_rhs_when_false(self, frontend):
        out = _run("""
            int evals = 0;
            int r = (n > 100) || (evals++ > 99);
            out[0] = r;
            out[1] = evals;
        """, frontend)
        assert list(out[:2]) == [0, 1]

    def test_result_is_normalized_to_0_or_1(self, frontend):
        out = _run("""
            out[0] = 7 && 9;
            out[1] = 0 || 5;
            out[2] = !7;
            out[3] = !0;
        """, frontend)
        assert list(out[:4]) == [1, 1, 0, 1]

    def test_guarded_division_never_executes(self, frontend):
        out = _run("""
            int zero = 0;
            if (0 && (1 / zero)) { out[0] = 1; } else { out[0] = 2; }
            if (1 || (1 / zero)) { out[1] = 3; }
        """, frontend)
        assert list(out[:2]) == [2, 3]


class TestScopeShadowing:
    def test_block_shadowing_restores_outer(self, frontend):
        out = _run("""
            int x = 1;
            {
                int x = 2;
                out[0] = x;
                {
                    int x = 3;
                    out[1] = x;
                }
                out[2] = x;
            }
            out[3] = x;
        """, frontend)
        assert list(out[:4]) == [2, 3, 2, 1]

    def test_inner_writes_through_to_outer_without_decl(self, frontend):
        out = _run("""
            int x = 1;
            { x = 5; { x += 1; } }
            out[0] = x;
        """, frontend)
        assert out[0] == 6

    def test_loop_variable_shadows_param(self, frontend):
        out = _run("""
            for (int n = 0; n < 3; n++) { out[n] = n; }
            out[3] = n;
        """, frontend, extra_args={"n": 8})
        assert list(out[:4]) == [0, 1, 2, 8]

    def test_read_before_decl_in_block_sees_outer(self, frontend):
        # Name resolution is positional: a use before the shadowing
        # declaration binds to the outer variable.
        out = _run("""
            int x = 7;
            for (int i = 0; i < 2; i++) {
                out[i] = x;
                int x = 99;
                out[4 + i] = x;
            }
        """, frontend)
        assert list(out[:2]) == [7, 7]
        assert list(out[4:6]) == [99, 99]

    def test_same_scope_redeclaration_rebinds(self, frontend):
        out = _run("""
            int x = 1;
            int x = 2;
            out[0] = x;
        """, frontend)
        assert out[0] == 2


class TestDiagnosticPositions:
    def test_runtime_error_carries_line_and_column(self, frontend):
        fabric = Fabric()
        program = COMPILERS[frontend](fabric, (
            "__kernel void k(__global int* out) {\n"
            "    int zero = 0;\n"
            "    out[0] = 1 / zero;\n"
            "}\n"))
        fabric.memory.allocate("OUT", 1)
        with pytest.raises(ProcessError,
                           match=r"line 3:\d+: division by zero"):
            fabric.run_kernel(program.kernel("k"), {"out": "OUT"})

    def test_undefined_identifier_positioned(self, frontend):
        fabric = Fabric()
        program = COMPILERS[frontend](fabric, (
            "__kernel void k(__global int* out) {\n"
            "    out[0] = mystery;\n"
            "}\n"))
        fabric.memory.allocate("OUT", 1)
        with pytest.raises(
                ProcessError,
                match=r"line 2:\d+: undefined identifier 'mystery'"):
            fabric.run_kernel(program.kernel("k"), {"out": "OUT"})

    def test_parse_error_carries_position(self):
        with pytest.raises(FrontendError, match=r"line 2:\d+"):
            compile_source(Fabric(), (
                "__kernel void k(__global int* out) {\n"
                "    out[0] = ;\n"
                "}\n"))

    def test_lexer_error_carries_position(self):
        with pytest.raises(FrontendError,
                           match=r"line 1:\d+: unexpected character"):
            compile_source(Fabric(), "__kernel void k(`) { }")

    def test_structured_fields_exposed(self):
        try:
            compile_source(Fabric(), (
                "__kernel void k(__global int* out) {\n"
                "    out[0] = ;\n"
                "}\n"))
        except FrontendError as error:
            assert error.line == 2
            assert error.column and error.column > 0
        else:  # pragma: no cover
            pytest.fail("expected FrontendError")
