"""Unit tests for the closure-codegen frontend backend and program cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.frontend import (
    compile_source,
    program_cache_clear,
    program_cache_info,
)
from repro.pipeline.fabric import Fabric
from tests.frontend_oracle import COMPILERS

VECADD = """
    __kernel void vecadd(__global int* a, __global int* b,
                         __global int* c, int n) {
        for (int i = 0; i < n; i++) {
            c[i] = a[i] + b[i];
        }
    }
"""


def _run_vecadd(fabric, compiler=compile_source):
    program = compiler(fabric, VECADD)
    n = 8
    fabric.memory.allocate("A", n).fill(np.arange(n))
    fabric.memory.allocate("B", n).fill(np.arange(n) * 10)
    fabric.memory.allocate("C", n)
    fabric.run_kernel(program.kernel("vecadd"),
                      {"a": "A", "b": "B", "c": "C", "n": n})
    return program, fabric.memory.buffer("C").snapshot()


class TestFrontendKnob:
    def test_default_is_codegen(self, fabric):
        program, out = _run_vecadd(fabric)
        assert program.kernel("vecadd")._compiled_body is not None
        assert list(out) == [i * 11 for i in range(8)]

    def test_unknown_frontend_rejected(self, fabric):
        # The tree-walking interpreter is a test oracle
        # (tests/frontend_oracle.py), not a compile option: there is no
        # frontend= keyword left, whatever its value.
        for frontend in ("codegen", "jit"):
            with pytest.raises(TypeError, match="frontend"):
                compile_source(fabric, VECADD, frontend=frontend)

    def test_backends_agree_on_sim_time(self):
        results = {}
        for frontend, compiler in COMPILERS.items():
            fabric = Fabric()
            _run_vecadd(fabric, compiler)
            results[frontend] = fabric.sim.now
        assert results["codegen"] == results["reference"]


class TestProgramCache:
    def setup_method(self):
        program_cache_clear()

    def teardown_method(self):
        program_cache_clear()

    def test_second_compile_hits(self):
        compile_source(Fabric(), VECADD)
        info = program_cache_info()
        assert (info["hits"], info["misses"]) == (0, 1)
        compile_source(Fabric(), VECADD)
        info = program_cache_info()
        assert (info["hits"], info["misses"]) == (1, 1)
        assert info["size"] == 1

    def test_cached_image_still_correct(self):
        _, first = _run_vecadd(Fabric())
        _, second = _run_vecadd(Fabric())
        assert list(first) == list(second)
        assert program_cache_info()["hits"] == 1

    def test_defines_partition_the_cache(self):
        compile_source(Fabric(), VECADD, defines={"N": 4})
        compile_source(Fabric(), VECADD, defines={"N": 8})
        compile_source(Fabric(), VECADD, defines={"N": 4})
        info = program_cache_info()
        assert (info["hits"], info["misses"]) == (1, 2)

    def test_clear_resets_counters(self):
        compile_source(Fabric(), VECADD)
        program_cache_clear()
        info = program_cache_info()
        assert (info["hits"], info["misses"], info["size"]) == (0, 0, 0)

    def test_info_reports_maxsize(self):
        assert program_cache_info()["maxsize"] >= 1

    def test_eviction_counter_tracks_lru_drops(self, monkeypatch):
        from repro.frontend import compiler
        monkeypatch.setattr(compiler, "_PROGRAM_CACHE_MAXSIZE", 2)
        for tag in range(3):
            compile_source(Fabric(), VECADD + f"// v{tag}")
        info = program_cache_info()
        assert info["evictions"] == 1
        assert info["size"] == 2
        # The oldest entry was dropped: recompiling it misses again.
        compile_source(Fabric(), VECADD + "// v0")
        assert program_cache_info()["misses"] == 4

    def test_concurrent_compiles_cost_one_miss(self):
        """N threads compiling one new source -> exactly one miss."""
        import threading

        source = VECADD + "// concurrent-probe"
        barrier = threading.Barrier(8)

        def compile_one():
            barrier.wait(timeout=30)
            compile_source(Fabric(), source)

        threads = [threading.Thread(target=compile_one) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        info = program_cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 7
        assert info["size"] == 1


class TestCodegenLowering:
    def setup_method(self):
        program_cache_clear()

    def test_defines_fold_out_of_the_frame(self, fabric):
        source = """
            #define WIDTH 16
            __kernel void k(__global int* out) {
                out[0] = WIDTH * 2;
            }
        """
        program = compile_source(fabric, source)
        body = program.kernel("k")._compiled_body
        # The folded macro needs no binding slot; the buffer param does.
        assert [name for name, _ in body.binding_slots] == ["out"]
        fabric.memory.allocate("OUT", 4)
        fabric.run_kernel(program.kernel("k"), {"out": "OUT"})
        assert fabric.memory.buffer("OUT").read(0) == 32

    def test_runtime_defines_fold_too(self, fabric):
        program = compile_source(fabric, """
            __kernel void k(__global int* out) {
                out[0] = LIMIT + 1;
            }
        """, defines={"LIMIT": 41})
        body = program.kernel("k")._compiled_body
        assert [name for name, _ in body.binding_slots] == ["out"]
        fabric.memory.allocate("OUT", 1)
        fabric.run_kernel(program.kernel("k"), {"out": "OUT"})
        assert fabric.memory.buffer("OUT").read(0) == 42

    def test_mutated_define_gets_a_slot(self, fabric):
        program = compile_source(fabric, """
            __kernel void k(__global int* out) {
                LIMIT = LIMIT + 1;
                out[0] = LIMIT;
            }
        """, defines={"LIMIT": 41})
        body = program.kernel("k")._compiled_body
        assert [name for name, _ in body.binding_slots] == ["LIMIT", "out"]
        fabric.memory.allocate("OUT", 1)
        fabric.run_kernel(program.kernel("k"), {"out": "OUT"})
        assert fabric.memory.buffer("OUT").read(0) == 42

    def test_nb_channel_loopback_within_kernel(self, fabric):
        source = """
            channel int loopback __attribute__((depth(4)));
            __kernel void k(__global int* out) {
                int ok = 0;
                write_channel_nb_altera(loopback, 7);
                int v = read_channel_nb_altera(loopback, &ok);
                out[0] = v;
                out[1] = ok;
                int miss = read_channel_nb_altera(loopback, &ok);
                out[2] = miss;
                out[3] = ok;
            }
        """
        program = compile_source(fabric, source)
        fabric.memory.allocate("OUT", 4)
        fabric.run_kernel(program.kernel("k"), {"out": "OUT"})
        out = fabric.memory.buffer("OUT").snapshot()
        assert list(out) == [7, 1, 0, 0]

    def test_undefined_read_still_raises(self, fabric):
        program = compile_source(fabric, """
            __kernel void k(__global int* out) {
                out[0] = nowhere;
            }
        """)
        from repro.errors import ProcessError
        fabric.memory.allocate("OUT", 1)
        with pytest.raises(ProcessError, match="undefined identifier"):
            fabric.run_kernel(program.kernel("k"), {"out": "OUT"})

    def test_conditional_declaration_first_use_raises(self, fabric):
        # The _UNDEF hazard check: the declaration never executed, so the
        # read fails exactly like the oracle interpreter's scope lookup.
        program = compile_source(fabric, """
            __kernel void k(__global int* out, int n) {
                if (n > 100) { } else { }
                switch (n) {
                    case 999: int ghost = 1;
                    case 0: out[0] = ghost; break;
                }
            }
        """)
        from repro.errors import ProcessError
        fabric.memory.allocate("OUT", 1)
        with pytest.raises(ProcessError, match="undefined identifier 'ghost'"):
            fabric.run_kernel(program.kernel("k"), {"out": "OUT", "n": 0})
