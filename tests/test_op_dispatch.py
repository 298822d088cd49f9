"""Exhaustiveness of the engine's op execution.

The fast drive loop runs every yielded op either in an inlined branch
(:data:`repro.pipeline.engine.INLINED_OPS`) or through
:data:`repro.pipeline.engine.OP_DISPATCH`. A new op class added to
:mod:`repro.pipeline.ops` with neither would fail at run time as an
unknown op — these tests make that omission a loud failure instead. A
yield that is no op at all fails the launch with a KernelBuildError
(``tests/test_pipeline_engine.py``).
"""

import inspect

import pytest

from repro.pipeline import engine, ops


def _concrete_op_classes():
    found = []
    for name, obj in vars(ops).items():
        if (inspect.isclass(obj) and issubclass(obj, ops.Op)
                and obj is not ops.Op):
            found.append((name, obj))
    return sorted(found)


def test_ops_module_defines_expected_surface():
    # Sanity: the scan actually sees the op IR (guards against a refactor
    # moving the classes and turning the exhaustiveness test into a no-op).
    names = {name for name, _ in _concrete_op_classes()}
    assert {"Load", "Store", "Compute", "CycleBoundary"} <= names
    assert len(names) >= 12


@pytest.mark.parametrize("name,cls", _concrete_op_classes())
def test_every_op_class_has_a_dispatch_entry(name, cls):
    """Every concrete op is inlined or dispatched, never both."""
    inlined = cls in engine.INLINED_OPS
    assert inlined != (cls in engine.OP_DISPATCH), (
        f"ops.{name} must be either inlined in _OpExecutor._drive or "
        "mapped in OP_DISPATCH (repro/pipeline/engine.py), not both")


def test_dispatch_handlers_are_executor_methods():
    for cls, handler in engine.OP_DISPATCH.items():
        assert callable(handler), f"{cls.__name__} maps to non-callable"
        assert getattr(engine._OpExecutor, handler.__name__, None) is handler, (
            f"{cls.__name__} handler {handler!r} is not an _OpExecutor method")
