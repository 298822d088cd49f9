"""Matrix-vector multiply, single-task (Listing 6) and NDRange (Listing 7).

The Figure 2 experiment: both kernels compute ``z[k] = Σ_i x[k*num+i]*y[i]``
(N=50 rows, num=100 columns in the paper). Iterations where ``i < probe_i``
read a sequence number and a timestamp and record::

    info1[seq] = read_channel(time_ch)   # timestamp
    info2[seq] = k                       # outer index / work-item
    info3[seq] = i                       # inner index

so host-side sorting of ``seq`` recovers the dynamic issue order — k-major
for the single-task kernel, work-item-interleaved for NDRange.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, Optional, Tuple

from repro.core.sequence import SequenceService
from repro.core.timestamp import PersistentTimestampService
from repro.errors import KernelArgumentError
from repro.pipeline.kernel import NDRangeKernel, ResourceProfile, SingleTaskKernel
from repro.pipeline.schedule import k_major


def _instrumented_profile(base: ResourceProfile,
                          instrumented: bool) -> ResourceProfile:
    if not instrumented:
        return base
    # seq read site + time read site + three info store LSUs.
    return base.merged(ResourceProfile(channel_endpoints=2, store_sites=3,
                                       logic_ops=2))


@lru_cache(maxsize=None)
def _sites(kernel_name: str, compute_id: int) -> Tuple[str, ...]:
    """The body's x, y, info1, info2, info3 and z memory sites.

    They keep the names the engine used to derive from each yield's
    source line, so LSU keys and everything reported per site stay the
    same however this module is edited.
    """
    return tuple(f"{kernel_name}.cu{compute_id}:{suffix}" for suffix in (
        "Load@L40", "Load@L41", "Store@L46", "Store@L47", "Store@L48",
        "Store@L51"))


def _matvec_body(kernel, ctx):
    """Shared Listing 6/7 body; ``kernel`` supplies the instrumentation."""
    k, i = ctx.iteration
    num = ctx.arg("num")
    l = k * num
    x_site, y_site, info1_site, info2_site, info3_site, z_site = _sites(
        kernel.name, ctx.compute_id)
    xv = yield ctx.load("x", i + l, site=x_site)
    yv = yield ctx.load("y", i, site=y_site)
    ctx.accumulate("sum", k, xv * yv)
    if kernel.instrumented and i < kernel.probe_i:
        seq = yield kernel.sequence.read_op(ctx)
        timestamp = yield kernel.timestamps.read_op(ctx, 0)
        yield ctx.store("info1", seq, timestamp, site=info1_site)
        yield ctx.store("info2", seq, k, site=info2_site)
        yield ctx.store("info3", seq, i, site=info3_site)
    if i == num - 1:
        total = yield ctx.collect("sum", k, expected=num)
        yield ctx.store("z", k, total, site=z_site)


class MatVecSingleTask(SingleTaskKernel):
    """Listing 6: nested loop, compiled as a pipelined single task.

    Args per launch: ``N`` (rows), ``num`` (columns).
    Buffers: ``x`` (N*num), ``y`` (num), ``z`` (N); when instrumented also
    ``info1/2/3`` sized ``N * probe_i + 1`` (sequence numbers start at 1).
    """

    #: The body yields only ops the analytic launch replay runs.
    replayable = True

    def __init__(self, sequence: Optional[SequenceService] = None,
                 timestamps: Optional[PersistentTimestampService] = None,
                 probe_i: int = 10, name: str = "matvec_single_task") -> None:
        super().__init__(name=name)
        if (sequence is None) != (timestamps is None):
            raise KernelArgumentError(
                "instrumentation needs both sequence and timestamp services")
        self.sequence = sequence
        self.timestamps = timestamps
        self.probe_i = probe_i

    @property
    def instrumented(self) -> bool:
        return self.sequence is not None

    def iteration_space(self, args: Dict) -> Iterable[Tuple[int, int]]:
        return k_major(args["N"], args["num"])

    def body(self, ctx):
        return _matvec_body(self, ctx)

    def resource_profile(self) -> ResourceProfile:
        base = ResourceProfile(load_sites=2, store_sites=1, adders=3,
                               multipliers=1, logic_ops=4, control_states=6)
        return _instrumented_profile(base, self.instrumented)


class MatVecNDRange(NDRangeKernel):
    """Listing 7: one work-item per output row (``k = get_global_id(0)``)."""

    #: The body yields only ops the analytic launch replay runs.
    replayable = True

    def __init__(self, sequence: Optional[SequenceService] = None,
                 timestamps: Optional[PersistentTimestampService] = None,
                 probe_i: int = 10, policy: str = "workitem-interleaved",
                 name: str = "matvec_ndrange") -> None:
        super().__init__(name=name, policy=policy)
        if (sequence is None) != (timestamps is None):
            raise KernelArgumentError(
                "instrumentation needs both sequence and timestamp services")
        self.sequence = sequence
        self.timestamps = timestamps
        self.probe_i = probe_i

    @property
    def instrumented(self) -> bool:
        return self.sequence is not None

    def global_size(self, args: Dict) -> int:
        return args["N"]

    def trip_count(self, args: Dict) -> int:
        return args["num"]

    def body(self, ctx):
        return _matvec_body(self, ctx)

    def resource_profile(self) -> ResourceProfile:
        base = ResourceProfile(load_sites=2, store_sites=1, adders=3,
                               multipliers=1, logic_ops=4, control_states=5)
        return _instrumented_profile(base, self.instrumented)


def allocate_matvec_buffers(fabric, N: int, num: int, probe_i: int = 10,
                            instrumented: bool = True, x=None, y=None) -> Dict:
    """Allocate and initialise the kernel's global buffers.

    ``x``/``y`` default to ``x[j] = j`` and ``y[i] = i`` patterns (easy to
    verify); returns the backing stores by name.
    """
    import numpy as np

    stores = {
        "x": fabric.memory.allocate("x", N * num),
        "y": fabric.memory.allocate("y", num),
        "z": fabric.memory.allocate("z", N),
    }
    stores["x"].fill(np.arange(N * num) if x is None else x)
    stores["y"].fill(np.arange(num) if y is None else y)
    if instrumented:
        slots = N * probe_i + 1
        for info in ("info1", "info2", "info3"):
            stores[info] = fabric.memory.allocate(info, slots)
    return stores


def expected_matvec(N: int, num: int):
    """Reference result for the default buffer contents."""
    import numpy as np

    x = np.arange(N * num).reshape(N, num)
    y = np.arange(num)
    return (x * y).sum(axis=1)
