"""Kernel model: single-task, NDRange, and autorun (persistent) kernels.

The AOCL compiler "either leverages the explicit thread-level parallelism
(TLP) or extracts the implicit loop-level parallelism (LLP) from kernel
functions" (§1). Both end up as a hardware pipeline fed by a stream of
iteration instances; the difference is the *issue order* of that stream and
where it comes from:

* :class:`SingleTaskKernel` — LLP: the flattened loop nest in program order;
* :class:`NDRangeKernel` — TLP: work-items interleaved by the scheduler;
* :class:`AutorunKernel` — persistent kernels that start with the device
  and run forever (the timestamp counter of Listing 1, the sequence server
  of Listing 5, and the ibuffer of Listing 8 are all autorun kernels).

A kernel also carries a **static resource profile** — what the synthesized
hardware contains — which feeds the synthesis area/timing model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional

from repro.errors import KernelBuildError
from repro.pipeline.schedule import NDRANGE_POLICIES, ndrange_schedule


@dataclass
class ResourceProfile:
    """Static hardware content of one kernel (per compute unit).

    The fields are deliberately coarse — the level at which an AOCL
    synthesis report is actionable — and feed
    :mod:`repro.synthesis.cost_model`.
    """

    #: Static global-memory load sites (each becomes an LSU).
    load_sites: int = 0
    #: Static global-memory store sites.
    store_sites: int = 0
    #: Integer adders/subtractors on the datapath.
    adders: int = 0
    #: Multipliers (DSP candidates).
    multipliers: int = 0
    #: Other combinational ALU ops (compares, shifts, logicals).
    logic_ops: int = 0
    #: Channel endpoints (read + write sites).
    channel_endpoints: int = 0
    #: Local-memory bits instantiated by this kernel.
    local_memory_bits: int = 0
    #: Rough control-FSM complexity (loop nests, predicates).
    control_states: int = 4
    #: HDL library module instances embedded in the kernel.
    hdl_modules: int = 0
    #: Extra registers (pipeline balancing, counters).
    extra_registers: int = 0
    #: Structurally-banked RAM block count, when the kernel's memories are
    #: partitioned for parallel ports (overrides bit-packing estimation).
    ram_blocks_structural: int = 0
    #: Unbreakable datapath delay (ns), e.g. the load-to-address dependency
    #: of a pointer chase — retiming cannot shorten it.
    intrinsic_path_ns: float = 0.0

    def merged(self, other: "ResourceProfile") -> "ResourceProfile":
        """Element-wise sum; used when instrumentation is added to a kernel.

        ``intrinsic_path_ns`` combines with ``max`` — instrumentation sits
        beside the datapath, not on its unbreakable dependency chain.
        """
        return ResourceProfile(
            load_sites=self.load_sites + other.load_sites,
            store_sites=self.store_sites + other.store_sites,
            adders=self.adders + other.adders,
            multipliers=self.multipliers + other.multipliers,
            logic_ops=self.logic_ops + other.logic_ops,
            channel_endpoints=self.channel_endpoints + other.channel_endpoints,
            local_memory_bits=self.local_memory_bits + other.local_memory_bits,
            control_states=self.control_states + other.control_states,
            hdl_modules=self.hdl_modules + other.hdl_modules,
            extra_registers=self.extra_registers + other.extra_registers,
            ram_blocks_structural=self.ram_blocks_structural + other.ram_blocks_structural,
            intrinsic_path_ns=max(self.intrinsic_path_ns, other.intrinsic_path_ns),
        )

    def scaled(self, factor: int) -> "ResourceProfile":
        """Profile of ``factor`` replicated compute units."""
        return ResourceProfile(
            load_sites=self.load_sites * factor,
            store_sites=self.store_sites * factor,
            adders=self.adders * factor,
            multipliers=self.multipliers * factor,
            logic_ops=self.logic_ops * factor,
            channel_endpoints=self.channel_endpoints * factor,
            local_memory_bits=self.local_memory_bits * factor,
            control_states=self.control_states * factor,
            hdl_modules=self.hdl_modules * factor,
            extra_registers=self.extra_registers * factor,
            ram_blocks_structural=self.ram_blocks_structural * factor,
            intrinsic_path_ns=self.intrinsic_path_ns,
        )


@dataclass(frozen=True)
class PipelineConfig:
    """How the compiler scheduled this kernel's pipeline."""

    #: Initiation interval: cycles between successive iteration launches.
    ii: int = 1
    #: Pipeline depth: maximum iterations in flight before issue stalls.
    max_inflight: int = 64

    def __post_init__(self) -> None:
        if self.ii < 1:
            raise KernelBuildError(f"initiation interval must be >= 1, got {self.ii}")
        if self.max_inflight < 1:
            raise KernelBuildError(
                f"max_inflight must be >= 1, got {self.max_inflight}")


class Kernel:
    """Base kernel. Subclasses implement :meth:`body` (a generator)."""

    #: "single-task" | "ndrange" | "autorun"
    kind = "single-task"

    #: True for profiling/debugging infrastructure kernels (ibuffers, host
    #: interface, persistent counters). Designs containing any make the
    #: fitter's aggressive retiming ineligible (§5.3's observation that the
    #: baseline "may benefit from some synthesis optimizations ... while the
    #: kernels with debugging/profiling support do not").
    is_instrumentation = False

    #: True when every :meth:`body` yields only ``Load``, ``Store``,
    #: ``Compute``, ``MemFence`` and ``CollectReduction`` ops and
    #: blocking reads of lazy timestamp or sequence channels. The fast
    #: executor (and the batch tier's Python-IR fallback) then replays a
    #: launch that owns the simulator analytically instead of stepping it
    #: (see :mod:`repro.pipeline.replay`); a replayed body that yields any
    #: other op raises :class:`~repro.errors.KernelBuildError`. It may
    #: depend on the instrumentation attached to the kernel.
    replayable = False

    def __init__(self, name: Optional[str] = None, num_compute_units: int = 1,
                 pipeline: Optional[PipelineConfig] = None) -> None:
        if num_compute_units < 1:
            raise KernelBuildError(
                f"num_compute_units must be >= 1, got {num_compute_units}")
        self.name = name or type(self).__name__
        self.num_compute_units = num_compute_units
        self.pipeline = pipeline or PipelineConfig()

    def body(self, ctx):
        """Generator executing one iteration instance. Must be overridden."""
        raise NotImplementedError(f"kernel {self.name!r} must implement body()")

    def iteration_space(self, args: Dict[str, Any]) -> Iterable[Any]:
        """Ordered iteration tags this kernel executes. Must be overridden."""
        raise NotImplementedError(
            f"kernel {self.name!r} must implement iteration_space()")

    def create_locals(self, fabric, compute_id: int) -> Dict[str, Any]:
        """Instantiate per-compute-unit local memories (default: none)."""
        return {}

    def replay_gate(self) -> Optional[str]:
        """Why a launch of this :attr:`replayable` kernel must step now
        although it owns the simulator, or None when it may replay.

        Checked at launch; a named reason makes the launch step (never
        an error). Kernels whose bodies write instrumentation channels
        require the consumers to take those writes without events.
        """
        return None

    def batch_plan(self) -> tuple:
        """``(plan, reason)`` for ``executor="batch"``.

        Python-IR kernels have no op-stream plan — their bodies are
        opaque generators — so the batch engine transparently falls back
        to the fast path for them, which replays a :attr:`replayable`
        kernel's launch analytically and steps any other. Frontend-compiled
        kernels override this
        (:meth:`repro.frontend.compiler._CompiledMixin.batch_plan`).
        """
        return None, "Python-IR kernel (no op-stream plan)"

    def resource_profile(self) -> ResourceProfile:
        """Static per-compute-unit hardware content (default: tiny FSM)."""
        return ResourceProfile()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} kind={self.kind}>"


class SingleTaskKernel(Kernel):
    """A kernel compiled in single-task mode: loop-level parallelism.

    The iteration space is the program-order flattening of the loop nest;
    the pipeline engine overlaps iterations with the configured II.
    """

    kind = "single-task"


class NDRangeKernel(Kernel):
    """A kernel compiled in NDRange mode: thread-level parallelism.

    Subclasses define :meth:`global_size` and :meth:`trip_count`; the
    iteration space is derived from the scheduling ``policy``
    (work-item-interleaved by default, as observed on AOCL hardware).
    """

    kind = "ndrange"

    def __init__(self, name: Optional[str] = None, num_compute_units: int = 1,
                 pipeline: Optional[PipelineConfig] = None,
                 policy: str = "workitem-interleaved",
                 local_size: Optional[int] = None) -> None:
        super().__init__(name=name, num_compute_units=num_compute_units,
                         pipeline=pipeline)
        if policy not in NDRANGE_POLICIES:
            raise KernelBuildError(
                f"unknown NDRange policy {policy!r}; expected {NDRANGE_POLICIES}")
        if local_size is not None and local_size < 1:
            raise KernelBuildError(f"local_size must be >= 1, got {local_size}")
        self.policy = policy
        #: Work-group size for barrier() semantics; None = one group spans
        #: the whole launch.
        self.local_size = local_size

    def global_size(self, args: Dict[str, Any]) -> int:
        """Number of work-items launched."""
        raise NotImplementedError(
            f"kernel {self.name!r} must implement global_size()")

    def trip_count(self, args: Dict[str, Any]) -> int:
        """Trips of the per-work-item inner loop (1 if the body is straight-line)."""
        return 1

    def iteration_space(self, args: Dict[str, Any]) -> Iterable[Any]:
        return ndrange_schedule(self.global_size(args), self.trip_count(args),
                                policy=self.policy)


class AutorunKernel(Kernel):
    """A persistent ``__attribute__((autorun))`` kernel.

    Starts when the device is programmed and never terminates; its body is
    an infinite generator. ``phase`` chooses where in each cycle the kernel
    observes the world:

    * ``"early"`` — producer kernels (the free-running counter must update
      before consumers read it in the same cycle);
    * ``"late"`` — consumer kernels (the ibuffer polls its input channels
      after the pipelines under test have written them this cycle).
    """

    kind = "autorun"

    #: True when every compute unit's body yields ``ctx.await_data(...,
    #: first=True)`` before it touches a channel. The fast executor then
    #: starts a late-phase unit parked, with no start or phase-alignment
    #: event (see :meth:`~repro.pipeline.engine.AutorunEngine.start`).
    starts_idle = False

    def __init__(self, name: Optional[str] = None, num_compute_units: int = 1,
                 phase: str = "late") -> None:
        super().__init__(name=name, num_compute_units=num_compute_units)
        if phase not in ("early", "late"):
            raise KernelBuildError(f"autorun phase must be 'early' or 'late', got {phase!r}")
        self.phase = phase
        #: Launch delay in cycles; §3.1 limitation 2 — "different persistent
        #: kernels are not launched in the same cycle and there could be
        #: offsets among the separate free-running counters".
        self.launch_skew = 0

    def iteration_space(self, args: Dict[str, Any]) -> Iterable[Any]:
        raise KernelBuildError(
            f"autorun kernel {self.name!r} has no iteration space; it runs forever")
