"""Sweep specifications: declarative grids of independent simulation points.

A *sweep* is a set of independent experiment executions — the §4
scalability ``(N, DEPTH)`` grid, the four Table 1 configurations,
repeated fig2/sec51/sec52 runs, perf-bench repeats — that share no state
and can therefore be sharded across worker processes. The contract that
makes sharding safe and *deterministic* is captured here:

* a :class:`SweepPoint` names a **module-level callable** by import path
  (``"package.module:callable"``) plus picklable keyword arguments, so a
  worker process can resolve it lazily (no eager imports at fork/spawn);
* the point's return value must be **picklable** and a **pure function of
  its kwargs** — no wall-clock, PRNG, or ambient state — which is what
  guarantees parallel results are bit-identical to serial ones;
* results are merged in the spec's **canonical point order**, never in
  completion order, so the merged outcome is independent of scheduling.

The engine that executes specs lives in :mod:`repro.sweep.runner`;
predefined specs for the paper's experiments in
:mod:`repro.sweep.families`.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError


class SweepError(ReproError):
    """A sweep could not be built, executed, or merged."""


def resolve_callable(path: str) -> Callable:
    """Resolve a ``"package.module:callable"`` path to the callable.

    Import happens here — i.e. lazily, inside whichever process executes
    the point — so worker processes never pay for (or depend on) imports
    the parent happened to have loaded.
    """
    module_name, sep, attr = path.partition(":")
    if not sep or not module_name or not attr:
        raise SweepError(
            f"point function {path!r} is not of the form 'module:callable'")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise SweepError(f"cannot import sweep module {module_name!r}: {exc}"
                         ) from exc
    try:
        func = getattr(module, attr)
    except AttributeError:
        raise SweepError(
            f"module {module_name!r} has no attribute {attr!r}") from None
    if not callable(func):
        raise SweepError(f"{path!r} resolved to non-callable {func!r}")
    return func


@dataclass(frozen=True)
class SweepPoint:
    """One independent execution: a callable path plus its kwargs.

    ``key`` is the point's canonical identity inside its spec — hashable,
    orderable against its siblings, and stable across runs (it anchors
    deterministic merging and serial/parallel equivalence).
    """

    key: Tuple[Any, ...]
    func: str
    kwargs: Dict[str, Any] = field(default_factory=dict)
    label: str = ""

    def describe(self) -> str:
        return self.label or ":".join(str(part) for part in self.key)


@dataclass
class PointResult:
    """Outcome of one point: its value or its (post-retry) failure.

    ``value``/``error`` reflect the *final* attempt; ``attempts`` counts
    executions including retries. ``duration_s`` and ``worker`` are
    telemetry only — they vary run to run and are excluded from every
    determinism contract (rendering, equivalence tests, trace merging).
    """

    key: Tuple[Any, ...]
    label: str
    status: str                      # "ok" | "failed"
    value: Any = None
    error: Optional[str] = None
    attempts: int = 1
    duration_s: float = 0.0
    worker: Optional[int] = None
    trace_records: List[Any] = field(default_factory=list)
    trace_schemas: Tuple[Tuple[str, Tuple[str, ...], str], ...] = ()
    #: Captured trace batches as ``(header, payload_bytes)`` pairs in
    #: seal order — the encoded-segment transport (workers ship raw
    #: column bytes, never pickled record objects). ``trace_records``
    #: stays for results built by older callers; the merger accepts both.
    trace_segments: List[Tuple[Dict[str, Any], bytes]] = \
        field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class SweepSpec:
    """A named, ordered collection of independent points.

    ``trace_kwarg`` names a keyword argument through which each point
    receives a fresh :class:`repro.trace.hub.TraceHub`; rows published
    into it ride back with the point's result (as encoded column
    segments) and are merged — in canonical point order — into one
    ``.ctb`` bundle by the runner. The hub is capture-only
    (``keep_records=False``): point functions publish into it but must
    not read ``hub.records`` back.
    """

    name: str
    points: List[SweepPoint]
    trace_kwarg: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.points:
            raise SweepError(f"sweep {self.name!r} has no points")
        seen = set()
        for point in self.points:
            if point.key in seen:
                raise SweepError(
                    f"sweep {self.name!r}: duplicate point key {point.key!r}")
            seen.add(point.key)

    def __len__(self) -> int:
        return len(self.points)

    def keys(self) -> List[Tuple[Any, ...]]:
        return [point.key for point in self.points]


@dataclass
class SweepOutcome:
    """Merged results of one sweep, in canonical (spec) point order."""

    spec_name: str
    results: List[PointResult]
    workers: int                      # 0 = executed serially in-process
    elapsed_s: float = 0.0

    @property
    def serial(self) -> bool:
        return self.workers == 0

    @property
    def failures(self) -> List[PointResult]:
        return [result for result in self.results if not result.ok]

    @property
    def retried(self) -> List[PointResult]:
        return [result for result in self.results if result.attempts > 1]

    def value_map(self) -> Dict[Tuple[Any, ...], Any]:
        """``key -> value`` for successful points (canonical order)."""
        return {result.key: result.value for result in self.results
                if result.ok}

    def raise_if_failed(self) -> "SweepOutcome":
        """Raise :class:`SweepError` summarizing failed points, if any."""
        failed = self.failures
        if failed:
            summary = "; ".join(
                f"{result.label or result.key}: {result.error}"
                for result in failed[:3])
            more = f" (+{len(failed) - 3} more)" if len(failed) > 3 else ""
            raise SweepError(
                f"sweep {self.spec_name!r}: {len(failed)}/"
                f"{len(self.results)} points failed after retry: "
                f"{summary}{more}")
        return self

    def trace_rows(self) -> int:
        """Total trace rows captured across all points (segments + records)."""
        return sum(
            len(result.trace_records)
            + sum(int(header["rows"]) for header, _ in result.trace_segments)
            for result in self.results)
