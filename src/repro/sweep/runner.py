"""The sweep execution engine: shard points across worker processes.

Execution model
---------------

* **Serial** (``serial=True`` or ``workers=0``): every point runs in the
  calling process, in canonical order. This is the reference semantics.
* **Parallel**: points are packed into chunks and submitted to a
  :class:`WorkerPool` — a warm ``ProcessPoolExecutor`` whose processes
  are reused across chunks (and across sweeps, when the caller passes
  one pool to several :func:`run_sweep` calls). Workers resolve point
  callables lazily by import path, so a worker only ever imports the
  modules its chunks actually touch.

Determinism
-----------

Point functions are pure functions of their kwargs (the
:class:`~repro.sweep.spec.SweepSpec` contract), and the runner merges
results — and per-point trace segments — in canonical spec order, never
completion order. Parallel outcomes are therefore bit-identical to
serial ones; ``tests/test_sweep_equivalence.py`` pins this, including
byte-identical ``.ctb`` bundles.

Fault handling
--------------

A point that raises is retried exactly once (possibly on a different
worker); a second failure is recorded as a ``"failed"``
:class:`~repro.sweep.spec.PointResult` carrying the traceback text, and
the rest of the sweep proceeds. A worker process dying outright (e.g.
OOM-killed) breaks the pool; the runner rebuilds it and retries the
points that were in flight, under the same once-only retry budget.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.sweep.spec import (
    PointResult,
    SweepError,
    SweepOutcome,
    SweepPoint,
    SweepSpec,
    resolve_callable,
)

#: Retry budget per point: one re-execution after the first failure.
RETRIES = 1


def default_workers() -> int:
    """Worker count when the caller does not choose: one per visible CPU."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def default_chunk_size(points: int, workers: int) -> int:
    """Chunk points so each worker sees ~4 chunks (amortizes IPC while
    keeping the tail balanced)."""
    return max(1, -(-points // (workers * 4)))


# -- worker-side execution ---------------------------------------------------

def _execute_point(point: SweepPoint,
                   trace_kwarg: Optional[str]) -> PointResult:
    """Run one point in the current process, capturing failure/telemetry.

    This is the single execution path for both serial runs and workers,
    which is what keeps the two modes' results structurally identical.
    """
    start = time.perf_counter()
    segments: List[Tuple[Dict[str, Any], bytes]] = []
    try:
        func = resolve_callable(point.func)
        kwargs = dict(point.kwargs)
        hub = None
        if trace_kwarg is not None:
            from repro.trace.columnar import SegmentCollector
            # Capture-only hub: rows stream straight into column
            # builders and come back as encoded segment bytes — no
            # TraceRecord objects, no pickled record lists.
            hub, collector = SegmentCollector.capture()
            kwargs[trace_kwarg] = hub
        value = func(**kwargs)
        if hub is not None:
            hub.close()
            segments = collector.segments
        return PointResult(
            key=point.key, label=point.describe(), status="ok", value=value,
            attempts=1, duration_s=time.perf_counter() - start,
            worker=os.getpid(), trace_segments=segments)
    except BaseException as exc:  # noqa: BLE001 - a point must never sink the sweep
        return PointResult(
            key=point.key, label=point.describe(), status="failed",
            error=f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
            attempts=1, duration_s=time.perf_counter() - start,
            worker=os.getpid())


def _execute_chunk(points: Sequence[SweepPoint],
                   trace_kwarg: Optional[str]) -> List[PointResult]:
    """Worker entry point: run a chunk of points back to back."""
    return [_execute_point(point, trace_kwarg) for point in points]


def _worker_ping() -> int:
    """Trivial worker task: proves the process is alive (returns its pid)."""
    return os.getpid()


def _call_by_path(path: str, kwargs: Dict[str, Any]) -> Any:
    """Worker entry point for :meth:`WorkerPool.submit_call`.

    Resolves the callable lazily inside the worker (same contract as
    sweep points) so workers only import what their jobs actually touch.
    """
    return resolve_callable(path)(**kwargs)


# -- the warm pool -----------------------------------------------------------

class WorkerPool:
    """A lazily-started, reusable process pool for sweep execution.

    The underlying ``ProcessPoolExecutor`` is created on first submit and
    its worker processes stay warm across chunks and across sweeps —
    pass one pool to several :func:`run_sweep` calls (``repro-fpga sweep
    all`` does) to pay process start-up once.

    Uses the ``fork`` start method where available (workers inherit
    nothing they must re-import; start-up is milliseconds) and the
    platform default elsewhere; either way point callables resolve
    lazily by import path inside the worker.
    """

    def __init__(self, workers: Optional[int] = None,
                 start_method: Optional[str] = None) -> None:
        self.workers = workers if workers else default_workers()
        if self.workers < 1:
            raise SweepError(f"worker count must be >= 1, got {self.workers}")
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self.start_method = start_method
        self._executor: Optional[ProcessPoolExecutor] = None

    # -- lifecycle ---------------------------------------------------------

    def _ensure(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context(self.start_method))
        return self._executor

    @property
    def started(self) -> bool:
        """True once the underlying executor exists (post first submit)."""
        return self._executor is not None

    def submit(self, chunk: Sequence[SweepPoint],
               trace_kwarg: Optional[str]):
        """Submit one chunk; returns the future of its result list."""
        return self._ensure().submit(_execute_chunk, list(chunk), trace_kwarg)

    def submit_call(self, func_path: str,
                    kwargs: Optional[Dict[str, Any]] = None):
        """Submit one ``"module:callable"`` invocation; returns its future.

        The generic sibling of :meth:`submit` for non-sweep workloads
        (the emulation server schedules kernel/experiment jobs this way);
        the callable resolves lazily inside the worker.
        """
        return self._ensure().submit(_call_by_path, func_path,
                                     dict(kwargs or {}))

    def warm_start(self, timeout: Optional[float] = 30.0) -> List[int]:
        """Pre-fork the worker processes before the first real submission.

        Submits one trivial ping per configured worker and waits for all
        of them, so a long-lived caller (the emulation server at startup)
        pays process creation once, up front, instead of on the first
        user request. Returns the pids that answered (fewer distinct pids
        than ``workers`` just means the pool recycled an idle process —
        every worker the executor decided to spawn is warm either way).
        """
        futures = [self._ensure().submit(_worker_ping)
                   for _ in range(self.workers)]
        return [future.result(timeout=timeout) for future in futures]

    def ensure_healthy(self, timeout: Optional[float] = 30.0) -> bool:
        """Idle-worker health check; rebuilds a dead pool in place.

        Pings the executor and, if the pool is broken (a worker was
        OOM-killed while idle, say) or was never started, rebuilds it and
        pings again — so the next real submission lands on a live pool
        instead of surfacing ``BrokenProcessPool`` to a user request.
        Returns True when the existing pool was already healthy, False
        when it had to be (re)built.
        """
        if self._executor is not None:
            try:
                self._ensure().submit(_worker_ping).result(timeout=timeout)
                return True
            except Exception:  # noqa: BLE001 - any failure means rebuild
                self.rebuild()
        self._ensure().submit(_worker_ping).result(timeout=timeout)
        return False

    def rebuild(self) -> None:
        """Tear down a broken executor so the next submit starts fresh."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# -- the driver --------------------------------------------------------------

def run_sweep(spec: SweepSpec, workers: Optional[int] = None,
              serial: bool = False, pool: Optional[WorkerPool] = None,
              chunk_size: Optional[int] = None,
              trace_path: Optional[str] = None,
              log: Optional[Callable[[str], None]] = None) -> SweepOutcome:
    """Execute every point of ``spec`` and merge deterministically.

    ``serial=True`` (or ``workers=0``) runs in-process in canonical
    order — the reference semantics. Otherwise points run on ``pool``
    (or a private pool of ``workers`` processes, ``default_workers()``
    when unspecified). ``trace_path`` merges every point's captured
    trace segments into one ``.ctb`` bundle, appending if the file
    exists; segments land in canonical point order regardless of which
    worker finished first.
    """
    start = time.perf_counter()
    if serial or workers == 0:
        results = [_execute_point(point, spec.trace_kwarg)
                   for point in spec.points]
        by_key = {result.key: result for result in results}
        for point in spec.points:
            result = by_key[point.key]
            if not result.ok and RETRIES:
                retry = _execute_point(point, spec.trace_kwarg)
                retry.attempts = result.attempts + 1
                by_key[point.key] = retry
        outcome = SweepOutcome(
            spec_name=spec.name,
            results=[by_key[point.key] for point in spec.points],
            workers=0, elapsed_s=time.perf_counter() - start)
    else:
        outcome = _run_parallel(spec, workers, pool, chunk_size, log, start)
    if trace_path is not None:
        _merge_traces(outcome, trace_path)
    if log is not None:
        mode = "serial" if outcome.serial else f"{outcome.workers} worker(s)"
        log(f"sweep {spec.name!r}: {len(outcome.results)} point(s) in "
            f"{outcome.elapsed_s:.2f}s ({mode}; "
            f"{len(outcome.retried)} retried, "
            f"{len(outcome.failures)} failed)")
    return outcome


def _run_parallel(spec: SweepSpec, workers: Optional[int],
                  pool: Optional[WorkerPool], chunk_size: Optional[int],
                  log: Optional[Callable[[str], None]],
                  start: float) -> SweepOutcome:
    own_pool = pool is None
    if own_pool:
        pool = WorkerPool(workers)
    try:
        size = chunk_size or default_chunk_size(len(spec.points),
                                                pool.workers)
        chunks = [spec.points[index:index + size]
                  for index in range(0, len(spec.points), size)]
        by_key: Dict[Tuple[Any, ...], PointResult] = {}
        pending = {pool.submit(chunk, spec.trace_kwarg): chunk
                   for chunk in chunks}
        attempts: Dict[Tuple[Any, ...], int] = {
            point.key: 0 for point in spec.points}
        points_by_key = {point.key: point for point in spec.points}
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                chunk = pending.pop(future)
                try:
                    results = future.result()
                except BrokenProcessPool:
                    # A worker died mid-chunk (hard crash, not a Python
                    # exception). Rebuild the pool; the chunk's points are
                    # charged one attempt and retried individually.
                    pool.rebuild()
                    results = [PointResult(
                        key=point.key, label=point.describe(),
                        status="failed",
                        error="worker process died (BrokenProcessPool)")
                        for point in chunk]
                for result in results:
                    attempts[result.key] += 1
                    result.attempts = attempts[result.key]
                    by_key[result.key] = result
                    if not result.ok and result.attempts <= RETRIES:
                        if log is not None:
                            log(f"sweep {spec.name!r}: retrying point "
                                f"{result.label} after failure")
                        retry_point = points_by_key[result.key]
                        pending[pool.submit([retry_point],
                                            spec.trace_kwarg)] = [retry_point]
        return SweepOutcome(
            spec_name=spec.name,
            results=[by_key[point.key] for point in spec.points],
            workers=pool.workers, elapsed_s=time.perf_counter() - start)
    finally:
        if own_pool:
            pool.close()


def _merge_traces(outcome: SweepOutcome, trace_path: str) -> None:
    """Append every point's trace batches to one ``.ctb``, in canonical order.

    Worker-shipped ``(header, payload)`` pairs are wrapped as lazy
    segments and appended wholesale — the column bytes encoded in the
    worker are written to disk verbatim.
    """
    from repro.trace.columnar import ColumnarStore, SegmentCollector

    segments = SegmentCollector.decode(
        pair for result in outcome.results for pair in result.trace_segments)
    if segments:
        ColumnarStore.append_segments(trace_path, segments)
