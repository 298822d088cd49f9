"""Iteration-space schedules: the issue orders the AOCL compiler produces.

Figure 2 of the paper is, at heart, a comparison of two schedules over the
same rectangular ``(k, i)`` iteration space of a matrix-vector multiply:

* **single-task** (Listing 6): the compiler pipelines the flattened nested
  loop in program order — k-major: ``(0,0) (0,1) … (0,99) (1,0) …``;
* **NDRange** (Listing 7): "different work-items get into the pipeline
  before they go to the next iteration of the (inner) loop" — i-major:
  ``(0,0) (1,0) (2,0) … (49,0) (0,1) (1,1) …``.

These generators produce exactly those orders; the paper's instrumentation
then *observes* them through sequence numbers and timestamps.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence as _SequenceABC
from typing import Any, Iterable, Iterator, Sequence, Tuple

import numpy as np

from repro.errors import KernelBuildError

#: NDRange policy names accepted by :func:`ndrange_schedule`.
NDRANGE_POLICIES = ("workitem-interleaved", "workitem-serial")


def k_major(outer: int, inner: int) -> Iterator[Tuple[int, int]]:
    """Program-order flattening of a 2-deep nest: all of inner before next outer."""
    _check_extents(outer, inner)
    for k in range(outer):
        for i in range(inner):
            yield (k, i)


def i_major(outer: int, inner: int) -> Iterator[Tuple[int, int]]:
    """Work-item-interleaved order: every work-item issues iteration i
    before any issues iteration i+1."""
    _check_extents(outer, inner)
    for i in range(inner):
        for k in range(outer):
            yield (k, i)


def flattened(extents: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """Program-order flattening of an arbitrary-depth rectangular nest."""
    for extent in extents:
        _check_extent(extent)
    if not extents:
        yield ()
        return
    head, tail = extents[0], extents[1:]
    for index in range(head):
        for rest in flattened(tail):
            yield (index,) + rest


class WorkItems(_SequenceABC):
    """The degenerate nest (``trip_count == 1``): tag ``(gid, 0)`` for
    each work-item ``gid`` in ``range(global_size)``, made as iterated or
    indexed rather than held one tuple per work-item. Both policies
    coincide here. :meth:`gids` is the tags' first components as a
    column, for the batch table."""

    __slots__ = ("size",)

    def __init__(self, global_size: int) -> None:
        _check_extent(global_size)
        self.size = global_size

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return list(self)[index]
        return (range(self.size)[index], 0)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return zip(range(self.size), itertools.repeat(0))

    def gids(self) -> np.ndarray:
        """``get_global_id(0)`` of every tag, in order."""
        return np.arange(self.size, dtype=np.int64)


def ndrange_schedule(global_size: int, trip_count: int,
                     policy: str = "workitem-interleaved"
                     ) -> Iterable[Tuple[int, int]]:
    """Issue order of an NDRange kernel whose work-items run a loop.

    ``(gid, i)`` pairs; ``policy`` selects the compiler scheduling outcome:

    * ``workitem-interleaved`` — the AOCL behaviour the paper measured;
    * ``workitem-serial`` — a hypothetical serial schedule kept for
      ablation (it reproduces the single-task memory access pattern).
    """
    if policy not in NDRANGE_POLICIES:
        raise KernelBuildError(
            f"unknown NDRange policy {policy!r}; expected one of "
            f"{NDRANGE_POLICIES}")
    if trip_count == 1:
        return WorkItems(global_size)
    if policy == "workitem-interleaved":
        return i_major(global_size, trip_count)
    return k_major(global_size, trip_count)


def _check_extents(outer: int, inner: int) -> None:
    _check_extent(outer)
    _check_extent(inner)


def _check_extent(extent: int) -> None:
    if extent < 0:
        raise KernelBuildError(f"iteration extent must be >= 0, got {extent}")
