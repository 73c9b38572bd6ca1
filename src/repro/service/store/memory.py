"""In-process store backends — fast, shared-nothing, non-durable.

:class:`MemoryResultStore` is the LRU result cache the service has
always had, refactored behind the
:class:`~repro.service.store.base.ResultStore` interface and extended
with an eviction counter.  Cached results are shared objects: every
job that hits a key hands out the same
:class:`~repro.api.result.RouteResult` instance, so holders must treat
results as read-only (HTTP callers only ever see the serialized form).

:class:`MemoryJobStore` keeps the same bookkeeping shape as the
durable backends so the service's persistence hooks are unconditional,
but its rows die with the process — :meth:`load_pending` on a fresh
instance is empty, which is exactly the (non-)recovery semantics of an
in-memory deployment.  Tests pre-populate one to exercise the recovery
path deterministically.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Optional

from repro.errors import RoutingError
from repro.service.store.base import JobRecord, JobStore, ResultStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.result import RouteResult


class MemoryResultStore(ResultStore):
    """A thread-safe LRU over canonical request keys.

    Parameters
    ----------
    max_entries:
        Results retained before least-recently-used eviction; ``0``
        disables caching entirely (every lookup misses, nothing is
        stored) — the knob behind ``repro serve --cache-size 0``.
    """

    backend = "memory"

    def __init__(self, max_entries: int = 256):
        if max_entries < 0:
            raise RoutingError(f"cache max_entries must be >= 0, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, RouteResult]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: str) -> Optional["RouteResult"]:
        """The cached result for *key*, or ``None`` (counts hit/miss)."""
        with self._lock:
            result = self._entries.get(key)
            if result is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return result

    def put(self, key: str, result: "RouteResult") -> None:
        """Store *result* under *key*, evicting the LRU tail if needed."""
        if self.max_entries == 0:
            return
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> dict:
        """Hit/miss/size counters for the ``/metrics`` snapshot."""
        with self._lock:
            return {
                "backend": self.backend,
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            }


class MemoryJobStore(JobStore):
    """Job bookkeeping that dies with the process (no recovery)."""

    backend = "memory"

    def __init__(self):
        self._rows: dict[str, JobRecord] = {}
        self._lock = threading.Lock()

    def record(self, record: JobRecord) -> None:
        with self._lock:
            self._rows[record.id] = record

    def update(self, job_id: str, state: str, *, error: Optional[str] = None) -> None:
        with self._lock:
            row = self._rows.get(job_id)
            if row is not None:
                self._rows[job_id] = JobRecord(
                    id=row.id, key=row.key, state=state, kind=row.kind,
                    spec=row.spec, submitted_at=row.submitted_at,
                )

    def delete(self, job_id: str) -> None:
        with self._lock:
            self._rows.pop(job_id, None)

    def load_pending(self) -> list[JobRecord]:
        with self._lock:
            return sorted(self._rows.values(), key=lambda r: (r.submitted_at, r.id))
