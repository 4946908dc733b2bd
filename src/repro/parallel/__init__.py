"""Process-parallel execution: read replicas fed by log shipping.

CPython's GIL caps threads at roughly one core of XQuery evaluation;
this package escapes it with real processes, partitioning queries
past the soundness gate of :mod:`repro.planner.parallel`.  The primary
serializes a checkpoint of its current state (the same encoding
:mod:`repro.durability.checkpoint` writes to disk), ships it over a
pipe to N worker processes, and each worker runs recovery into a
read-only :class:`~repro.parallel.replica.ReplicaDatabase`.  From then
on the primary streams every appended WAL record to its followers —
log shipping — so replicas track the primary's applied state with a
lag of at most one in-flight pipe message, and a long-lived
:class:`~repro.parallel.pool.ProcessPool` amortizes the one-time
checkpoint-ship cost across every query it serves.

A freshness watermark (``last_applied_lsn``) gates every replica read:
each request carries the LSN the primary had applied when the request
was issued, and a replica that has not caught up refuses to serve
(:class:`repro.errors.StaleReplicaError`) rather than return a stale
snapshot — the orchestrator then falls back to serial execution on the
primary, recorded under ``parallel.fallback_reason.freshness``.
"""

from __future__ import annotations

from .pool import ProcessPool, ShippedQueryResult, ShippedSQLResult
from .replica import ReplicaDatabase, build_replica

__all__ = ["ProcessPool", "ReplicaDatabase", "build_replica",
           "ShippedQueryResult", "ShippedSQLResult"]
