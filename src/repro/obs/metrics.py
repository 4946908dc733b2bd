"""Process-wide metrics registry: counters, gauges, histograms.

One global :data:`METRICS` instance is shared by every engine layer.
It is **disabled by default**: every instrumented call site is written
as ``if METRICS.enabled: METRICS.inc(...)`` so the disabled cost is a
single attribute load and a falsy branch — benchmark timings with
instrumentation off must not regress.

Metric names are dotted strings, stable across releases (they are part
of the trace/EXPLAIN ANALYZE contract documented in EXPERIMENTS.md):

================================  =========================================
``querycache.hits`` / ``.misses`` compiled-query cache outcomes
``querycache.evictions``          LRU entries dropped at capacity
``btree.node_visits``             interior+leaf nodes touched by descents
``btree.leaf_scans``              leaves walked by range scans
``index.probes``                  XML index range probes executed
``index.entries_scanned``         index entries touched across all probes
``relindex.lookups``              relational index lookups
``pathsummary.builds``            per-document summaries (re)built
``pathsummary.hits``              step chains answered from a summary
``docs.scanned``                  XML documents materialized from columns
``rows.scanned``                  relational rows examined
``bufferpool.hits``               accesses that found the tree resident
``bufferpool.misses``             accesses that had to re-materialize
``bufferpool.evictions``          documents evicted by the LRU budget
``bufferpool.spills``             column payloads written to spool files
``bufferpool.loads``              column payloads read back from spool
``bufferpool.resident_bytes``     (gauge) bytes charged against the
                                  buffer-pool budget
``columnar.materializations``     XDM trees rebuilt from column stores
``queries.xquery`` / ``.sql``     statements executed
``query.seconds`` (histogram)     end-to-end statement wall time
``rwlock.read_acquires``          database read-lock acquisitions
``rwlock.write_acquires``         database write-lock acquisitions
``rwlock.read_wait_seconds``      contended reader waits (histogram)
``rwlock.write_wait_seconds``     contended writer waits (histogram)
``parallel.serial_fallbacks``     parallel entry points that ran serially
``parallel.fallback_reason.<r>``  fallbacks broken down by reason (see
                                  ``repro.planner.parallel.FALLBACK_REASONS``)
``process.fanouts``               process-pool partition executions
``process.partitions``            replica partitions across all fanouts
``process.seconds`` (histogram)   process-pool fan-out wall time
``replication.shipped_records``   WAL records streamed to replicas
``replication.bootstrap_seconds`` checkpoint-ship + replica recovery time
``replication.replica_lag_records`` (gauge) required minus applied LSN at
                                  the last fan-out (0 = replicas current)
``wal.appends``                   logical records appended to the WAL
``wal.fsyncs``                    WAL fsync calls (group commit batches)
``wal.bytes_written``             encoded record bytes written
``wal.torn_bytes_truncated``      torn-tail bytes discarded by recovery
``checkpoint.writes``             atomic checkpoints written
``checkpoint.bytes_written``      serialized checkpoint bytes
``checkpoint.loads``              checkpoints read back during recovery
``recovery.runs``                 database-directory recoveries
``recovery.records_replayed``     WAL records re-applied past checkpoint
``recovery.records_skipped``      stale records below the checkpoint LSN
``recovery.seconds`` (histogram)  end-to-end recovery wall time
``server.connections``            TCP connections accepted by ``serve``
``server.sessions``               (gauge) sessions currently open
``server.queries``                statements dispatched by the server
``server.admitted``               statements that won an execution slot
``server.shed``                   statements rejected by admission
                                  control (queue full, SQLSTATE 53300)
``server.queue_depth``            (gauge) statements waiting for a slot
``server.client_disconnects``     clients that vanished mid-query (the
                                  running statement is cancelled)
``server.query_seconds``          (histogram) per-statement wall time
                                  as the server observed it
``parallel.workers_demoted``      pool workers forcibly reaped (hung,
                                  EOF, or send failure)
``bufferpool.spill_deletes``      spool files deleted when their
                                  document was discarded
``sanitizer.violations``          total runtime-sanitizer findings
                                  (``REPRO_SANITIZE=1``; always 0 in a
                                  healthy run)
``sanitizer.lock_order``          lock-order cycles seen at acquire time
``sanitizer.upgrade``             read→write upgrade attempts observed
``sanitizer.fork``                locks held across a Process fork
``sanitizer.snapshot_mutation``   in-place mutation of a pinned
                                  snapshot's row list
``sanitizer.wal_order``           WAL appends outside the writer section
                                  or with non-contiguous LSNs
``autopilot.observations``        statements recorded by the workload
                                  profiler
``autopilot.candidates``          (gauge) index candidates at the last
                                  advise cycle
``autopilot.builds``              indexes built online by ``apply``
``autopilot.calibration_factor``  (gauge) cost-model correction factor
                                  after the last calibration pass
``autopilot.policy_cycles``       background auto-index policy cycles
``autopilot.policy_errors``       policy cycles that swallowed an error
                                  (always 0 in a healthy run)
================================  =========================================

All mutation goes through one :class:`threading.Lock`; the compiled
query cache takes its own lock first and then calls in here, never the
reverse, so the ordering is acyclic.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

__all__ = ["MetricsRegistry", "METRICS", "enabled_metrics"]


class _Histogram:
    """Streaming count/sum/min/max — enough for per-stage timings."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.minimum: float | None = None
        self.maximum: float | None = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "avg": (self.total / self.count) if self.count else None,
        }


class MetricsRegistry:
    """Thread-safe named counters, gauges and histograms.

    ``enabled`` is a plain attribute read without the lock: call sites
    use it as a cheap guard, and a stale read merely delays the first
    recorded sample by one operation — acceptable for process metrics.
    """

    __slots__ = ("enabled", "_lock", "_counters", "_gauges", "_histograms")

    def __init__(self):
        self.enabled = False
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, _Histogram] = {}

    # -- lifecycle ------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # -- recording ------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = _Histogram()
            histogram.observe(value)

    # -- reading --------------------------------------------------------

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> dict:
        """A point-in-time copy: ``{"counters", "gauges", "histograms"}``.

        Derived ratios that tests and dashboards always want are
        included under ``"derived"`` (e.g. the query-cache hit ratio).
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = {name: histogram.as_dict()
                          for name, histogram in self._histograms.items()}
        derived: dict[str, float] = {}
        cache_total = (counters.get("querycache.hits", 0) +
                       counters.get("querycache.misses", 0))
        if cache_total:
            derived["querycache.hit_ratio"] = (
                counters.get("querycache.hits", 0) / cache_total)
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms, "derived": derived}

    def render(self) -> str:
        """Human-readable snapshot, one ``name value`` per line."""
        snap = self.snapshot()
        lines = ["metrics:"]
        for name in sorted(snap["counters"]):
            lines.append(f"  {name} {snap['counters'][name]}")
        for name in sorted(snap["gauges"]):
            lines.append(f"  {name} {snap['gauges'][name]}")
        for name in sorted(snap["histograms"]):
            entry = snap["histograms"][name]
            lines.append(
                f"  {name} count={entry['count']} sum={entry['sum']:.6f} "
                f"min={entry['min']:.6f} max={entry['max']:.6f}")
        for name in sorted(snap["derived"]):
            lines.append(f"  {name} {snap['derived'][name]:.3f}")
        return "\n".join(lines)


#: The process-wide registry every engine layer records into.
METRICS = MetricsRegistry()


@contextmanager
def enabled_metrics(registry: MetricsRegistry = METRICS, *,
                    fresh: bool = True):
    """Enable ``registry`` for the duration of a block (tests, CLI).

    ``fresh=True`` resets collected values on entry so the block
    observes only its own activity.  The previous enabled state is
    restored on exit.
    """
    was_enabled = registry.enabled
    if fresh:
        registry.reset()
    registry.enable()
    try:
        yield registry
    finally:
        if not was_enabled:
            registry.disable()
