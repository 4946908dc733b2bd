"""The primary's side of log shipping: a pool of replica processes.

:class:`ProcessPool` escapes the GIL for partitionable queries.  On
construction it takes the database's shared read lock once, encodes a
checkpoint of the current state (the durability layer's own encoding —
replication *is* recovery over a pipe), subscribes to the WAL, and
records the base LSN/version; it then spawns N worker processes, ships
each the checkpoint, and streams every subsequently appended WAL
record to all of them.  Each worker replays into a sealed
:class:`~repro.parallel.replica.ReplicaDatabase` and serves partition
requests from it — real processes, so N partitions evaluate on N cores.

Correctness rests on two invariants:

* **FIFO freshness.**  WAL records are shipped from inside the
  primary's exclusive writer section, and query requests are sent
  while the primary holds its read lock; both go down the same pipe,
  and one :attr:`_ship_lock` serializes the sends.  A request stamped
  with ``required_lsn = wal.last_lsn`` therefore travels *behind*
  every record it depends on, so replicas are never stale in practice;
  the watermark check on the worker is a tripwire, and a tripped one
  falls back to serial execution under
  ``parallel.fallback_reason.freshness``.
* **Order-preserving partitions.**  Partitions are contiguous ranges
  of *positions* in the column's document list (doc_ids are process-
  local counters and do not survive the pipe), replica row order
  equals primary row order (records replay in LSN order), and workers
  document-order pure path results locally — so concatenating the
  partition results in order is byte-identical to the serial answer.

Non-durable primaries have no WAL to ship; the pool then pins the
database ``version`` it bootstrapped from and falls back to serial for
any query after a write until :meth:`ProcessPool.resync` re-ships the
full state.

Every serial fallback is recorded through
:func:`repro.planner.parallel.record_fallback`, and every pool entry
point degrades to the primary's ordinary execution paths rather than
failing the query.
"""

from __future__ import annotations

import multiprocessing
import threading
import time

from ..analysis import sanitizer as _sanitizer
from ..core.querycache import compile_query
from ..durability.checkpoint import encode_database
from ..errors import ReplicationError
from ..obs.metrics import METRICS
from ..planner.parallel import _partition, partition_reference, \
    record_fallback
from ..planner.plan import plan_prefilters
from ..planner.stats import ExecutionStats
from .worker import worker_main

__all__ = ["ProcessPool", "ShippedQueryResult", "ShippedSQLResult"]

_WRITE_HEADS = ("INSERT", "DELETE", "CREATE", "DROP", "REGISTER")


class ShippedQueryResult:
    """A QueryResult lookalike whose items crossed a process boundary.

    Workers serialize on their side, so there are no live ``items`` —
    only ``(text, is_atomic)`` segments.  ``serialize()`` and
    ``serialized()`` match :class:`repro.planner.plan.QueryResult`
    byte-for-byte (including the space between adjacent atomics that
    ``serialize_sequence`` inserts).
    """

    def __init__(self, segments: list[tuple[str, bool]],
                 stats: ExecutionStats, *, partitions: int = 0,
                 worker_cache_hits: int = 0):
        self.segments = segments
        self.stats = stats
        #: How many replica partitions produced this result.
        self.partitions = partitions
        #: Workers that reused a compiled plan from their own cache —
        #: after the pool's first request for a statement this should
        #: equal ``partitions`` (the per-process cache is long-lived).
        self.worker_cache_hits = worker_cache_hits

    def __iter__(self):
        return iter(text for text, _ in self.segments)

    def __len__(self) -> int:
        return len(self.segments)

    def serialize(self) -> list[str]:
        return [text for text, _ in self.segments]

    def serialized(self) -> str:
        parts: list[str] = []
        previous_atomic = False
        for text, is_atomic in self.segments:
            if is_atomic and previous_atomic:
                parts.append(" ")
            parts.append(text)
            previous_atomic = is_atomic
        return "".join(parts)


class ShippedSQLResult:
    """An SQLResult lookalike: rows arrive already rendered to text."""

    def __init__(self, columns: list[str], rows: list[tuple],
                 stats: ExecutionStats):
        self.columns = columns
        self.rows = rows
        self.stats = stats

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def serialize_rows(self) -> list[tuple]:
        return self.rows


class _Worker:
    """One follower process and its pipe endpoint."""

    __slots__ = ("process", "conn", "alive", "pid", "applied_lsn")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.alive = True
        self.pid: int | None = None
        self.applied_lsn = 0


class _Failure:
    __slots__ = ("reason", "detail")

    def __init__(self, reason: str, detail: str):
        self.reason = reason
        self.detail = detail


class ProcessPool:
    """N replica processes serving partitioned reads for one primary.

    Use as a context manager (or call :meth:`close`); worker processes
    are daemons, but a graceful shutdown message lets them exit their
    serve loop instead of being killed mid-request.
    """

    def __init__(self, database, processes: int = 2, *,
                 start_method: str | None = None,
                 response_timeout: float = 60.0):
        if processes < 1:
            raise ReplicationError(
                f"a process pool needs at least one worker, "
                f"got {processes}")
        self._database = database
        self._response_timeout = response_timeout
        self._context = multiprocessing.get_context(start_method)
        self._workers: list[_Worker] = []
        self._closed = False
        self._request_counter = 0
        #: Serializes every pipe send: the WAL subscriber fires on
        #: writer threads while request fan-out runs on caller threads,
        #: and interleaved sends would corrupt the stream.  Lock order
        #: is always database rwlock -> _ship_lock (the subscriber runs
        #: inside the write lock, dispatch inside the read lock), so
        #: the pair is acyclic.
        self._ship_lock = threading.Lock()
        #: Serializes whole fan-outs: responses are read off the worker
        #: pipes, and two concurrent dispatchers would steal each
        #: other's replies.
        self._dispatch_lock = threading.RLock()
        #: Records appended between WAL subscription and worker INIT —
        #: buffered, then drained in order once every pipe is primed.
        self._backlog: list[tuple[int, dict]] = []
        self._accepting = False
        self._wal = getattr(database, "wal", None)

        started = time.perf_counter() if METRICS.enabled else 0.0
        # One consistent cut: state, base LSN/version, and the WAL
        # subscription point all describe the same instant because the
        # shared lock excludes writers (encode_database only needs
        # writer exclusion, not the exclusive side).
        with database._rwlock.read():
            self._base_lsn = self._wal.last_lsn if self._wal else 0
            self._base_version = database.version
            # ship_columns: followers materialize trees straight from
            # the columnar payloads instead of re-parsing XML text.
            state = encode_database(database, self._base_lsn,
                                    ship_columns=True)
            if self._wal is not None:
                self._wal.subscribe(self._on_wal_append)
        try:
            self._spawn_workers(processes, state)
        except BaseException:
            self.close()
            raise
        if METRICS.enabled:
            METRICS.observe("replication.bootstrap_seconds",
                            time.perf_counter() - started)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _spawn_workers(self, processes: int, state: dict) -> None:
        if _sanitizer.ACTIVE is not None:
            # The bootstrap read section above has been released by
            # now; a held lock here would be cloned into every child.
            _sanitizer.ACTIVE.check_fork("ProcessPool._spawn_workers")
        for _ in range(processes):
            parent_conn, child_conn = self._context.Pipe()
            process = self._context.Process(
                target=worker_main, args=(child_conn,), daemon=True)
            process.start()
            child_conn.close()
            self._workers.append(_Worker(process, parent_conn))
        init = ("init", state, self._base_lsn,
                self._database.index_order)
        with self._ship_lock:
            for worker in self._workers:
                self._send(worker, init)
        for worker in self._workers:
            self._await_ready(worker)
        with self._ship_lock:
            for lsn, record in self._backlog:
                for worker in self._workers:
                    if worker.alive:
                        self._send(worker, ("wal", lsn, record))
            self._backlog.clear()
            self._accepting = True

    def _await_ready(self, worker: _Worker) -> None:
        if not worker.alive:
            return
        if not worker.conn.poll(self._response_timeout):
            self._demote(worker, "init-timeout")
            return
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            self._demote(worker, "init-eof")
            return
        if message[0] == "ready":
            worker.applied_lsn = message[1]
            worker.pid = message[2]
        else:
            self._demote(worker, "init-protocol")

    def close(self) -> None:
        """Graceful shutdown: unsubscribe, signal, join, reap.

        Idempotent; also invoked by ``__exit__``.  Workers that ignore
        the shutdown message within a short grace period are
        terminated — they are daemons serving an in-memory replica, so
        nothing needs flushing.
        """
        if self._closed:
            return
        self._closed = True
        if self._wal is not None:
            self._wal.unsubscribe(self._on_wal_append)
        with self._ship_lock:
            self._accepting = False
            for worker in self._workers:
                if worker.alive:
                    self._send(worker, ("shutdown",))
        for worker in self._workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                # terminate() is SIGTERM, which stays *pending* on a
                # stopped (SIGSTOPped) process; SIGKILL does not.
                worker.process.kill()
                worker.process.join(timeout=5.0)
            worker.alive = False
            if not worker.conn.closed:
                worker.conn.close()

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    @property
    def closed(self) -> bool:
        return self._closed

    def workers_alive(self) -> int:
        return sum(1 for worker in self._workers if worker.alive)

    def ping(self) -> list[tuple[int, int]]:
        """``(pid, last_applied_lsn)`` per live worker — the lag probe."""
        with self._dispatch_lock:
            requests = []
            with self._ship_lock:
                for worker in self._workers:
                    if not worker.alive:
                        continue
                    request_id = self._next_request_id()
                    self._send(worker, ("ping", request_id))
                    requests.append((worker, request_id))
            states: list[tuple[int, int]] = []
            for worker, request_id in requests:
                message = self._recv_matching(worker, "pong", request_id)
                if message is not None:
                    worker.applied_lsn = message[2]
                    states.append((worker.pid or -1, message[2]))
            return states

    def resync(self) -> int:
        """Re-ship the full current state to every live worker.

        The recovery path for non-durable primaries (no WAL to stream):
        after writes, reads fall back serially until resync re-bases
        the replicas.  Returns the number of workers refreshed.
        """
        if self._closed:
            return 0
        with self._dispatch_lock:
            with self._database._rwlock.read():
                self._base_lsn = (self._wal.last_lsn
                                  if self._wal else 0)
                self._base_version = self._database.version
                state = encode_database(self._database, self._base_lsn,
                                        ship_columns=True)
                init = ("init", state, self._base_lsn,
                        self._database.index_order)
                with self._ship_lock:
                    for worker in self._workers:
                        if worker.alive:
                            self._send(worker, init)
            refreshed = 0
            for worker in self._workers:
                if worker.alive:
                    self._await_ready(worker)
                    refreshed += 1 if worker.alive else 0
            return refreshed

    # ------------------------------------------------------------------
    # Log shipping
    # ------------------------------------------------------------------

    def _on_wal_append(self, lsn: int, record: dict) -> None:
        """WAL subscriber: runs inside the primary's writer section."""
        with self._ship_lock:
            if not self._accepting:
                self._backlog.append((lsn, record))
                return
            shipped = 0
            for worker in self._workers:
                if worker.alive:
                    self._send(worker, ("wal", lsn, record))
                    shipped += 1
        if METRICS.enabled and shipped:
            METRICS.inc("replication.shipped_records", shipped)

    # ------------------------------------------------------------------
    # Partitioned reads
    # ------------------------------------------------------------------

    def xquery(self, query: str, use_indexes: bool = True,
               tracer=None, indent: bool = False):
        """Fan one partitionable XQuery across the replica processes.

        Partitioned only past the soundness gate of
        :mod:`repro.planner.parallel`; anything the gate refuses —
        and any replica failure — runs serially on the primary instead,
        with the reason recorded.  Returns a
        :class:`ShippedQueryResult` on the parallel path, the primary's
        ordinary ``QueryResult`` on fallbacks.
        """
        if self._closed:
            return self._fallback(query, use_indexes, tracer,
                                  "pool-closed")
        compiled = compile_query(query)
        reference = partition_reference(compiled.module)
        if reference is None:
            return self._fallback(query, use_indexes, tracer,
                                  "gate-rejected")
        alive = [worker for worker in self._workers if worker.alive]
        if len(alive) < 2:
            return self._fallback(query, use_indexes, tracer,
                                  "single-worker")
        started = time.perf_counter() if METRICS.enabled else 0.0
        database = self._database
        with self._dispatch_lock, database._rwlock.read():
            if self._wal is not None:
                required_lsn = self._wal.last_lsn
            else:
                required_lsn = self._base_lsn
                if database.version != self._base_version:
                    # No WAL to ship: replicas froze at bootstrap.
                    return self._fallback(query, use_indexes, tracer,
                                          "freshness")
            table, column = database._split_reference(reference)
            documents = database.documents(table, column)
            if len(documents) < 2:
                # Checked against the raw column (before prefiltering):
                # an index that narrows 1000 documents to one still
                # deserves the fan-out machinery's stats/notes, but a
                # one-document column never does.
                return self._fallback(query, use_indexes, tracer,
                                      "too-few-docs")
            stats = ExecutionStats()
            positions = self._plan_positions(
                database, compiled, reference, documents, use_indexes,
                stats)
            partitions = _partition(positions, len(alive))
            stats.note(f"process-parallel: {len(positions)} documents "
                       f"of {reference} across {len(partitions)} "
                       f"replica processes")
            requests = []
            with self._ship_lock:
                for worker, partition in zip(alive, partitions):
                    request_id = self._next_request_id()
                    self._send(worker, (
                        "xquery", request_id, query, reference,
                        partition, required_lsn, tracer is not None,
                        indent))
                    requests.append((worker, request_id))
            payloads, failure = self._collect(requests)
        if failure is not None or len(payloads) != len(requests):
            reason = failure.reason if failure else "worker-error"
            return self._fallback(query, use_indexes, tracer, reason)

        segments: list[tuple[str, bool]] = []
        cache_hits = 0
        min_applied = required_lsn
        for worker_index, (worker, request_id) in enumerate(requests):
            payload = payloads[request_id]
            segments.extend(payload["items"])
            stats.merge(payload["stats"])
            cache_hits += 1 if payload["cache_hit"] else 0
            worker.applied_lsn = payload["applied"]
            min_applied = min(min_applied, payload["applied"])
            if tracer is not None and payload["spans"]:
                tracer.attach_remote(payload["spans"],
                                     worker=worker_index,
                                     pid=worker.pid or -1)
        stats.note(f"replica compiled-query cache: {cache_hits}/"
                   f"{len(requests)} partitions reused a plan")
        if METRICS.enabled:
            METRICS.inc("process.fanouts")
            METRICS.inc("process.partitions", len(partitions))
            METRICS.observe("process.seconds",
                            time.perf_counter() - started)
            METRICS.set_gauge("replication.replica_lag_records",
                              required_lsn - min_applied)
        return ShippedQueryResult(segments, stats,
                                  partitions=len(partitions),
                                  worker_cache_hits=cache_hits)

    def execute_many(self, statements) -> list:
        """Round-robin a batch of read statements across the replicas.

        Mirrors ``Database.execute_many`` but with process-level
        parallelism.  A batch containing any write statement runs
        entirely on the primary (``write-statements`` fallback — the
        primary is the only writer), as does a batch of fewer than two
        statements.  Results are in input order: ``ShippedQueryResult``
        for XQuery texts, ``ShippedSQLResult`` for SQL reads.
        """
        statements = list(statements)
        if self._closed:
            record_fallback("pool-closed")
            return self._database.execute_many(statements)
        if any(statement.lstrip().upper().startswith(_WRITE_HEADS)
               for statement in statements):
            record_fallback("write-statements")
            return self._database.execute_many(statements)
        alive = [worker for worker in self._workers if worker.alive]
        if len(alive) < 2 or len(statements) < 2:
            record_fallback("single-worker" if len(alive) < 2
                            else "too-few-docs")
            return self._database.execute_many(statements)
        database = self._database
        with self._dispatch_lock, database._rwlock.read():
            if self._wal is not None:
                required_lsn = self._wal.last_lsn
            else:
                required_lsn = self._base_lsn
                if database.version != self._base_version:
                    record_fallback("freshness")
                    return database.execute_many(statements)
            requests = []
            with self._ship_lock:
                for position, statement in enumerate(statements):
                    worker = alive[position % len(alive)]
                    request_id = self._next_request_id()
                    self._send(worker, ("stmt", request_id, statement,
                                        required_lsn))
                    requests.append((worker, request_id))
            payloads, failure = self._collect(requests)
        if failure is not None or len(payloads) != len(requests):
            record_fallback(failure.reason if failure
                            else "worker-error")
            return database.execute_many(statements)
        results = []
        for worker, request_id in requests:
            payload = payloads[request_id]
            worker.applied_lsn = payload["applied"]
            if payload.get("sql"):
                results.append(ShippedSQLResult(
                    payload["columns"],
                    [tuple(row) for row in payload["rows"]],
                    payload["stats"]))
            else:
                stats = payload["stats"]
                results.append(ShippedQueryResult(
                    payload["items"], stats, partitions=1,
                    worker_cache_hits=1 if payload["cache_hit"] else 0))
        return results

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _plan_positions(self, database, compiled, reference: str,
                        documents, use_indexes: bool,
                        stats: ExecutionStats) -> list[int]:
        """Index-prefilter once on the primary, return the surviving
        row positions (the wire form of a partition)."""
        positions = list(range(len(documents)))
        if not use_indexes:
            return positions
        allowed: set[int] | None = None
        prefilters = plan_prefilters(database, list(compiled.candidates),
                                     stats)
        for column, prefilter in prefilters.items():
            if column.lower() != reference.lower():
                continue
            docs = prefilter.run(stats)
            allowed = docs if allowed is None else (allowed & docs)
            for note in prefilter.notes:
                stats.note(note)
            stats.note(f"prefilter {column}: {len(docs)} documents "
                       f"survive")
        if allowed is None:
            return positions
        return [position for position in positions
                if documents[position].doc_id in allowed]

    def _fallback(self, query: str, use_indexes: bool, tracer,
                  reason: str):
        record_fallback(reason, tracer)
        return self._database.xquery(query, use_indexes=use_indexes,
                                     tracer=tracer)

    def _next_request_id(self) -> int:
        self._request_counter += 1
        return self._request_counter

    def _send(self, worker: _Worker, message: tuple) -> None:
        """Send under ``_ship_lock`` (caller holds it); a dead pipe
        demotes the worker instead of failing the operation."""
        try:
            worker.conn.send(message)
        except (OSError, ValueError):
            self._demote(worker, "send-failed")

    def _demote(self, worker: _Worker, reason: str) -> None:
        """Retire a failed worker *completely*: terminate and join its
        process and close our pipe end.

        Flagging ``alive = False`` alone leaks the process (a hung
        replica keeps its core, its replica memory, and — as a child we
        never join — eventually a zombie entry) and the pipe fd.  The
        pool must shrink honestly: after demotion the process is gone,
        the fd is closed, and ``workers_alive()`` tells the truth.
        Safe against already-exited processes and double demotion.
        """
        already = not worker.alive and worker.conn.closed
        worker.alive = False
        process = worker.process
        if process.is_alive():
            process.terminate()
            process.join(timeout=2.0)
        if process.is_alive():
            # terminate() is SIGTERM, which a *stopped* (SIGSTOPped —
            # exactly how a worker hangs without burning CPU) process
            # leaves pending forever; SIGKILL acts regardless.
            process.kill()
            process.join(timeout=5.0)
        else:
            process.join(timeout=0)  # reap an already-dead child
        if not worker.conn.closed:
            worker.conn.close()
        if not already and METRICS.enabled:
            METRICS.inc("parallel.workers_demoted")

    def _collect(self, requests) -> tuple[dict, _Failure | None]:
        """Await one response per request, in send order per worker.

        Pipes are FIFO and workers serve serially, so each worker's
        replies arrive in its own request order.  On a failure the
        remaining workers are still drained (bounded by the response
        timeout) so stray replies cannot pollute the next fan-out; an
        unresponsive worker is demoted.
        """
        payloads: dict[int, dict] = {}
        failure: _Failure | None = None
        for worker, request_id in requests:
            message = self._recv_matching(worker, "result", request_id)
            if message is None:
                if failure is None:
                    failure = _Failure(
                        "worker-error",
                        f"worker pid {worker.pid} stopped responding")
                continue
            if message[0] == "error":
                kind, detail = message[2], message[3]
                worker.applied_lsn = message[4]
                if failure is None:
                    reason = ("freshness" if kind == "StaleReplicaError"
                              else "worker-error")
                    failure = _Failure(reason, f"{kind}: {detail}")
                continue
            payloads[request_id] = message[2]
        return payloads, failure

    def _recv_matching(self, worker: _Worker, kind: str,
                       request_id: int):
        """The next reply for ``request_id`` (or the matching error);
        None on timeout/EOF, which also demotes the worker."""
        if not worker.alive:
            return None
        deadline = time.monotonic() + self._response_timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not worker.conn.poll(remaining):
                self._demote(worker, "response-timeout")
                return None
            try:
                message = worker.conn.recv()
            except (EOFError, OSError):
                self._demote(worker, "recv-eof")
                return None
            if message[0] == kind and message[1] == request_id:
                return message
            if message[0] == "error" and message[1] == request_id:
                return message
            # A reply to an abandoned earlier request: drop it.
