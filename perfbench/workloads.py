"""The four workloads: set-up, oracle, op stream, and wind-down.

Each workload is a closed loop: one client in this process issues an
op, waits for the whole answer, checks it after the clock stops, and
issues the next.  Ops come in *units* (a pass or a block) with a fixed
mix, so every run measures the same composition; the seed decides the
data, the order of ops inside each unit and the statement parameters.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import statistics
import tempfile
import time

from repro import Database
from repro.durability.engine import DurableDatabase
from repro.server.client import ServerClient, render_payload
from repro.server.server import ServerThread
from repro.workload.paperqueries import PAPER_INDEX_DDL, PAPER_QUERIES

from .classes import CLASSES, EXPECTED_ERRORS
from .data import Generator, load
from .harness import canonical, tag_p50_ms, tag_p90_ms

XMLCOL = "db2-fn:xmlcolumn('ORDERS.ORDDOC')"


def price_statement(threshold: float) -> str:
    """Query 1's shape with a parameter: eligible for ``li_price``."""
    return (f"for $i in {XMLCOL}//order[lineitem/@price > {threshold}] "
            f"return $i")


def custid_statement(custid: int) -> str:
    """A point lookup: eligible for ``o_custid``."""
    return f"for $i in {XMLCOL}/order[custid = {custid}] return $i"


class Workload:
    """One named workload.  The harness calls ``build`` (timed, several
    times), ``prepare``, ``run_unit`` until time is up, ``finish``, and
    always ``teardown``."""

    name = ""
    why = ""
    #: Set-ups per run; setup_s is their median.
    setups = 5
    db = None

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}:ops")
        #: Lines the report prints before its result (bases of ratios).
        self.notes: list[str] = []

    def build(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def prepare(self, recorder) -> None:
        """Compute the oracle and warm caches; untimed."""

    def run_unit(self, recorder) -> None:
        raise NotImplementedError

    def finish(self, recorder) -> None:
        """Work after the measured window (reopen cycles)."""

    def details(self, recorder) -> dict[str, tuple[float, str]]:
        """End-to-end metrics only this workload has."""
        return {}

    def layer_extras(self, recorder) -> dict[str, float]:
        """Per-layer figures the workload measures itself."""
        return {}


class Paper30(Workload):
    """The paper's 30 statements over 400 orders, in seeded order."""

    name = "paper30-fit"
    why = ("The paper's 30 queries and index DDL over 400 orders that "
           "all stay resident. docs.scanned reads 0 for SQL (Q5-Q16), so "
           "materializations_per_doc covers XQuery only.")
    orders, customers, products = 400, 40, 20
    pool_bytes: int | None = None

    def build(self) -> None:
        data = Generator(self.seed, self.customers,
                         self.products).dataset(self.orders)
        self.db = Database(buffer_pool_bytes=self.pool_bytes)
        load(self.db, data, PAPER_INDEX_DDL)

    def teardown(self) -> None:
        self.db = None
        gc.collect()

    def prepare(self, recorder) -> None:
        # Definition 1: an index may change cost, never answers.
        self.oracle = {number: canonical(self.db, kind, text,
                                         use_indexes=False)
                       for number, (kind, text) in PAPER_QUERIES.items()}

    def run_unit(self, recorder) -> None:
        order = sorted(PAPER_QUERIES)
        self.rng.shuffle(order)
        for number in order:
            kind, text = PAPER_QUERIES[number]
            # Untimed: each statement starts from a collected heap, so
            # the collections inside it are set off by its own
            # allocations, not by where the statements before it left
            # the collector's counters.  Under the capped pool this
            # halves the spread of one statement's latency.  (A
            # collection costs 8-15 ms here, small beside a pass's
            # ops; the other workloads' ops are too short for it.)
            gc.collect()
            recorder.op(("read", CLASSES[number]),
                        lambda: canonical(self.db, kind, text),
                        self.oracle[number], label=f"Q{number}",
                        lang=kind, allow_error=number in EXPECTED_ERRORS)

    def details(self, recorder) -> dict[str, tuple[float, str]]:
        return {"scan_p50_ms": (tag_p50_ms(recorder, "scan"), "ms"),
                "join_p50_ms": (tag_p50_ms(recorder, "join"), "ms")}


class Paper30Capped(Paper30):
    """The same statements with a buffer pool smaller than the data."""

    name = "paper30-capped"
    why = ("The same data under a 1 MB buffer pool, about 28% of the "
           "materialized trees: the one workload larger than the "
           "program's cache.")
    pool_bytes = 1_000_000


class WriteDurable(Workload):
    """Inserts, deletes and eligible reads on a ``DurableDatabase``
    with fsync policy ``always``, checkpoints every 200 writes, then a
    fixed WAL tail replayed by several reopens."""

    name = "write-durable"
    why = ("50% insert, 10% delete, 40% eligible reads with fsync "
           "always and a checkpoint per 200 writes, then reopens that "
           "replay one WAL tail: the write path and recovery.")
    orders, customers, products = 400, 40, 20
    #: Per block: five inserts and one delete of the five oldest
    #: orders keep the collection at 400, so cost does not drift with
    #: how many ops a run completes.
    block = ("insert",) * 5 + ("delete",) + ("price",) * 2 \
        + ("point",) * 2
    delete_batch = 5
    checkpoint_every = 200
    tail_blocks = 20
    reopens = 5
    #: Above 100 only the generator's one order in 20 qualifies, so a
    #: read returns at most about 20 orders whatever the seed, and
    #: costs about what a point lookup does.  Below 100 a read returned
    #: up to 75 orders (2-9 ms) and swung the eligible metric with the
    #: host's speed more than the writes this workload is about.
    thresholds = tuple(100.0 + 0.125 * step for step in range(16))
    fsync_policy = "always"
    directory = None

    def build(self) -> None:
        self.directory = tempfile.mkdtemp(prefix="durable-",
                                          dir=self.workdir)
        self.generator = Generator(self.seed, self.customers,
                                   self.products)
        data = self.generator.dataset(self.orders)
        self.db = DurableDatabase(self.directory,
                                  fsync_policy=self.fsync_policy)
        load(self.db, data, PAPER_INDEX_DDL)
        self.db.checkpoint()
        #: The benchmark's model of the live collection, in table order.
        self.live = {order.ordid: order for order in data.orders}
        self.next_ordid = self.orders + 1
        self.writes = 0
        self.user_bytes = 0
        self.wal_path = self.db.wal.path
        self.wal_base = os.path.getsize(self.wal_path)
        self.cycle_bytes = 0
        self.cycle_user_bytes = 0
        self.recover_seconds: list[float] = []

    def teardown(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)
            self.directory = None

    # -- the model ------------------------------------------------------

    def expected(self, kind: str, parameter) -> str:
        if kind == "price":
            chosen = (order.text for order in self.live.values()
                      if order.max_price > parameter)
        else:
            chosen = (order.text for order in self.live.values()
                      if order.custid == parameter)
        return "\n".join(chosen)

    def statement(self, kind: str, parameter) -> str:
        if kind == "price":
            return price_statement(parameter)
        return custid_statement(parameter)

    def distinct_reads(self):
        for threshold in self.thresholds:
            yield "price", threshold
        for custid in range(1, self.customers + 1):
            yield "point", custid

    def prepare(self, recorder) -> None:
        # The model stands in for a per-op scan oracle (a scan per read
        # would cost three times the measured work).  It is itself held
        # to Definition 1 here and again before close.
        for kind, parameter in self.distinct_reads():
            statement = self.statement(kind, parameter)
            model = self.expected(kind, parameter)
            recorder.check(
                canonical(self.db, "xquery", statement,
                          use_indexes=False) == model,
                f"model vs scan: {statement}")
            recorder.check(canonical(self.db, "xquery", statement) == model,
                           f"model vs index: {statement}")

    # -- ops ------------------------------------------------------------

    def run_unit(self, recorder) -> None:
        kinds = list(self.block)
        self.rng.shuffle(kinds)
        for kind in kinds:
            if kind == "insert":
                self.insert(recorder)
            elif kind == "delete":
                self.delete(recorder)
            else:
                parameter = (self.rng.choice(self.thresholds)
                             if kind == "price"
                             else self.rng.randint(1, self.customers))
                statement = self.statement(kind, parameter)
                recorder.op(("read", "eligible"),
                            lambda: canonical(self.db, "xquery",
                                              statement),
                            self.expected(kind, parameter),
                            label=statement)

    def insert(self, recorder, timed: bool = True) -> None:
        order = self.generator.order(self.next_ordid)
        self.next_ordid += 1
        values = {"ordid": order.ordid, "orddoc": order.text}
        if timed:
            recorder.op(("write", "insert"),
                        lambda: self.db.insert("orders", values)
                        is not None, True, label="insert")
            self.user_bytes += len(order.text.encode("utf-8"))
            self.wrote(recorder)
        else:
            self.db.insert("orders", values)
        self.live[order.ordid] = order

    def delete(self, recorder, timed: bool = True) -> None:
        victims = list(self.live)[:self.delete_batch]
        cutoff = victims[-1]

        def run():
            return self.db.delete_rows(
                "orders", lambda values: values["ordid"] <= cutoff)

        if timed:
            recorder.op(("write", "delete"), run, len(victims),
                        label="delete")
            self.wrote(recorder)
        else:
            recorder.check(run() == len(victims), "tail delete")
        for ordid in victims:
            del self.live[ordid]

    def wrote(self, recorder) -> None:
        self.writes += 1
        if self.writes % self.checkpoint_every:
            return
        wal_bytes = os.path.getsize(self.wal_path) - self.wal_base
        started = time.perf_counter()
        info = self.db.checkpoint()
        recorder.background("checkpoint", time.perf_counter() - started)
        self.cycle_bytes += wal_bytes + info.bytes_written
        self.cycle_user_bytes = self.user_bytes
        self.wal_base = os.path.getsize(self.wal_path)

    # -- wind-down: a fixed WAL tail, then reopen cycles ------------------

    def verification_reads(self):
        return ([("price", threshold) for threshold in self.thresholds[::4]]
                + [("point", custid) for custid in (1, 11, 21, 31)])

    def finish(self, recorder) -> None:
        self.db.checkpoint()
        tail = 0
        for _ in range(self.tail_blocks):
            for _ in range(self.delete_batch):
                self.insert(recorder, timed=False)
            self.delete(recorder, timed=False)
            tail += self.delete_batch + 1
        statements = [self.statement(kind, parameter)
                      for kind, parameter in self.verification_reads()]
        before = {}
        for (kind, parameter), statement in zip(
                self.verification_reads(), statements):
            before[statement] = canonical(self.db, "xquery", statement)
            recorder.check(before[statement]
                           == self.expected(kind, parameter),
                           f"before close: {statement}")
            recorder.check(canonical(self.db, "xquery", statement,
                                     use_indexes=False)
                           == before[statement],
                           f"before close, scan: {statement}")
        # close() does not checkpoint, so every reopen replays the tail.
        self.db.close()
        self.db = None
        for _ in range(self.reopens):
            started = time.perf_counter()
            reopened = DurableDatabase(self.directory,
                                       fsync_policy=self.fsync_policy)
            self.recover_seconds.append(time.perf_counter() - started)
            try:
                recorder.check(reopened.last_recovery.replayed == tail,
                               f"reopen replayed "
                               f"{reopened.last_recovery.replayed} of "
                               f"{tail} tail records")
                for statement in statements:
                    recorder.check(
                        canonical(reopened, "xquery", statement)
                        == before[statement],
                        f"after reopen: {statement}")
            finally:
                reopened.close()

    def details(self, recorder) -> dict[str, tuple[float, str]]:
        # Over whole checkpoint cycles only: a cycle's bytes do not
        # depend on where the time limit cut the last one.
        ratio = (self.cycle_bytes / self.cycle_user_bytes
                 if self.cycle_user_bytes else 0.0)
        return {
            "write_p50_ms": (tag_p50_ms(recorder, "write"), "ms"),
            "write_p90_ms": (tag_p90_ms(recorder, "write"), "ms"),
            "checkpoint_s": (statistics.median(
                recorder.samples["checkpoint"] or [0.0]), "s"),
            "recover_s": (statistics.median(self.recover_seconds), "s"),
            "storage_bytes_per_user_byte": (ratio, "B/B"),
        }


class ServePool(Workload):
    """Round trips to an in-process server plus process-pool scans."""

    name = "serve-pool"
    why = ("1600 orders: eligible point statements over one loopback "
           "connection, full scans through a 2-process pool. Per-layer "
           "eval and scan counters miss the pool workers' evaluation.")
    orders, customers, products = 1600, 160, 20
    #: A set-up here takes about 3 s, most of it the pool bootstrap.
    setups = 3
    #: Per block: six round trips and one of each scan statement.
    block = ("price",) * 3 + ("point",) * 3
    thresholds = (99.5, 99.75, 100.0, 100.25)
    point_count = 8

    def __init__(self, seed: int, workdir):
        super().__init__(seed, workdir)
        params = random.Random(f"{self.name}:{seed}:params")
        self.custids = params.sample(range(1, self.customers + 1),
                                     self.point_count)
        products = params.sample(range(self.products), 2)
        self.scans = [
            f"for $i in {XMLCOL}//order[lineitem/@*>100] return $i",
            f'for $i in {XMLCOL}//order[lineitem/@price > "100" ] '
            f"return $i",
        ] + [f"{XMLCOL}//lineitem[product/id = 'P{index:05d}']"
             for index in products]
        self.processes = min(2, os.cpu_count() or 1)
        self.db = self.pool = self.server = self.client = None

    def build(self) -> None:
        data = Generator(self.seed, self.customers,
                         self.products).dataset(self.orders)
        self.db = Database()
        load(self.db, data, PAPER_INDEX_DDL)
        # The pool forks its workers, so it starts before the server
        # thread exists.
        started = time.perf_counter()
        self.pool = self.db.process_pool(processes=self.processes)
        self.bootstrap_s = time.perf_counter() - started
        self.server = ServerThread(self.db, max_active=1)
        host, port = self.server.__enter__()
        self.client = ServerClient(host, port)

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.server is not None:
            self.server.stop()
        if self.pool is not None:
            self.pool.close()
        self.db = self.pool = self.server = self.client = None
        gc.collect()

    def rpc_statements(self) -> list[str]:
        return ([price_statement(value) for value in self.thresholds]
                + [custid_statement(value) for value in self.custids])

    def rpc(self, statement: str) -> str:
        return render_payload(self.client.query(statement))

    def pooled(self, statement: str) -> str:
        return "\n".join(self.pool.xquery(statement).serialize())

    def prepare(self, recorder) -> None:
        self.oracle = {}
        for statement in self.rpc_statements() + self.scans:
            self.oracle[statement] = canonical(self.db, "xquery",
                                               statement,
                                               use_indexes=False)
        # Warm the compiled-query caches: the server's (this process)
        # and each pool worker's.
        for statement in self.rpc_statements():
            recorder.check(self.rpc(statement) == self.oracle[statement],
                           f"warm-up rpc: {statement}")
        for statement in self.scans:
            recorder.check(
                self.pooled(statement) == self.oracle[statement],
                f"warm-up pool: {statement}")

    def run_unit(self, recorder) -> None:
        ops = [(kind, None) for kind in self.block] \
            + [("scan", statement) for statement in self.scans]
        self.rng.shuffle(ops)
        for kind, statement in ops:
            if kind == "scan":
                recorder.op(("read", "scan"),
                            lambda: self.pooled(statement),
                            self.oracle[statement], label=statement)
                continue
            statement = (price_statement(self.rng.choice(self.thresholds))
                         if kind == "price"
                         else custid_statement(self.rng.choice(self.custids)))
            recorder.op(("read", "eligible", "rpc"),
                        lambda: self.rpc(statement),
                        self.oracle[statement], label=statement)

    def details(self, recorder) -> dict[str, tuple[float, str]]:
        return {"rpc_p50_ms": (tag_p50_ms(recorder, "rpc"), "ms"),
                "scan_p50_ms": (tag_p50_ms(recorder, "scan"), "ms")}

    def layer_extras(self, recorder) -> dict[str, float]:
        """Pool speedup: serial in-process median over pool median on
        the same scan statements, interleaved, three rounds each."""
        serial: list[float] = []
        pooled: list[float] = []
        for _ in range(3):
            for statement in self.scans:
                started = time.perf_counter()
                answer = canonical(self.db, "xquery", statement)
                serial.append(time.perf_counter() - started)
                recorder.check(answer == self.oracle[statement],
                               f"serial: {statement}")
                started = time.perf_counter()
                answer = self.pooled(statement)
                pooled.append(time.perf_counter() - started)
                recorder.check(answer == self.oracle[statement],
                               f"speedup pool: {statement}")
        serial_median = statistics.median(serial)
        pooled_median = statistics.median(pooled)
        self.notes.append(
            "xquery.eval_self_ms, docs.scanned and pathsummary.hits "
            "cover the server thread's statements only: the pool "
            "workers fork before tracing starts and count nothing")
        self.notes.append(
            f"parallel.speedup base: serial in-process median "
            f"{serial_median * 1000:.3f} ms / {self.processes}-process "
            f"pool median {pooled_median * 1000:.3f} ms over "
            f"{len(self.scans)} scan statements x 3 rounds")
        return {"parallel.bootstrap_s": self.bootstrap_s,
                "parallel.speedup": serial_median / pooled_median}


WORKLOADS = {cls.name: cls for cls in
             (Paper30, Paper30Capped, WriteDurable, ServePool)}
