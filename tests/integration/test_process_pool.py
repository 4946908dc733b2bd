"""End-to-end process pool: log-shipped replicas serving real queries.

These tests fork real worker processes (2 per pool — pinned, so the
suite behaves the same on 1-core CI and a big workstation) and check
the pool's one promise: every answer is byte-identical to the serial
answer on the primary, whether it came back from the replicas or from
a recorded serial fallback.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.durability import DurableDatabase
from repro.obs.metrics import METRICS, enabled_metrics
from repro.obs.trace import Tracer, validate_trace
from repro.parallel import ProcessPool, ShippedQueryResult, \
    ShippedSQLResult
from repro.workload.paperqueries import load_paper_fixture

PATH_QUERY = "db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/custid"
FLWOR_QUERY = ("for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order "
               "where $o/custid = 1001 "
               "return <hit>{$o/custid/text()}</hit>")
PRICE_QUERY = ("db2-fn:xmlcolumn('ORDERS.ORDDOC')"
               "//order[lineitem/@price > 100]")
#: The paper's Query 1, a row-per-lineitem path and a per-document
#: constructor: the rest of the partitionable shapes.
Q1_QUERY = ("for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
            "//order[lineitem/@price>100] return $i")
LINEITEM_QUERY = ("db2-fn:xmlcolumn('ORDERS.ORDDOC')"
                  "//lineitem[@price > 100]")
CONSTRUCTOR_QUERY = ("for $d in db2-fn:xmlcolumn('ORDERS.ORDDOC') "
                     "return <r>{$d//product/id}</r>")
NEW_ORDER = ("<order><custid>1001</custid>"
             "<lineitem price=\"175\"><product><id>77</id></product>"
             "</lineitem></order>")


@pytest.fixture()
def pool_db() -> Database:
    database = Database()
    load_paper_fixture(database)
    return database


@pytest.fixture()
def durable_pool_db(tmp_path):
    with DurableDatabase(tmp_path / "state") as database:
        load_paper_fixture(database)
        yield database


class TestPartitionedReads:
    def test_byte_identical_across_query_shapes(self, pool_db):
        with pool_db.process_pool(processes=2) as pool:
            for query in (PATH_QUERY, FLWOR_QUERY, PRICE_QUERY, Q1_QUERY,
                          LINEITEM_QUERY, CONSTRUCTOR_QUERY):
                shipped = pool.xquery(query)
                serial = pool_db.xquery(query)
                assert isinstance(shipped, ShippedQueryResult)
                assert shipped.serialized() == serial.serialized()
                assert shipped.serialize() == serial.serialize()

    def test_atomic_results_keep_sequence_spacing(self, pool_db):
        query = ("db2-fn:xmlcolumn('ORDERS.ORDDOC')"
                 "/order/custid/text()")
        with pool_db.process_pool(processes=2) as pool:
            shipped = pool.xquery(query)
        assert shipped.serialized() == \
            pool_db.xquery(query).serialized()

    def test_prefilter_planned_once_on_primary(self, pool_db):
        """The primary's index prefilter travels as positions: workers
        scan only surviving documents and never re-plan."""
        with pool_db.process_pool(processes=2) as pool:
            shipped = pool.xquery(PRICE_QUERY)
        assert "li_price" in shipped.stats.indexes_used
        # Only the one qualifying document is ever materialized, and
        # only on a worker.
        assert shipped.stats.docs_scanned == 1
        assert any("prefilter" in note
                   for note in shipped.stats.plan_notes)
        assert any("process-parallel" in note
                   for note in shipped.stats.plan_notes)

    def test_worker_cache_reused_across_pool_requests(self, pool_db):
        with pool_db.process_pool(processes=2) as pool:
            first = pool.xquery(PATH_QUERY)
            second = pool.xquery(PATH_QUERY)
        assert first.worker_cache_hits == 0
        assert second.worker_cache_hits == second.partitions == 2
        assert any("replica compiled-query cache: 2/2" in note
                   for note in second.stats.plan_notes)

    def test_too_few_docs_falls_back(self, pool_db):
        pool_db.create_table("solo", [("doc", "XML")])
        pool_db.insert("solo", {"doc": "<only><a>1</a></only>"})
        with pool_db.process_pool(processes=2) as pool:
            with enabled_metrics():
                result = pool.xquery(
                    "db2-fn:xmlcolumn('SOLO.DOC')/only/a")
                counters = METRICS.snapshot()["counters"]
        assert counters[
            "parallel.fallback_reason.too-few-docs"] == 1
        assert result.serialize() == ["<a>1</a>"]

    def test_fanout_metrics_and_lag_gauge(self, pool_db):
        with pool_db.process_pool(processes=2) as pool:
            with enabled_metrics():
                pool.xquery(PATH_QUERY)
                snapshot = METRICS.snapshot()
        assert snapshot["counters"]["process.fanouts"] == 1
        assert snapshot["counters"].get("parallel.serial_fallbacks",
                                        0) == 0
        assert snapshot["counters"]["process.partitions"] == 2
        assert snapshot["histograms"]["process.seconds"]["count"] == 1
        assert snapshot["gauges"][
            "replication.replica_lag_records"] == 0


class TestLogShipping:
    def test_writes_stream_to_replicas(self, durable_pool_db):
        database = durable_pool_db
        with database.process_pool(processes=2) as pool:
            before = pool.xquery(PATH_QUERY)
            database.insert("orders", {"ordid": 99, "orddoc": NEW_ORDER})
            with enabled_metrics():
                after = pool.xquery(PATH_QUERY)
                counters = METRICS.snapshot()["counters"]
            # Served in parallel — log shipping kept replicas fresh, so
            # no freshness fallback was needed.
            assert isinstance(after, ShippedQueryResult)
            assert counters.get("parallel.serial_fallbacks", 0) == 0
            assert after.serialized() == \
                database.xquery(PATH_QUERY).serialized()
            assert len(after.serialize()) == len(before.serialize()) + 1

    def test_ping_reports_caught_up_watermarks(self, durable_pool_db):
        database = durable_pool_db
        with database.process_pool(processes=2) as pool:
            database.insert("orders", {"ordid": 98, "orddoc": NEW_ORDER})
            database.delete_rows(
                "orders", lambda values: values["ordid"] == 98)
            states = pool.ping()
            assert len(states) == 2
            assert all(applied == database.wal.last_lsn
                       for _pid, applied in states)

    def test_delete_replays_on_replicas(self, durable_pool_db):
        database = durable_pool_db
        with database.process_pool(processes=2) as pool:
            database.delete_rows(
                "orders", lambda values: values["ordid"] in (3, 5))
            shipped = pool.xquery(PATH_QUERY)
            assert isinstance(shipped, ShippedQueryResult)
            assert shipped.serialized() == \
                database.xquery(PATH_QUERY).serialized()

    def test_ddl_replays_on_replicas(self, durable_pool_db):
        database = durable_pool_db
        with database.process_pool(processes=2) as pool:
            database.execute(
                "CREATE INDEX li_qty ON orders(orddoc) "
                "USING XMLPATTERN '//lineitem/@quantity' AS DOUBLE")
            query = ("db2-fn:xmlcolumn('ORDERS.ORDDOC')"
                     "//order[lineitem/@quantity = 2]")
            shipped = pool.xquery(query)
            assert isinstance(shipped, ShippedQueryResult)
            assert shipped.serialized() == \
                database.xquery(query).serialized()

    def test_plain_database_freshness_fallback_and_resync(self, pool_db):
        with pool_db.process_pool(processes=2) as pool:
            assert isinstance(pool.xquery(PATH_QUERY),
                              ShippedQueryResult)
            pool_db.insert("orders", {"ordid": 97, "orddoc": NEW_ORDER})
            with enabled_metrics():
                stale = pool.xquery(PATH_QUERY)
                counters = METRICS.snapshot()["counters"]
            # No WAL to ship on a plain Database: correct but serial.
            assert not isinstance(stale, ShippedQueryResult)
            assert counters["parallel.fallback_reason.freshness"] == 1
            assert stale.serialize() == \
                pool_db.xquery(PATH_QUERY).serialize()
            assert pool.resync() == 2
            fresh = pool.xquery(PATH_QUERY)
            assert isinstance(fresh, ShippedQueryResult)
            assert fresh.serialized() == \
                pool_db.xquery(PATH_QUERY).serialized()


class TestExecuteMany:
    STATEMENTS = [
        PATH_QUERY,
        "SELECT ordid FROM orders WHERE ordid = 3",
        FLWOR_QUERY,
        "SELECT cid FROM customer",
    ]

    def test_round_robin_matches_serial(self, durable_pool_db):
        database = durable_pool_db
        serial = database.execute_many(self.STATEMENTS)
        with database.process_pool(processes=2) as pool:
            shipped = pool.execute_many(self.STATEMENTS)
        assert [type(result).__name__ for result in shipped] == [
            "ShippedQueryResult", "ShippedSQLResult",
            "ShippedQueryResult", "ShippedSQLResult"]
        for ours, theirs in zip(shipped, serial):
            if isinstance(ours, ShippedSQLResult):
                assert ours.columns == theirs.columns
                assert ours.serialize_rows() == theirs.serialize_rows()
            else:
                assert ours.serialized() == theirs.serialized()

    def test_write_batch_runs_on_primary(self, durable_pool_db):
        database = durable_pool_db
        batch = ["INSERT INTO orders (ordid, orddoc) VALUES "
                 f"(96, '{NEW_ORDER}')", PATH_QUERY]
        with database.process_pool(processes=2) as pool:
            with enabled_metrics():
                results = pool.execute_many(batch)
                counters = METRICS.snapshot()["counters"]
        assert counters[
            "parallel.fallback_reason.write-statements"] == 1
        assert results[0].rows == [(1,)]
        assert database.table("orders").rows[-1].values["ordid"] == 96

    def test_single_statement_batch_stays_serial(self, durable_pool_db):
        with durable_pool_db.process_pool(processes=2) as pool:
            with enabled_metrics():
                results = pool.execute_many([PATH_QUERY])
                counters = METRICS.snapshot()["counters"]
        assert len(results) == 1
        assert counters["parallel.fallback_reason.too-few-docs"] == 1


class TestTracing:
    def test_replica_spans_graft_into_primary_trace(self, pool_db):
        tracer = Tracer(statement=PATH_QUERY, language="xquery")
        with pool_db.process_pool(processes=2) as pool:
            shipped = pool.xquery(PATH_QUERY, tracer=tracer)
        assert isinstance(shipped, ShippedQueryResult)
        payload = tracer.to_dict()
        assert validate_trace(payload) == []
        replica_spans = [span for span in payload["spans"]
                         if span["name"] == "replica-eval"]
        assert len(replica_spans) == 2
        assert sorted(span["attrs"]["worker"]
                      for span in replica_spans) == [0, 1]
        assert all(span["attrs"]["pid"] > 0 for span in replica_spans)


class TestLifecycle:
    def test_graceful_shutdown_reaps_workers(self, pool_db):
        pool = pool_db.process_pool(processes=2)
        workers = list(pool._workers)
        assert pool.workers_alive() == 2
        pool.close()
        assert pool.closed
        assert pool.workers_alive() == 0
        assert all(not worker.process.is_alive() for worker in workers)
        pool.close()  # idempotent

    def test_wal_subscription_removed_on_close(self, durable_pool_db):
        database = durable_pool_db
        pool = database.process_pool(processes=2)
        assert database.wal._subscribers
        pool.close()
        assert not database.wal._subscribers
        # Writes after close must not try to ship anywhere.
        database.insert("orders", {"ordid": 95, "orddoc": NEW_ORDER})

    def test_hung_worker_is_demoted_and_reaped(self, pool_db):
        """A worker that stops responding must be *reaped* — process
        terminated and joined, pipe closed — not just flagged dead.

        SIGSTOP models the worst hang: the process ignores everything
        except SIGKILL (SIGTERM stays pending on a stopped process), so
        this also proves the terminate->kill escalation."""
        import os
        import signal

        with pool_db.process_pool(processes=2,
                                  response_timeout=2.0) as pool:
            victim = pool._workers[0]
            os.kill(victim.process.pid, signal.SIGSTOP)
            with enabled_metrics():
                result = pool.xquery(PATH_QUERY)
                counters = METRICS.snapshot()["counters"]
            # The fan-out timed out on the stopped worker, demoted it,
            # and fell back to a correct serial answer.
            assert counters["parallel.workers_demoted"] == 1
            assert "parallel.fallback_reason.worker-error" in counters
            assert result.serialize() == \
                pool_db.xquery(PATH_QUERY).serialize()
            # Reaped for real: process gone, our pipe end closed, the
            # pool shrunk honestly.
            assert not victim.alive
            assert not victim.process.is_alive()
            assert victim.process.exitcode is not None
            assert victim.conn.closed
            assert pool.workers_alive() == 1
            # The survivor still answers (serially, single-worker).
            again = pool.xquery(PATH_QUERY)
            assert again.serialize() == \
                pool_db.xquery(PATH_QUERY).serialize()

    def test_pool_survives_a_killed_worker(self, pool_db):
        with pool_db.process_pool(processes=2) as pool:
            victim = pool._workers[0]
            victim.process.terminate()
            victim.process.join(timeout=5.0)
            with enabled_metrics():
                result = pool.xquery(PATH_QUERY)
                counters = METRICS.snapshot()["counters"]
            # One worker left -> serial fallback, correct answer.
            reasons = {name for name in counters
                       if name.startswith("parallel.fallback_reason.")}
            assert reasons <= {"parallel.fallback_reason.worker-error",
                               "parallel.fallback_reason.single-worker"}
            assert reasons
            assert result.serialize() == \
                pool_db.xquery(PATH_QUERY).serialize()


class TestCLI:
    def test_query_with_processes_flag(self, tmp_path):
        import io

        from repro.cli import main
        for position in range(4):
            (tmp_path / f"doc{position}.xml").write_text(
                f"<item><name>n{position}</name></item>")
        out = io.StringIO()
        code = main(["query", "--load", str(tmp_path),
                     "--processes", "2",
                     "db2-fn:xmlcolumn('DOCS.DOC')/item/name"],
                    out=out)
        captured = out.getvalue()
        assert code == 0
        for position in range(4):
            assert f"<name>n{position}</name>" in captured
