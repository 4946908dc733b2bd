"""Concurrent serving layer: the serial baselines and lock overhead.

Measures three shapes:

* a read-only multi-statement batch through ``execute_many`` (the
  paper's many-clients scenario), a serial loop in input order;
* one descendant-heavy unindexable scan, the query shape the process
  pool fans out (``bench_replication.py`` measures the pool itself);
* lock overhead: the serial entry point pays one uncontended read-lock
  round trip per statement, which must stay invisible.

The assertions pin *correctness* (every run returns the first run's
answers); the medians are recorded in BENCH_results.json.
"""

import pytest

from conftest import PRICE_BOUND, build_db

QUERY = ("for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
         f"//order[lineitem/@price>{PRICE_BOUND}] return $i")
SCAN_QUERY = ("for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
              "//order[lineitem/@*>190] return $i")  # unindexable


@pytest.fixture(scope="module")
def concurrency_db():
    return build_db(orders=200)


@pytest.fixture(scope="module")
def batch(concurrency_db):
    statements = [QUERY, SCAN_QUERY] * 4
    serial = [result.serialized()
              for result in concurrency_db.execute_many(statements)]
    return statements, serial


def test_execute_many_serial_baseline(benchmark, concurrency_db, batch):
    statements, serial = batch
    results = benchmark(lambda: concurrency_db.execute_many(statements))
    assert [result.serialized() for result in results] == serial


def test_xquery_serial_descendant_scan(benchmark, concurrency_db):
    result = benchmark(
        lambda: concurrency_db.xquery(SCAN_QUERY, use_indexes=False))
    assert len(result) > 0


def test_read_lock_overhead_indexed_query(benchmark, concurrency_db):
    # The per-statement cost of the uncontended read lock: this must
    # track the PR-2 era median for the same indexed query.
    result = benchmark(lambda: concurrency_db.xquery(QUERY))
    assert len(result) > 0
