"""The process pool's serial-fallback taxonomy: one reason set, one
metric family, one trace span.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.obs.metrics import METRICS, enabled_metrics
from repro.obs.trace import Tracer, validate_trace
from repro.planner.parallel import (FALLBACK_REASONS, record_fallback)


def _fallback_counts() -> dict[str, int]:
    counters = METRICS.snapshot()["counters"]
    return {name: value for name, value in counters.items()
            if name.startswith("parallel.fallback_reason.")}


class TestRecordFallback:
    def test_unknown_reason_is_a_bug(self):
        with pytest.raises(ValueError):
            record_fallback("because")

    def test_counts_reason_and_legacy_aggregate(self):
        with enabled_metrics():
            record_fallback("gate-rejected")
            record_fallback("gate-rejected")
            record_fallback("freshness")
            counters = METRICS.snapshot()["counters"]
        assert counters["parallel.serial_fallbacks"] == 3
        assert counters["parallel.fallback_reason.gate-rejected"] == 2
        assert counters["parallel.fallback_reason.freshness"] == 1

    def test_disabled_metrics_cost_nothing(self):
        METRICS.reset()
        record_fallback("too-few-docs")
        assert _fallback_counts() == {}

    def test_trace_span_carries_the_reason(self):
        tracer = Tracer(statement="q", language="xquery")
        record_fallback("worker-error", tracer)
        payload = tracer.to_dict()
        assert validate_trace(payload) == []
        span = payload["spans"][0]
        assert span["name"] == "serial-fallback"
        assert span["attrs"]["reason"] == "worker-error"

    def test_every_documented_reason_is_recordable(self):
        with enabled_metrics():
            for reason in FALLBACK_REASONS:
                record_fallback(reason)
            counts = _fallback_counts()
        assert len(counts) == len(FALLBACK_REASONS)
        assert all(value == 1 for value in counts.values())


class TestAttachRemote:
    def test_remote_span_dicts_graft_and_validate(self):
        remote = Tracer(statement="q", language="xquery")
        with remote.span("replica-eval", documents=3) as span:
            with remote.span("inner"):
                pass
            span.set(actual_rows=7)
        shipped = remote.to_dict()["spans"]

        local = Tracer(statement="q", language="xquery")
        with local.span("parallel-exec"):
            local.attach_remote(shipped, worker=1, pid=4242)
        payload = local.to_dict()
        assert validate_trace(payload) == []
        grafted = payload["spans"][0]["children"][0]
        assert grafted["name"] == "replica-eval"
        assert grafted["attrs"]["worker"] == 1
        assert grafted["attrs"]["pid"] == 4242
        assert grafted["attrs"]["actual_rows"] == 7
        assert grafted["children"][0]["name"] == "inner"
        # Durations survive the round-trip exactly (they are the only
        # cross-process-meaningful timing).
        assert grafted["duration_ms"] == shipped[0]["duration_ms"]

    def test_remote_graft_at_root_level(self):
        remote = Tracer(statement="q", language="xquery")
        with remote.span("replica-eval"):
            pass
        local = Tracer(statement="q", language="xquery")
        local.attach_remote(remote.to_dict()["spans"], worker=0)
        assert [span.name for span in local.roots] == ["replica-eval"]


class TestPoolFallbacksWithoutProcesses:
    """Pool paths that never reach a worker (no fork needed: cheap)."""

    def test_gate_rejected_runs_serially(self, paper_db):
        with paper_db.process_pool(processes=1) as pool:
            query = ("for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order "
                     "order by $o/custid return $o/custid")
            with enabled_metrics():
                result = pool.xquery(query)
                counts = _fallback_counts()
        assert counts == {"parallel.fallback_reason.gate-rejected": 1}
        assert result.serialize() == paper_db.xquery(query).serialize()

    def test_one_process_pool_is_single_worker(self, paper_db):
        query = "db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/custid"
        with paper_db.process_pool(processes=1) as pool:
            with enabled_metrics():
                result = pool.xquery(query)
                counts = _fallback_counts()
        assert counts == {"parallel.fallback_reason.single-worker": 1}
        assert result.serialize() == paper_db.xquery(query).serialize()

    def test_closed_pool_still_answers(self, paper_db):
        pool = paper_db.process_pool(processes=1)
        pool.close()
        pool.close()  # idempotent
        query = "db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/custid"
        with enabled_metrics():
            result = pool.xquery(query)
            counts = _fallback_counts()
        assert counts == {"parallel.fallback_reason.pool-closed": 1}
        assert result.serialize() == paper_db.xquery(query).serialize()

    def test_zero_processes_rejected(self, paper_db):
        from repro.errors import ReplicationError
        with pytest.raises(ReplicationError):
            paper_db.process_pool(processes=0)
