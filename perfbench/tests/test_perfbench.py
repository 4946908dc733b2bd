"""The benchmark's own tests: run with ``python3 -m pytest perfbench/tests``.

Workloads run here at a reduced scale and for an exact number of units,
so the tests check the machinery, not the timings.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import enabled_metrics
from repro.planner.plan import ColumnPrefilter
from repro.workload.paperqueries import PAPER_INDEX_DDL, PAPER_QUERIES

from perfbench import report
from perfbench.classes import (CLASSES, EXPECTED_ERRORS,
                               STATEMENTS_DIGEST, statements_digest)
from perfbench.harness import Recorder, canonical, tag_statement_p50_ms
from perfbench.run import ROOT, run_workload
from perfbench.tracing import WRAPS, Tracer, _resolve
from perfbench.workloads import (WORKLOADS, Paper30, Paper30Capped,
                                 ServePool, WriteDurable)


class SmallPaper30(Paper30):
    orders, customers, products = 40, 8, 5
    setups = 1


class SmallCapped(Paper30Capped):
    orders, customers, products = 40, 8, 5
    setups = 1
    pool_bytes = 20_000


class SmallWriteDurable(WriteDurable):
    orders, customers, products = 40, 8, 5
    setups = 1
    checkpoint_every = 20
    tail_blocks = 2
    reopens = 2


class SmallServePool(ServePool):
    orders, customers, products = 60, 10, 5
    setups = 1
    point_count = 2


def test_class_table_covers_q1_to_q30_exactly_once():
    assert sorted(CLASSES) == list(range(1, 31)) == sorted(PAPER_QUERIES)
    assert set(CLASSES.values()) == {"eligible", "scan", "join"}
    assert {n for n, c in CLASSES.items() if c == "join"} \
        == {4, 13, 14, 15, 16}
    assert EXPECTED_ERRORS <= set(CLASSES)


def test_statement_texts_match_the_pinned_digest():
    assert statements_digest(PAPER_QUERIES, PAPER_INDEX_DDL) \
        == STATEMENTS_DIGEST


def _pass_answers_and_counters(workload):
    with enabled_metrics() as registry:
        answers = {number: canonical(workload.db, kind, text)
                   for number, (kind, text) in PAPER_QUERIES.items()}
        counters = registry.snapshot()["counters"]
    return answers, counters


@pytest.mark.parametrize("workload_class", [SmallPaper30, SmallCapped])
def test_wrappers_are_transparent_and_restored(tmp_path, workload_class):
    workload = workload_class(3, tmp_path)
    workload.build()
    originals = {}
    for owner_path, attribute, _name in WRAPS:
        owner = _resolve(owner_path)
        originals[owner_path, attribute] = (
            owner.__dict__[attribute] if isinstance(owner, type)
            else getattr(owner, attribute))
    _pass_answers_and_counters(workload)  # warm the query cache
    plain = _pass_answers_and_counters(workload)
    tracer = Tracer()
    with tracer:
        traced = _pass_answers_and_counters(workload)
    assert traced == plain
    assert tracer.spans
    for (owner_path, attribute), original in originals.items():
        owner = _resolve(owner_path)
        current = (owner.__dict__[attribute] if isinstance(owner, type)
                   else getattr(owner, attribute))
        assert current is original, (owner_path, attribute)


def test_oracle_catches_a_corrupted_answer(tmp_path, monkeypatch):
    workload = SmallPaper30(5, tmp_path)
    workload.build()
    workload.prepare(Recorder())
    clean = Recorder()
    workload.run_unit(clean)
    assert clean.failed == 0 and clean.attempted == 30
    # An index probe that loses every document: Definition 1 broken.
    monkeypatch.setattr(ColumnPrefilter, "run",
                        lambda self, stats, tracer=None, estimator=None:
                        set())
    broken = Recorder()
    workload.run_unit(broken)
    assert 0 < broken.failed < broken.attempted


@pytest.mark.parametrize("workload_class", [SmallPaper30,
                                            SmallWriteDurable])
def test_op_counts_per_class_repeat_for_a_seed(tmp_path, workload_class):
    first = run_workload(workload_class, 7, 0, False, units=3,
                         workdir=tmp_path)
    second = run_workload(workload_class, 7, 0, False, units=3,
                          workdir=tmp_path)
    assert first["failed"] == second["failed"] == 0
    assert first["samples"] == second["samples"]
    assert [label for _unit, label, _s in first["recorder"].log] \
        == [label for _unit, label, _s in second["recorder"].log]


def test_serve_pool_answers_match_in_process_serial(tmp_path):
    result = run_workload(SmallServePool, 2, 0, True, units=1,
                          workdir=tmp_path)
    assert result["failed"] == 0, result["failures"]
    metrics = result["metrics"]
    assert metrics["process.fanouts"]["value"] > 0
    assert metrics["server.queries"]["value"] > 0
    assert metrics["parallel.speedup"]["value"] > 0


def test_traced_write_run_reports_the_durability_layers(tmp_path):
    units = 4
    result = run_workload(SmallWriteDurable, 4, 0, True, units=units,
                          workdir=tmp_path)
    assert result["failed"] == 0, result["failures"]
    metrics = {name: entry["value"]
               for name, entry in result["metrics"].items()}
    assert metrics["wal.fsyncs"] > 0
    assert metrics["durability.recover_ms"] > 0
    assert metrics["recovery.records_replayed"] \
        == 2 * (SmallWriteDurable.delete_batch + 1)
    assert metrics["checkpoint.loads"] == 1
    # Per-op write layers count the measured ops only; the tail writes
    # and the reopens' replay come after the op window.
    spans = result["tracer"].spans
    ops_spans = result["ops_spans"]
    write_layers = {"storage.ingest", "storage.index_maint", "xmlio.parse"}
    measured = [span for span in spans[:ops_spans]
                if span[0] in write_layers]
    assert measured and all(span[4] is not None for span in measured)
    assert sum(span[0] == "storage.ingest" for span in measured) \
        == units * SmallWriteDurable.block.count("insert")
    assert any(span[0] == "storage.ingest" for span in spans[ops_spans:])
    assert [span[0] for span in spans[ops_spans:]
            if span[0] == "durability.recover"] \
        == ["durability.recover"] * SmallWriteDurable.reopens
    ingest = result["tracer"].summarize(0, ops_spans)["storage.ingest"]
    assert metrics["storage.ingest_ms"] == pytest.approx(
        ingest["total"] * 1000.0 / (units * len(SmallWriteDurable.block)))


def test_statement_p50_averages_each_statements_median():
    recorder = Recorder()
    recorder.by_label["eligible"]["Q1"] = [0.050, 0.070, 0.300]
    recorder.by_label["eligible"]["Q6"] = [0.002, 0.004]
    # Q1's median 70 ms and Q6's 3 ms, averaged; the outlier is ignored.
    assert tag_statement_p50_ms(recorder, "eligible") \
        == pytest.approx(36.5)
    assert tag_statement_p50_ms(recorder, "scan") == 0.0


def test_benchmark_json_matches_the_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == report.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == [(name, unit) for name, unit, _moves in report.PER_LAYER]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] \
        == [(cls.name, cls.why) for cls in WORKLOADS.values()]
