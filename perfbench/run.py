"""Run one benchmark workload (or all of them) and report its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper30-fit --seed 1 \\
        --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with
tracing off.  ``--trace 1`` runs half the time untraced, then the same
number of units with every wrapped layer traced and metrics counters
on, and reports the per-layer metrics plus the tracing overhead.  The
last line of standard output is one JSON object::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 1 when any answer was wrong, 2 when the program's
source is missing from the checkout.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("paper30-fit", "paper30-capped", "write-durable",
                  "serve-pool")


def _import_program() -> bool:
    """Put the checkout's ``src`` first on the path; False when the
    checkout holds no program."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    return True


def measure(workload, recorder, *, seconds: float | None = None,
            units: int | None = None) -> int:
    """Run whole units until ``seconds`` have passed (at least one), or
    exactly ``units`` of them.  Returns the number run."""
    started = time.perf_counter()
    done = 0
    while True:
        if units is not None:
            if done >= units:
                break
        elif done and time.perf_counter() - started >= seconds:
            break
        recorder.unit = done
        workload.run_unit(recorder)
        done += 1
    return done


def run_workload(workload_class, seed: int, seconds: float, trace: bool,
                 *, units: int | None = None, workdir=None) -> dict:
    """One run of ``workload_class`` in this process.  ``units``
    replaces the time limit with an exact unit count (the benchmark's
    tests use it)."""
    from repro.obs.metrics import enabled_metrics

    from perfbench import report
    from perfbench.harness import Recorder, host_shape
    from perfbench.tracing import Tracer

    name = workload_class.name
    if workdir is None:
        workdir = HERE / "_work"
        workdir.mkdir(exist_ok=True)
    workload = workload_class(seed, workdir)
    checks = Recorder()
    setup_seconds: list[float] = []
    try:
        for attempt in range(workload.setups):
            if attempt:
                workload.teardown()
            started = time.perf_counter()
            workload.build()
            setup_seconds.append(time.perf_counter() - started)
        workload.prepare(checks)
        untraced = Recorder()
        result = {"host": host_shape(ROOT), "workload": name,
                  "seed": seed, "trace": int(trace)}
        if not trace:
            done = measure(workload, untraced, seconds=seconds,
                           units=units)
            workload.finish(untraced)
            metrics = report.end_to_end(untraced,
                                        statistics.median(setup_seconds))
            details = {**report.read_details(untraced),
                       **workload.details(untraced)}
            result["metrics"] = {
                metric: {"value": metrics[metric], "unit": unit}
                for metric, unit, _better in report.END_TO_END}
            result["details"] = {metric: {"value": value, "unit": unit}
                                 for metric, (value, unit)
                                 in details.items()}
            checks.absorb(untraced)
        else:
            done = measure(workload, untraced, seconds=seconds / 2,
                           units=units)
            tracer = Tracer()
            traced = Recorder(observer=tracer)
            with enabled_metrics() as registry, tracer:
                measure(workload, traced, units=done)
                ops_snapshot = registry.snapshot()
                ops_spans = len(tracer.spans)
                workload.finish(traced)
                end_snapshot = registry.snapshot()
            extras = workload.layer_extras(traced)
            values = report.per_layer(tracer, ops_snapshot, end_snapshot,
                                      ops_spans, untraced, traced, extras)
            result["tracer"] = tracer
            result["ops_spans"] = ops_spans
            result["metrics"] = {
                metric: {"value": values[metric], "unit": unit}
                for metric, unit, _moves in report.PER_LAYER}
            result["moves"] = {metric: moves for metric, _unit, moves
                               in report.PER_LAYER}
            if units is None:
                spans = workdir / f"spans-{name}.jsonl"
                tracer.write(spans)
                workload.notes.append(
                    f"{len(tracer.spans)} spans written to {spans}")
            checks.absorb(untraced)
            checks.absorb(traced)
        result["units"] = done
        result["notes"] = workload.notes
        result["recorder"] = untraced
        result["samples"] = {tag: len(samples) for tag, samples
                             in untraced.samples.items()}
        result["attempted"] = checks.attempted
        result["failed"] = checks.failed
        result["failures"] = checks.failures
        return result
    finally:
        workload.teardown()


def _print_result(result: dict) -> None:
    print("host " + json.dumps({**result["host"],
                                "workload": result["workload"],
                                "seed": result["seed"],
                                "trace": result["trace"]}))
    print("samples " + json.dumps({"units": result["units"],
                                   **result["samples"]}))
    moves = result.get("moves", {})
    for section in ("metrics", "details"):
        for metric, entry in result.get(section, {}).items():
            line = f"  {metric:36s} {entry['value']:14.6f} {entry['unit']}"
            if metric in moves:
                line = f"{line:64s} moves {moves[metric]}"
            print(line)
    for note in result["notes"]:
        print(f"note {note}")
    for failure in result["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)


def _run_all(args) -> int:
    """Every workload, each in a fresh process (its own VmHWM)."""
    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    for name in WORKLOAD_NAMES:
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, entry in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _import_program():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}; run "
              f"from the root of a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    from repro.workload.paperqueries import PAPER_INDEX_DDL, PAPER_QUERIES

    from perfbench.classes import STATEMENTS_DIGEST, statements_digest
    from perfbench.workloads import WORKLOADS
    if statements_digest(PAPER_QUERIES, PAPER_INDEX_DDL) \
            != STATEMENTS_DIGEST:
        print("perfbench: the program's paper statements or index DDL "
              "changed; the frozen class table no longer applies",
              file=sys.stderr)
        return 2
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    _print_result(result)
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
