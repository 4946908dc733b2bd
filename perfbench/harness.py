"""Answer rendering, the op recorder, and the statistics the report uses.

Every timed op is one closed-loop request: the client issues it, waits
for the whole answer (rendered to text), and only then issues the next.
The answer check runs after the clock stops, so it never counts as
work the program did.
"""

from __future__ import annotations

import os
import pathlib
import platform
import statistics
import subprocess
import time
from collections import defaultdict

from repro.errors import ReproError
from repro.xmlio import serializer

#: How many failure descriptions a run keeps for its report.
MAX_FAILURE_NOTES = 5


def canonical(target, kind: str, statement: str,
              use_indexes: bool = True) -> str:
    """The statement's answer as one string, the way
    ``repro.workload.paperqueries.run_paper_query`` renders it:
    serialized items (or tab-separated SQL rows), with an engine error
    rendered as ``error: <Type>: <message>``."""
    try:
        if kind == "sql":
            result = target.sql(statement, use_indexes=use_indexes)
            lines = ["\t".join(result.columns)]
            for row in result.serialize_rows():
                lines.append("\t".join(
                    "NULL" if value is None else str(value)
                    for value in row))
            return "\n".join(lines)
        result = target.xquery(statement, use_indexes=use_indexes)
        return "\n".join(serializer.serialize(item)
                         for item in result.items)
    except ReproError as error:
        return f"error: {type(error).__name__}: {error}"


def is_error(answer: str) -> bool:
    return answer.startswith("error: ")


class Recorder:
    """Latencies by tag, busy time, and ops attempted/failed.

    ``observer`` (the tracer, in a traced run) is told where each op
    starts and ends so spans and counters can be attributed to it.
    """

    def __init__(self, observer=None):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.ops = 0
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.observer = observer
        #: (unit, label, seconds) of every timed op, in order.
        self.log: list[tuple[int, str, float]] = []
        #: tag -> statement label -> latencies.
        self.by_label: dict[str, dict[str, list[float]]] = defaultdict(
            lambda: defaultdict(list))
        self.unit = 0

    def op(self, tags: tuple[str, ...], run, expected=None, *,
           label: str, lang: str = "xquery",
           allow_error: bool = False):
        """Time ``run()`` and check what it returns.

        With ``expected`` given, the answer must equal it byte for
        byte; an engine error counts as failed unless ``allow_error``
        (the paper predicts it).  Returns the answer, or None when the
        op raised."""
        observer = self.observer
        if observer is not None:
            observer.begin(tags, lang)
        started = time.perf_counter()
        try:
            answer = run()
        except Exception as error:  # a failed op is counted, not fatal
            if observer is not None:
                observer.end(time.perf_counter() - started)
            self.check(False, f"{label}: {type(error).__name__}: {error}")
            return None
        elapsed = time.perf_counter() - started
        if observer is not None:
            observer.end(elapsed)
        self.ops += 1
        self.busy += elapsed
        self.log.append((self.unit, label, elapsed))
        for tag in tags:
            self.samples[tag].append(elapsed)
            self.by_label[tag][label].append(elapsed)
        if expected is not None and answer != expected:
            self.check(False, f"{label}: answer differs from the oracle")
        elif (isinstance(answer, str) and is_error(answer)
              and not allow_error):
            self.check(False, f"{label}: unexpected {answer[:120]}")
        else:
            self.check(True, label)
        return answer

    def background(self, tag: str, seconds: float) -> None:
        """Work the client waits for that is not an op (checkpoints)."""
        self.busy += seconds
        self.samples[tag].append(seconds)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < MAX_FAILURE_NOTES:
                self.failures.append(what)

    def absorb(self, other: "Recorder") -> None:
        """Fold another phase's correctness tally into this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        room = MAX_FAILURE_NOTES - len(self.failures)
        self.failures.extend(other.failures[:max(room, 0)])


def p50_ms(samples: list[float]) -> float:
    return statistics.median(samples) * 1000.0


def p90_ms(samples: list[float]) -> float:
    """The 90th percentile (``statistics.quantiles``, exclusive)."""
    if len(samples) < 2:
        return samples[0] * 1000.0
    return statistics.quantiles(samples, n=10)[8] * 1000.0


def tag_p50_ms(recorder: Recorder, tag: str) -> float:
    """Median of one tag's samples; 0 when the run had none."""
    samples = recorder.samples[tag]
    return p50_ms(samples) if samples else 0.0


def tag_statement_p50_ms(recorder: Recorder, tag: str) -> float:
    """Each of the tag's distinct statements' median latency, averaged
    over the statements; 0 when the run had none."""
    statements = recorder.by_label[tag]
    if not statements:
        return 0.0
    return statistics.fmean(statistics.median(samples)
                            for samples in statements.values()) * 1000.0


def tag_p90_ms(recorder: Recorder, tag: str) -> float:
    samples = recorder.samples[tag]
    return p90_ms(samples) if samples else 0.0


def peak_rss_mb() -> float:
    """This process's own resident high-water mark (``VmHWM``).

    ``ru_maxrss`` is not used: it survives ``exec`` and so reports a
    parent's peak when the benchmark is started from a larger process.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def git_sha(root: pathlib.Path) -> str:
    """The checked-out commit; ``unknown`` when ``root`` is not a git
    checkout (git is kept from looking above it) or git is missing."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, check=False,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)})
    except OSError:
        return "unknown"
    if completed.returncode:
        return "unknown"
    return completed.stdout.strip()


def host_shape(root: pathlib.Path) -> dict:
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "git": git_sha(root)}
