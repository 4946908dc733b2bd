"""Outside-in tracing: spans recorded around calls into the program.

The program is not edited and its own ``tracer=`` hook is never used:
passing a tracer makes ``execute_xquery`` also run a full static type
inference (``_annotate_static_bounds``), so a traced run would do
different work from an untraced one.  Instead, :class:`Tracer` swaps
each public function in :data:`WRAPS` for a recording wrapper *at the
attribute its caller resolves* -- ``planner/plan.py`` imported
``compile_query`` by name, so the name in ``repro.planner.plan`` is the
one wrapped -- and puts every original back on :meth:`restore`.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index
of the enclosing span on the same thread (-1 at the top) and ``op`` the
benchmark op that was running, so engine work on the server's thread
is attributed to the client's round trip.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict

from repro.obs.metrics import METRICS

#: (module[:Class], attribute, span name).  One span name may cover
#: several bindings of the same function.
WRAPS: list[tuple[str, str, str]] = [
    ("repro.planner.plan", "compile_query", "core.compile"),
    # sql/executor.py imports compile_query inside a function, so it
    # resolves the querycache module's attribute at call time.
    ("repro.core.querycache", "compile_query", "core.compile"),
    ("repro.parallel.pool", "compile_query", "core.compile"),
    ("repro.static.infer", "static_prefilter_facts", "static.facts"),
    ("repro.planner.plan", "plan_prefilters", "planner.plan"),
    ("repro.sql.executor", "plan_prefilters", "planner.plan"),
    ("repro.parallel.pool", "plan_prefilters", "planner.plan"),
    ("repro.planner.plan:ColumnPrefilter", "run", "planner.probe"),
    ("repro.storage.columnar:ColumnStore", "materialize",
     "storage.materialize"),
    ("repro.storage.columnar:ColumnStore", "build_summary",
     "storage.summary_build"),
    ("repro.storage.catalog", "ingest_document", "storage.ingest"),
    ("repro.storage.xmlindex:XmlIndex", "index_document",
     "storage.index_maint"),
    ("repro.storage.xmlindex:XmlIndex", "remove_document",
     "storage.index_maint"),
    ("repro.planner.plan", "evaluate_module", "xquery.eval"),
    ("repro.sql.executor", "evaluate_module", "xquery.eval"),
    ("repro.sql.executor", "execute_sql", "sql.exec"),
    ("repro.xmlio.serializer", "serialize", "xmlio.serialize"),
    ("repro.xmlio.serializer", "serialize_sequence", "xmlio.serialize"),
    ("repro.server.session", "serialize", "xmlio.serialize"),
    ("repro.storage.catalog", "parse_document", "xmlio.parse"),
    ("repro.durability.wal:WriteAheadLog", "append",
     "durability.wal_append"),
    ("repro.durability.fsio", "fsync_file", "durability.wal_sync"),
    ("repro.durability.checkpoint", "encode_database",
     "durability.checkpoint_encode"),
    ("repro.durability.engine", "write_checkpoint",
     "durability.checkpoint_write"),
    ("repro.durability.engine", "recover", "durability.recover"),
    # Server sessions run statements on pinned snapshots.
    ("repro.storage.snapshot:Snapshot", "xquery", "server.engine"),
    ("repro.storage.snapshot:Snapshot", "sql", "server.engine"),
    ("repro.parallel.pool:ProcessPool", "xquery", "parallel.fanout"),
]

#: Counters read per op so they can be split by statement language.
_LANG_COUNTERS = ("columnar.materializations", "docs.scanned")


def _resolve(owner_path: str):
    module_name, _, class_name = owner_path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Records spans from wrapped program functions, plus per-op
    boundaries and counters handed to it by the benchmark's recorder."""

    def __init__(self):
        self.spans: list[list] = []
        #: (op id, tags, seconds) for every op the recorder timed.
        self.ops: list[tuple[int, tuple[str, ...], float]] = []
        self.lang_counters: dict[str, dict[str, int]] = defaultdict(
            lambda: defaultdict(int))
        self.op: int | None = None
        self._lang = "xquery"
        self._before: dict[str, int] = {}
        self._tags: tuple[str, ...] = ()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------

    def _wrap(self, function, name: str):
        spans = self.spans
        local = self._local
        lock = self._lock
        clock = time.perf_counter
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            record = [name, clock(), 0.0, stack[-1] if stack else -1,
                      tracer.op]
            with lock:
                index = len(spans)
                spans.append(record)
            stack.append(index)
            try:
                return function(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        for owner_path, attribute, name in WRAPS:
            owner = _resolve(owner_path)
            if isinstance(owner, type):
                original = owner.__dict__[attribute]
            else:
                original = getattr(owner, attribute)
            if not callable(original):
                raise TypeError(f"{owner_path}.{attribute} is not a "
                                f"plain function")
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name))

    def restore(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # -- op boundaries (called by harness.Recorder) ----------------------

    def begin(self, tags: tuple[str, ...], lang: str) -> None:
        self.op = len(self.ops)
        self._tags = tags
        self._lang = lang
        self._before = {name: METRICS.counter(name)
                        for name in _LANG_COUNTERS}

    def end(self, seconds: float) -> None:
        bucket = self.lang_counters[self._lang]
        for name, before in self._before.items():
            bucket[name] += METRICS.counter(name) - before
        self.ops.append((self.op, self._tags, seconds))
        self.op = None

    # -- analysis -------------------------------------------------------

    def summarize(self, first: int = 0,
                  last: int | None = None) -> dict[str, dict[str, float]]:
        """Per span name, over the spans ``first`` to ``last`` (a window
        of the run): ``calls`` and ``total`` seconds over outermost
        spans (a span nested in one of the same name is not counted
        twice), and ``self`` seconds over all spans."""
        spans = self.spans
        last = len(spans) if last is None else last
        covered = [0.0] * len(spans)
        for name, start, end, parent, _op in spans[first:last]:
            if parent >= 0:
                covered[parent] += end - start
        summary: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for index in range(first, last):
            name, start, end, parent, _op = spans[index]
            entry = summary[name]
            entry["self"] += (end - start) - covered[index]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                entry["calls"] += 1
                entry["total"] += end - start
        return summary

    def engine_seconds_by_op(self) -> dict[int, float]:
        engine: dict[int, float] = defaultdict(float)
        for name, start, end, _parent, op in self.spans:
            if name == "server.engine" and op is not None:
                engine[op] += end - start
        return engine

    def write(self, path) -> None:
        """Write the spans, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps(
                    [name, round(start, 9), round(end, 9), parent, op]))
                handle.write("\n")
