"""Span-based structured tracing with nested per-stage timings.

A :class:`Tracer` records a tree of :class:`Span` objects — one per
execution stage (parse → plan → index probe → residual predicate →
evaluate → serialize) — and serializes them as JSON.  Tracing is
strictly opt-in: the engine entry points accept ``tracer=None`` and
skip all span bookkeeping when no tracer is passed, so the disabled
cost is a ``None`` check.

Trace JSON schema (version 1)::

    {
      "trace_version": 1,
      "statement": "<query text>",
      "language": "xquery" | "sql",
      "total_ms": 12.3,
      "spans": [
        {
          "name": "plan",
          "start_ms": 0.01,          # offset from trace start
          "duration_ms": 0.85,
          "attrs": {"probes": 2},    # JSON-scalar values only
          "children": [ ...same shape... ]
        }
      ]
    }

:func:`validate_trace` checks an arbitrary object against this schema
and returns a list of problems (empty = valid); CI's smoke step and
the unit tests both call it.
"""

from __future__ import annotations

import json
import time

__all__ = ["Span", "Tracer", "TRACE_VERSION", "validate_trace"]

TRACE_VERSION = 1


class Span:
    """One timed stage; children are stages nested inside it."""

    __slots__ = ("name", "attrs", "start", "duration", "children")

    def __init__(self, name: str, start: float, **attrs):
        self.name = name
        self.attrs: dict[str, object] = attrs
        self.start = start
        self.duration: float = 0.0
        self.children: list["Span"] = []

    def set(self, **attrs) -> "Span":
        """Attach attributes discovered while the span runs."""
        self.attrs.update(attrs)
        return self

    def to_dict(self, origin: float) -> dict:
        return {
            "name": self.name,
            "start_ms": round((self.start - origin) * 1000.0, 4),
            "duration_ms": round(self.duration * 1000.0, 4),
            "attrs": dict(self.attrs),
            "children": [child.to_dict(origin) for child in self.children],
        }


class Tracer:
    """Collects a span tree for one statement execution."""

    def __init__(self, statement: str = "", language: str = "xquery",
                 clock=time.perf_counter):
        self.statement = statement
        self.language = language
        self._clock = clock
        self._origin = clock()
        self._stack: list[Span] = []
        self.roots: list[Span] = []

    def span(self, name: str, **attrs) -> "_SpanContext":
        """Context manager opening a nested span::

            with tracer.span("plan", candidates=3) as span:
                ...
                span.set(probes=len(probes))
        """
        return _SpanContext(self, name, attrs)

    def attach_remote(self, spans: list[dict], **attrs) -> None:
        """Graft span *dicts* shipped from another process.

        The process-pool workers cannot send Tracer objects across the
        pipe, so they ship ``to_dict()["spans"]`` payloads instead.
        ``perf_counter`` origins are not comparable between processes,
        so each remote tree keeps its own worker-relative ``start_ms``
        offsets, rebased onto this tracer's origin — within one remote
        tree the relative timings are exact; across processes only
        durations are meaningful.  Every grafted root is stamped with
        ``attrs`` (e.g. ``worker=2``) for per-worker span attribution.
        """
        for payload in spans:
            span = _span_from_dict(payload, self._origin)
            span.attrs.update(attrs)
            if self._stack:
                self._stack[-1].children.append(span)
            else:
                self.roots.append(span)

    # -- internal -------------------------------------------------------

    def _open(self, name: str, attrs: dict) -> Span:
        span = Span(name, self._clock(), **attrs)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.duration = self._clock() - span.start
        # Tolerate out-of-order closes (an exception unwinding through
        # several spans): pop up to and including the span.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break

    # -- output ---------------------------------------------------------

    def total_seconds(self) -> float:
        return self._clock() - self._origin

    def to_dict(self) -> dict:
        return {
            "trace_version": TRACE_VERSION,
            "statement": self.statement,
            "language": self.language,
            "total_ms": round(self.total_seconds() * 1000.0, 4),
            "spans": [span.to_dict(self._origin) for span in self.roots],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent,
                          sort_keys=False, default=str)


def _span_from_dict(payload: dict, origin: float) -> Span:
    """Rebuild a Span tree from its ``to_dict`` form (see
    :meth:`Tracer.attach_remote`)."""
    span = Span(payload["name"],
                origin + payload["start_ms"] / 1000.0,
                **payload.get("attrs", {}))
    span.duration = payload["duration_ms"] / 1000.0
    span.children = [_span_from_dict(child, origin)
                     for child in payload.get("children", [])]
    return span


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_attrs", "_span")

    def __init__(self, tracer: Tracer, name: str, attrs: dict):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._span: Span | None = None

    def __enter__(self) -> Span:
        self._span = self._tracer._open(self._name, self._attrs)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        assert self._span is not None
        if exc is not None:
            self._span.attrs.setdefault("error", repr(exc))
        self._tracer._close(self._span)


# ---------------------------------------------------------------------------
# Schema validation
# ---------------------------------------------------------------------------

_SCALARS = (str, int, float, bool, type(None))


def _validate_span(span, path: str, problems: list[str]) -> None:
    if not isinstance(span, dict):
        problems.append(f"{path}: span must be an object")
        return
    for key, kind in (("name", str), ("start_ms", (int, float)),
                      ("duration_ms", (int, float)), ("attrs", dict),
                      ("children", list)):
        if key not in span:
            problems.append(f"{path}: missing {key!r}")
        elif not isinstance(span[key], kind):
            problems.append(f"{path}.{key}: expected "
                            f"{getattr(kind, '__name__', kind)}")
    if isinstance(span.get("duration_ms"), (int, float)) and \
            span["duration_ms"] < 0:
        problems.append(f"{path}.duration_ms: negative")
    for name, value in (span.get("attrs") or {}).items():
        if not isinstance(value, _SCALARS):
            problems.append(
                f"{path}.attrs[{name!r}]: non-scalar value "
                f"{type(value).__name__}")
    for position, child in enumerate(span.get("children") or []):
        _validate_span(child, f"{path}.children[{position}]", problems)


def validate_trace(payload) -> list[str]:
    """Check ``payload`` against the trace schema; [] means valid."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return ["trace must be a JSON object"]
    if payload.get("trace_version") != TRACE_VERSION:
        problems.append(f"trace_version must be {TRACE_VERSION}")
    if not isinstance(payload.get("statement"), str):
        problems.append("statement must be a string")
    if payload.get("language") not in ("xquery", "sql"):
        problems.append("language must be 'xquery' or 'sql'")
    if not isinstance(payload.get("total_ms"), (int, float)):
        problems.append("total_ms must be a number")
    spans = payload.get("spans")
    if not isinstance(spans, list) or not spans:
        problems.append("spans must be a non-empty list")
    else:
        for position, span in enumerate(spans):
            _validate_span(span, f"spans[{position}]", problems)
    return problems
