"""The partition gate and fallback taxonomy of the process pool.

A ``db2-fn:xmlcolumn`` query touches many independent documents, so a
descendant-heavy or multi-document query can be split by document:
each replica process of :mod:`repro.parallel.pool` evaluates the
*same* compiled query over a disjoint slice of the column, and the
orchestrator concatenates the slices in document order.  This mirrors
the path/document partitioning surveyed for RadegastXDB and
Sedna-style engines.

Soundness gate (:func:`partition_reference`) — a query is partitioned
only when splitting provably cannot change its answer:

* exactly one ``db2-fn:xmlcolumn`` call, with a literal reference, and
  no ``db2-fn:sqlquery`` anywhere (including prolog functions) — a
  nested SQL call would need database re-entry from a worker;
* the body is that call, a relative path rooted at it (no predicates
  on the call step itself — those would filter the *global* document
  sequence), or a FLWOR whose first clause is a plain ``for`` (no
  position variable) over such a path;
* no ``order by`` in the top FLWOR — its sort is over the whole
  binding stream.

Everything per-binding (where clauses, nested FLWORs, constructors)
distributes over concatenation; per-step predicates apply within one
context node and never cross documents.  :func:`_partition` cuts the
surviving documents into contiguous row-order chunks, so concatenation
preserves order.

Anything else falls back to the serial path, counted in
``parallel.serial_fallbacks`` and broken down by cause in
``parallel.fallback_reason.<reason>`` (see :data:`FALLBACK_REASONS`),
all through :func:`record_fallback` so dashboards see one taxonomy.
"""

from __future__ import annotations

from ..obs.metrics import METRICS
from ..xdm.qname import DB2FN_NS
from ..xquery import ast

__all__ = ["partition_reference", "record_fallback", "FALLBACK_REASONS"]

#: Every reason a parallel entry point may decline to fan out.  The
#: reason becomes a metric suffix (``parallel.fallback_reason.<r>``)
#: and a ``serial-fallback`` trace-span attribute, so the set is a
#: stable contract of the process pool's entry points.
FALLBACK_REASONS = (
    "gate-rejected",     # partition_reference refused the query shape
    "single-worker",     # fewer than two live replicas: nothing to fan to
    "too-few-docs",      # fewer documents than would pay for a fan-out
    "freshness",         # replicas behind the required LSN / version
    "write-statements",  # batch contains writes: primary-only
    "worker-error",      # a worker process failed or timed out
    "pool-closed",       # the process pool was already shut down
)


def record_fallback(reason: str, tracer=None) -> None:
    """Count one serial fallback under its reason.

    Keeps the legacy aggregate ``parallel.serial_fallbacks`` in step
    with the per-reason family, and (when a tracer is active) records a
    ``serial-fallback`` span carrying ``reason`` so traces explain why
    a query ran serially.
    """
    if reason not in FALLBACK_REASONS:
        raise ValueError(f"unknown fallback reason {reason!r}")
    if METRICS.enabled:
        METRICS.inc("parallel.serial_fallbacks")
        METRICS.inc(f"parallel.fallback_reason.{reason}")
    if tracer is not None:
        with tracer.span("serial-fallback", reason=reason):
            pass


def _db2_calls(module: ast.Module) -> tuple[list, bool]:
    """(xmlcolumn calls, saw_sqlquery) across body AND prolog bodies."""
    scope: list[object] = list(ast.walk(module.body))
    for function in module.prolog.functions.values():
        scope.extend(ast.walk(function.body))
    xmlcolumn_calls = []
    saw_sqlquery = False
    for node in scope:
        if not isinstance(node, ast.FunctionCall):
            continue
        if node.name.uri != DB2FN_NS:
            continue
        if node.name.local == "xmlcolumn":
            xmlcolumn_calls.append(node)
        elif node.name.local == "sqlquery":
            saw_sqlquery = True
    return xmlcolumn_calls, saw_sqlquery


def _rooted_at(expr, call) -> bool:
    """Is ``expr`` the call itself or a relative path rooted at it with
    no predicates on the root step (which would be global filters)?"""
    if expr is call:
        return True
    if isinstance(expr, ast.PathExpr) and not expr.absolute and expr.steps:
        first = expr.steps[0]
        return (isinstance(first, ast.ExprStep) and first.expr is call
                and not first.predicates)
    return False


def partition_reference(module: ast.Module) -> str | None:
    """The ``TABLE.COLUMN`` reference to partition on, or None when the
    query is not provably partitionable (serial fallback)."""
    calls, saw_sqlquery = _db2_calls(module)
    if saw_sqlquery or len(calls) != 1:
        return None
    call = calls[0]
    if len(call.args) != 1:
        return None
    argument = call.args[0]
    if not (isinstance(argument, ast.Literal)
            and isinstance(argument.value.value, str)):
        return None
    reference = argument.value.value
    body = module.body
    if _rooted_at(body, call):
        return reference
    if isinstance(body, ast.FLWORExpr):
        if not body.clauses:
            return None
        first = body.clauses[0]
        if not isinstance(first, ast.ForClause) or first.position_var:
            return None
        if not _rooted_at(first.expr, call):
            return None
        if any(isinstance(clause, ast.OrderByClause)
               for clause in body.clauses):
            return None
        return reference
    return None


def _partition(doc_ids: list[int], workers: int) -> list[list[int]]:
    """Contiguous row-order chunks — concatenation preserves order."""
    chunk, remainder = divmod(len(doc_ids), workers)
    partitions: list[list[int]] = []
    start = 0
    for position in range(workers):
        size = chunk + (1 if position < remainder else 0)
        if size == 0:
            break
        partitions.append(doc_ids[start:start + size])
        start += size
    return partitions
