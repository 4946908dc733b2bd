"""Read views over the catalog: the shared read API and COW snapshots.

:class:`ReadView` is the query-facing surface of a database — catalog
lookups, document enumeration, ``db2-fn:xmlcolumn``, path-summary
cardinalities.  :class:`repro.storage.catalog.Database` mixes it in and
wraps the query entry points in its reader-writer lock;
:class:`Snapshot` reuses the same methods over *pinned* state.

Snapshot semantics
------------------

Writers copy-on-write every container they change: the ``Database``
catalog dicts are replaced (never mutated) by DDL, and each
``Table.rows`` list is replaced by ingest/delete.  A ``Snapshot``
therefore pins a consistent catalog + row-set view by simply capturing
those references under a read acquisition — O(catalog size), no data
copying — and stays valid indefinitely: later writers swap in new
containers and never touch the captured ones.

What a snapshot does *not* pin is the interior of shared index
structures (B+Trees are mutated in place by writers).  Queries issued
through ``Database.xquery`` / ``Database.sql`` hold the read lock for
their whole execution, so they never observe a half-updated index;
queries issued through ``Snapshot.xquery`` / ``Snapshot.sql`` are
lock-free and intended for use while the caller (for example a
server session) holds the read side itself.
"""

from __future__ import annotations

from ..analysis import sanitizer as _sanitizer
from ..errors import CatalogError, SQLError
from ..obs.metrics import METRICS
from ..xdm.sequence import Item
from .pathsummary import PatternMatcher, get_summary
from .table import StoredDocument

__all__ = ["ReadView", "Snapshot"]


class ReadView:
    """The read-only query API shared by Database and Snapshot.

    Implementors provide ``tables``, ``xml_indexes``, ``rel_indexes``
    and ``schemas`` mappings; everything here derives from those.
    """

    def table(self, name: str):
        try:
            return self.tables[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------

    def documents(self, table: str, column: str) -> list[StoredDocument]:
        table_obj = self.table(table)
        key = column.lower()
        if not table_obj.column_type(key).is_xml:
            raise CatalogError(f"{table}.{column} is not an XML column")
        return [row.values[key] for row in table_obj.rows
                if isinstance(row.values.get(key), StoredDocument)]

    def xmlcolumn(self, reference: str, stats=None) -> list[Item]:
        """db2-fn:xmlcolumn: the column's documents as a sequence."""
        table, column = self._split_reference(reference)
        stored_docs = self.documents(table, column)
        if stats is not None:
            stats.docs_scanned += len(stored_docs)
        if METRICS.enabled:
            METRICS.inc("docs.scanned", len(stored_docs))
        return [stored.document for stored in stored_docs]

    def _split_reference(self, reference: str) -> tuple[str, str]:
        parts = reference.split(".")
        if len(parts) != 2:
            raise CatalogError(
                f"xmlcolumn reference must be 'TABLE.COLUMN', got "
                f"{reference!r}")
        return parts[0], parts[1]

    def docs_with_path(self, table: str, column: str, pattern) -> int:
        """How many of the column's documents contain ≥1 node matching
        ``pattern`` (an XMLPATTERN string or parsed PathPattern) — the
        structural fraction the cost model folds into probe estimates."""
        matcher = PatternMatcher(self._as_pattern(pattern))
        count = 0
        for stored in self.documents(table, column):
            summary = get_summary(stored.document, build=True)
            if summary is not None and summary.has_matching(matcher):
                count += 1
        return count

    def path_cardinality(self, table: str, column: str, pattern) -> int:
        """Total node count matching ``pattern`` across the column's
        documents, answered from per-document path summaries."""
        matcher = PatternMatcher(self._as_pattern(pattern))
        total = 0
        for stored in self.documents(table, column):
            summary = get_summary(stored.document, build=True)
            if summary is not None:
                total += summary.count_matching(matcher)
        return total

    @staticmethod
    def _as_pattern(pattern):
        if isinstance(pattern, str):
            from ..core.patterns import parse_xmlpattern
            return parse_xmlpattern(pattern)
        return pattern

    def xml_indexes_on(self, table: str, column: str) -> list:
        return [index for index in self.xml_indexes.values()
                if index.table == table.lower()
                and index.column == column.lower()]

    def rel_indexes_on(self, table: str, column: str) -> list:
        return [index for index in self.rel_indexes.values()
                if index.table == table.lower()
                and index.column == column.lower()]

    # ------------------------------------------------------------------
    # Query entry points (lock-free; Database overrides with locking)
    # ------------------------------------------------------------------

    def xquery(self, query: str, use_indexes: bool = True,
               cost_based: bool = False,
               prefilter_threshold: float = 0.9,
               rewrite_views: bool = False,
               tracer=None, variables: dict | None = None):
        from ..planner.plan import execute_xquery
        return execute_xquery(self, query, use_indexes=use_indexes,
                              cost_based=cost_based,
                              prefilter_threshold=prefilter_threshold,
                              rewrite_views=rewrite_views,
                              tracer=tracer, variables=variables)

    def sql(self, statement: str, use_indexes: bool = True, tracer=None):
        from ..sql.executor import execute_sql
        return execute_sql(self, statement, use_indexes=use_indexes,
                           tracer=tracer)

    def sqlquery_items(self, statement: str) -> list[Item]:
        """db2-fn:sqlquery: run SQL, concatenate its XML column values."""
        result = self.sql(statement)
        from ..sql.values import XMLValue
        items: list[Item] = []
        for row in result.rows:
            for value in row:
                if isinstance(value, XMLValue):
                    items.extend(value.items)
        return items

    def describe(self) -> str:
        """A human-readable catalog summary: tables, columns, indexes."""
        lines = ["catalog:"]
        for table in self.tables.values():
            columns = ", ".join(f"{name} {sql_type}"
                                for name, sql_type in
                                table.columns.items())
            lines.append(f"  table {table.name} ({columns}) "
                         f"[{len(table.rows)} rows]")
            for index in self.xml_indexes.values():
                if index.table == table.name:
                    lines.append(
                        f"    xml index {index.name} ON "
                        f"{index.column} USING XMLPATTERN "
                        f"'{index.pattern}' AS {index.index_type} "
                        f"[{len(index)} entries, "
                        f"{index.skipped_nodes} skipped]")
            for index in self.rel_indexes.values():
                if index.table == table.name:
                    lines.append(f"    rel index {index.name} ON "
                                 f"{index.column} [{len(index)} entries]")
        for schema in self.schemas.values():
            lines.append(f"  schema {schema.name} "
                         f"[{len(schema.declarations)} declarations]")
        return "\n".join(lines)


class _TableSnapshot:
    """A Table view with the row list pinned at snapshot time.

    ``Table.rows`` is copy-on-write (writers replace the list), so
    holding the reference is enough to freeze the row set; column
    metadata is delegated to the live table (DDL cannot alter columns
    of an existing table, so that surface is immutable).
    """

    __slots__ = ("_table", "rows")

    def __init__(self, table):
        self._table = table
        self.rows = table.rows

    def __getattr__(self, name):
        return getattr(self._table, name)

    def __len__(self) -> int:
        return len(self.rows)


_READ_ONLY_HEADS = ("SELECT", "VALUES")


class Snapshot(ReadView):
    """A consistent, immutable view of a Database at one version.

    Obtained from :meth:`repro.storage.catalog.Database.snapshot`.
    Supports the whole read API — ``xquery``, ``sql`` (SELECT/VALUES
    only), ``describe``, document enumeration — without taking the
    database lock.
    """

    def __init__(self, database):
        self.version = database.version
        self.index_order = database.index_order
        self.tables = {name: _TableSnapshot(table)
                       for name, table in database.tables.items()}
        self.xml_indexes = dict(database.xml_indexes)
        self.rel_indexes = dict(database.rel_indexes)
        self.schemas = dict(database.schemas)
        # Shared observation channel, not versioned state: queries run
        # against a pinned snapshot (e.g. server sessions) must still
        # feed the live database's workload profiler or the autopilot
        # would be blind to exactly the workload it should serve.
        self.workload_profiler = database.workload_profiler
        if _sanitizer.ACTIVE is not None:
            # Record (id, len) of every pinned row list: an in-place
            # mutation — same list object, different length — is the
            # COW violation snapshots exist to rule out.
            _sanitizer.ACTIVE.fingerprint_snapshot(self)

    def xquery(self, query: str, use_indexes: bool = True,
               cost_based: bool = False,
               prefilter_threshold: float = 0.9,
               rewrite_views: bool = False,
               tracer=None, variables: dict | None = None):
        if _sanitizer.ACTIVE is not None:
            _sanitizer.ACTIVE.verify_snapshot(self)
        return super().xquery(
            query, use_indexes=use_indexes, cost_based=cost_based,
            prefilter_threshold=prefilter_threshold,
            rewrite_views=rewrite_views, tracer=tracer,
            variables=variables)

    def sql(self, statement: str, use_indexes: bool = True, tracer=None):
        head = statement.lstrip().upper()
        if not head.startswith(_READ_ONLY_HEADS):
            raise SQLError(
                "snapshots are read-only: only SELECT/VALUES may run "
                "against a Snapshot", "25006")
        if _sanitizer.ACTIVE is not None:
            _sanitizer.ACTIVE.verify_snapshot(self)
        return super().sql(statement, use_indexes=use_indexes,
                           tracer=tracer)

    def __repr__(self) -> str:
        return (f"<Snapshot version={self.version} "
                f"tables={len(self.tables)}>")
