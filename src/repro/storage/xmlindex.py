"""Typed, tolerant XML value indexes (paper §2.1).

An XML index is declared with ``CREATE INDEX name ON table(xml-column)
USING XMLPATTERN 'pattern' AS type`` where type is one of ``VARCHAR``,
``DOUBLE``, ``DATE``, ``TIMESTAMP``.  Exactly as the paper describes:

* an entry is created for each node matching the pattern **and**
  convertible to the index type; a failed cast silently skips the node
  ("tolerant" behaviour — the U.S./Canadian postal-code scenario);
* a VARCHAR index therefore contains *all* matching nodes, since any
  node value casts to a string — which is why varchar indexes can
  answer purely structural predicates with a full-range scan;
* list-typed values are rejected at insert time (footnote 5: "our
  index implementation prohibits the list types from occurring in the
  indexed documents");
* each entry also records the node's concrete root-to-node path so a
  scan can apply the query's *more restrictive* path as a residual
  filter (§2.2: the index on ``//lineitem/@price`` answering a
  ``//order/lineitem/@price`` predicate).

Concurrency contract: the underlying B+Trees are mutated in place (no
copy-on-write), so index maintenance runs only on the write side of the
database's reader-writer lock, and scans are safe exactly because every
query entry point holds the read side for its full duration — a
:class:`~repro.storage.snapshot.Snapshot` pins rows and catalog but
*not* index interiors, and must only be queried while its creator keeps
writers excluded (see the server's session reads).
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from typing import Iterator

from ..core.patterns import PathComponent, PathPattern, parse_xmlpattern
from ..errors import CastError, SchemaValidationError
from ..obs.metrics import METRICS
from ..xdm.atomic import (AtomicValue, T_DATE, T_DATETIME, T_DOUBLE,
                          T_STRING, cast)
from ..xdm.nodes import DocumentNode, Node
from .btree import BPlusTree
from .columnar import get_store
from .pathsummary import (PatternMatcher, get_summary,
                          indexable_nodes as _indexable_nodes)

#: SQL index type keyword -> xdm atomic type used for key casting.
INDEX_TYPE_TO_XDM = {
    "VARCHAR": T_STRING,
    "DOUBLE": T_DOUBLE,
    "DATE": T_DATE,
    "TIMESTAMP": T_DATETIME,
}


@dataclass(frozen=True)
class IndexEntry:
    """One posting: which document, which node, along which path."""

    doc_id: int
    node_id: int
    path: tuple[PathComponent, ...]


class XmlIndex:
    """A path-specific typed value index over one XML column."""

    def __init__(self, name: str, table: str, column: str,
                 pattern_text: str, index_type: str, order: int = 64):
        index_type = index_type.upper()
        if index_type not in INDEX_TYPE_TO_XDM:
            raise SchemaValidationError(
                f"unsupported XML index type {index_type!r}")
        self.name = name
        self.table = table
        self.column = column
        #: The original XMLPATTERN text — the checkpoint records it so
        #: recovery can replay the defining DDL instead of serializing
        #: B+Tree pages.
        self.pattern_text = pattern_text
        self.pattern: PathPattern = parse_xmlpattern(pattern_text)
        #: Long-lived matcher: one NFA run per distinct path shape over
        #: the whole life of the index, id-keyed hits afterwards.
        self._pattern_matcher = PatternMatcher(self.pattern)
        self.index_type = index_type
        self.xdm_type = INDEX_TYPE_TO_XDM[index_type]
        self.tree = BPlusTree(order=order)
        #: Entries skipped by tolerant casting (observability for tests).
        self.skipped_nodes = 0
        #: doc_id -> number of entries, for cost estimation.
        self._doc_entry_counts: dict[int, int] = {}

    def __repr__(self) -> str:
        return (f"<XmlIndex {self.name} ON {self.table}({self.column}) "
                f"USING XMLPATTERN '{self.pattern}' AS {self.index_type}>")

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def index_document(self, doc_id: int, document: DocumentNode) -> None:
        for node, components in self._matching_nodes(document):
            key = self._key_for(node)
            if key is None:
                self.skipped_nodes += 1
                continue
            self.tree.insert(key, IndexEntry(doc_id, node.node_id,
                                             tuple(components)))
            self._doc_entry_counts[doc_id] = \
                self._doc_entry_counts.get(doc_id, 0) + 1

    def remove_document(self, doc_id: int, document: DocumentNode) -> None:
        for node, components in self._matching_nodes(document):
            key = self._key_for(node)
            if key is None:
                continue
            if self.tree.delete(key, IndexEntry(doc_id, node.node_id,
                                                tuple(components))):
                remaining = self._doc_entry_counts.get(doc_id, 0) - 1
                if remaining > 0:
                    self._doc_entry_counts[doc_id] = remaining
                else:
                    self._doc_entry_counts.pop(doc_id, None)

    def _matching_nodes(self, document: DocumentNode):
        """(node, path) pairs of the document matching this index's
        pattern — preferably as a clustered range scan over the
        document's columnar store (the pattern is tested once per
        *distinct* path, then only the matching path partitions are
        scanned), via the path summary when only that exists, falling
        back to a full object walk otherwise."""
        store = get_store(document)
        if store is not None:
            return store.nodes_matching(self._pattern_matcher)
        summary = get_summary(document, build=True)
        if summary is not None:
            return summary.nodes_matching(self._pattern_matcher)
        return ((node, components) for node, components
                in _indexable_nodes(document)
                if self.pattern.matches_path(components))

    def distinct_doc_count(self) -> int:
        """Number of documents with at least one entry in this index."""
        return len(self._doc_entry_counts)

    def _key_for(self, node: Node):
        """Cast a node's value to the index key space; None = skip."""
        values = node.typed_value()
        if len(values) > 1:
            # List types are prohibited in indexed documents (§3.10 fn 5).
            raise SchemaValidationError(
                f"list-typed node {node!r} cannot be indexed by "
                f"{self.name}")
        if not values:
            return None
        try:
            return atomic_to_key(cast(values[0], self.xdm_type))
        except CastError:
            return None

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------

    def scan(self, low=None, high=None, low_inclusive: bool = True,
             high_inclusive: bool = True,
             path_filter: PathPattern | None = None
             ) -> Iterator[IndexEntry]:
        """Range scan; optionally post-filter entries by a (more
        restrictive) query path pattern."""
        for _key, entry in self.tree.scan(low, high, low_inclusive,
                                          high_inclusive):
            if path_filter is not None and \
                    not path_filter.matches_path(list(entry.path)):
                continue
            yield entry

    def matching_documents(self, low=None, high=None,
                           low_inclusive: bool = True,
                           high_inclusive: bool = True,
                           path_filter: PathPattern | None = None,
                           stats=None) -> set[int]:
        """Document ids with at least one entry in the range — the
        I(P, D) pre-filter of Definition 1."""
        docs: set[int] = set()
        scanned = 0
        for entry in self.scan(low, high, low_inclusive, high_inclusive,
                               path_filter):
            scanned += 1
            docs.add(entry.doc_id)
        if stats is not None:
            stats.index_entries_scanned += scanned
            stats.record_index_use(self.name)
        if METRICS.enabled:
            METRICS.inc("index.probes")
            METRICS.inc("index.entries_scanned", scanned)
        return docs

    def key_for_value(self, value: AtomicValue):
        """Cast a query-side comparison value into this index's key
        space (raises CastError if incompatible)."""
        return atomic_to_key(cast(value, self.xdm_type))

    def __len__(self) -> int:
        return len(self.tree)


def atomic_to_key(value: AtomicValue):
    """Map an atomic value onto a B+Tree key.

    Timestamps are normalized to naive UTC so that aware and naive
    values never raise on comparison inside the tree.
    """
    if value.type_name == T_DATETIME:
        stamp: _dt.datetime = value.value
        if stamp.tzinfo is not None:
            stamp = stamp.astimezone(_dt.timezone.utc).replace(tzinfo=None)
        return stamp
    return value.value
