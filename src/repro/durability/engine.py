"""``DurableDatabase``: the in-memory engine plus WAL + checkpoints.

Same public API as :class:`repro.storage.catalog.Database` — queries,
snapshots and the process pool are inherited untouched and keep
their shared-read-lock / copy-on-write semantics.  Only the eight
writer entry points are overridden, each with the same shape::

    with self._rwlock.write():          # reentrant: nests the base op
        result = super().op(...)        # apply in memory (may raise)
        self._log({...})                # append the logical record
        return result

Holding the one exclusive lock across apply **and** log is what makes
WAL order equal apply order (concurrent writers cannot interleave the
two halves), and logging *after* a successful apply means failed
operations — validation errors, duplicate DDL — never pollute the log:
this is redo logging of committed operations only.

``delete_rows`` has the one non-obvious record shape: an arbitrary
Python predicate cannot be replayed, so the record stores the victim
**row positions** within the table's row list.  Replay reconstructs
rows in their original order (inserts are replayed in LSN order), so
positions are deterministic.
"""

from __future__ import annotations

import pathlib

from ..analysis import sanitizer as _sanitizer
from ..schema.schema import Schema
from ..storage.catalog import Database
from ..storage.table import Row, StoredDocument, Table
from ..xmlio.serializer import serialize
from . import fsio
from .checkpoint import CheckpointInfo, write_checkpoint
from .codec import encode_schema, encode_value
from .faults import NO_FAULTS
from .recovery import RecoveryResult, recover
from .wal import WAL_NAME, WriteAheadLog

__all__ = ["DurableDatabase"]


class DurableDatabase(Database):
    """A Database whose committed state survives restarts.

    Opening a directory recovers whatever state it holds (checkpoint +
    WAL tail); an empty directory starts an empty database.  See the
    README "Durability & recovery" section for the on-disk format and
    the fsync policy trade-offs.
    """

    def __init__(self, directory, *, fsync_policy: str = "always",
                 group_size: int = 256, index_order: int = 64,
                 buffer_pool_bytes: int | None = None,
                 faults=NO_FAULTS, verify: bool = False, tracer=None):
        # With a byte budget the pool spills evicted documents' columns
        # under the data directory ("spool/"); the files are pure cache
        # (checkpoint + WAL stay authoritative), so recovery ignores
        # them.  The pool deletes a file when its document is discarded
        # and close() clears the rest; open purges whatever a crash
        # left behind.
        super().__init__(index_order=index_order,
                         buffer_pool_bytes=buffer_pool_bytes,
                         buffer_pool_spill_dir=pathlib.Path(directory)
                         / "spool")
        self.directory = pathlib.Path(directory)
        fsio.ensure_dir(self.directory)
        # Purge spill files left by a previous process life (crash, or
        # a close that never got to run): doc_ids restart at 1 in every
        # process, so a stale doc-<id>.cols could alias a document this
        # incarnation is about to spill.  They are pure cache; deleting
        # them costs only a re-materialization.
        self._purge_spool()
        self._faults = faults
        #: Schemas used for per-document validation without being
        #: registered in the catalog — checkpoints must persist them so
        #: recovery can re-validate (re-annotate) those documents.
        self._doc_schemas: dict[str, Schema] = {}
        self._replaying = True
        try:
            self.last_recovery: RecoveryResult = recover(
                self, self.directory, verify=verify, tracer=tracer)
        finally:
            self._replaying = False
        self._wal = WriteAheadLog(
            self.directory / WAL_NAME, fsync_policy=fsync_policy,
            group_size=group_size, faults=faults,
            start_lsn=self.last_recovery.last_lsn)
        # Cost-model calibration survives restarts: EXPLAIN ANALYZE
        # q-error samples (and the damped correction factor they drive)
        # are loaded from the data directory on open and persisted on
        # close — see repro.autopilot.calibrate.
        from ..autopilot.calibrate import CostCalibration
        self.cost_calibration = CostCalibration.load(
            self.directory / CostCalibration.FILENAME)

    # ------------------------------------------------------------------
    # Logged writers (apply under the write lock, then log)
    # ------------------------------------------------------------------

    def create_table(self, name: str,
                     columns: list[tuple[str, str]]) -> Table:
        with self._rwlock.write():
            table = super().create_table(name, columns)
            self._log({
                "op": "create_table", "name": table.name,
                "columns": [[column, str(sql_type)] for column, sql_type
                            in table.columns.items()]})
            return table

    def drop_table(self, name: str) -> None:
        with self._rwlock.write():
            key = self.table(name).name
            super().drop_table(name)
            self._log({"op": "drop_table", "name": key})

    def register_schema(self, schema: Schema) -> None:
        with self._rwlock.write():
            super().register_schema(schema)
            self._log({"op": "register_schema",
                       "schema": encode_schema(schema)})

    def create_xml_index(self, name: str, table: str, column: str,
                         pattern: str, index_type: str):
        with self._rwlock.write():
            index = super().create_xml_index(name, table, column,
                                             pattern, index_type)
            self._log({
                "op": "create_xml_index", "name": index.name,
                "table": index.table, "column": index.column,
                "pattern": index.pattern_text,
                "type": index.index_type})
            return index

    def _publish_xml_index(self, index) -> None:
        """Online-build commit point: install + WAL-log atomically.

        The record shape is identical to :meth:`create_xml_index`'s, so
        recovery replays an online build as an ordinary offline one —
        a crash before this point leaves no WAL trace (no index after
        recovery), a crash after it replays a complete build."""
        with self._rwlock.write():
            super()._publish_xml_index(index)
            self._log({
                "op": "create_xml_index", "name": index.name,
                "table": index.table, "column": index.column,
                "pattern": index.pattern_text,
                "type": index.index_type})

    def create_relational_index(self, name: str, table: str,
                                column: str):
        with self._rwlock.write():
            index = super().create_relational_index(name, table, column)
            self._log({
                "op": "create_relational_index", "name": index.name,
                "table": index.table, "column": index.column})
            return index

    def drop_index(self, name: str) -> None:
        with self._rwlock.write():
            super().drop_index(name)
            self._log({"op": "drop_index", "name": name.lower()})

    def insert(self, table: str, values: dict[str, object],
               schema=None) -> Row:
        with self._rwlock.write():
            row = super().insert(table, values, schema)
            if self._replaying:
                self._note_row_schemas(row, schema)
                return row
            record_values: dict[str, object] = {}
            record_schemas: dict[str, dict] = {}
            for key, value in row.values.items():
                if isinstance(value, StoredDocument):
                    record_values[key] = {
                        "$xml": serialize(value.document)}
                    if value.schema_name is not None:
                        record_schemas[key] = self._note_schema(
                            self._schema_for(schema, key))
                else:
                    record_values[key] = encode_value(value)
            record = {"op": "insert", "table": self.table(table).name,
                      "values": record_values}
            if record_schemas:
                record["schemas"] = record_schemas
            self._log(record)
            return row

    def delete_rows(self, table: str, predicate=None) -> int:
        with self._rwlock.write():
            table_obj = self.table(table)
            positions = [position for position, row
                         in enumerate(table_obj.rows)
                         if predicate is None or predicate(row.values)]
            victims = [table_obj.rows[position]
                       for position in positions]
            count = self._remove_rows(table_obj, victims)
            if count:
                self._log({"op": "delete_rows",
                           "table": table_obj.name,
                           "positions": positions})
            return count

    # ``_delete_positions`` (the replay arm of ``delete_rows``) lives on
    # the base Database so read replicas can replay shipped records too.

    # ------------------------------------------------------------------
    # Durability operations
    # ------------------------------------------------------------------

    @property
    def wal(self) -> WriteAheadLog:
        """The live write-ahead log — the log-shipping subscription
        point (:meth:`WriteAheadLog.subscribe`) and LSN watermark
        source (:attr:`WriteAheadLog.last_lsn`) for replication."""
        return self._wal

    def checkpoint(self, tracer=None) -> CheckpointInfo:
        """Write an atomic checkpoint and truncate the WAL.

        Runs as one exclusive-writer section: the serialized state, the
        recorded LSN, and the log truncation all describe the same
        version."""
        with self._rwlock.write():
            self._wal.sync()
            info = write_checkpoint(self, self.directory,
                                    self._wal.last_lsn,
                                    faults=self._faults, tracer=tracer)
            self._faults.crash_point("checkpoint.before_wal_reset")
            self._wal.reset(info.last_lsn)
            self._faults.crash_point("checkpoint.after_wal_reset")
            return info

    def sync(self) -> None:
        """Make every logged record durable regardless of policy."""
        with self._rwlock.write():
            self._wal.sync()

    def close(self) -> None:
        with self._rwlock.write():
            self._wal.close()
        self.buffer_pool.close()
        if self.cost_calibration is not None:
            self.cost_calibration.save()

    def _purge_spool(self) -> None:
        spool = self.directory / "spool"
        if not spool.is_dir():
            return
        for path in spool.glob("doc-*.cols"):
            try:
                fsio.remove(path)
            except FileNotFoundError:
                pass

    def __enter__(self) -> "DurableDatabase":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    # sa: ok(SA403: WAL append fsyncs inside the writer section BY
    # DESIGN — the write lock is what serializes the log with the
    # in-memory mutation it describes; see the class docstring)
    def _log(self, record: dict) -> None:
        if self._replaying:
            return
        lsn = self._wal.append(record)
        if _sanitizer.ACTIVE is not None:
            # Append order == apply order only while the exclusive
            # lock spans both; the sanitizer checks exactly that.
            _sanitizer.ACTIVE.note_wal_append(self, lsn)

    def _note_schema(self, schema: Schema) -> dict:
        """The WAL reference for a validation schema.

        Registered schemas are referenced by name; a schema passed
        inline is embedded in the record and tracked so checkpoints
        persist its definition."""
        if self.schemas.get(schema.name) is schema:
            return {"$ref": schema.name}
        self._doc_schemas[schema.name] = schema
        return encode_schema(schema)

    def _note_row_schemas(self, row: Row, schema) -> None:
        """During replay, still track inline validation schemas."""
        for key, value in row.values.items():
            if (isinstance(value, StoredDocument)
                    and value.schema_name is not None):
                resolved = self._schema_for(schema, key)
                if (resolved is not None
                        and self.schemas.get(resolved.name)
                        is not resolved):
                    self._doc_schemas[resolved.name] = resolved
