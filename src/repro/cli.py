"""Command-line interface: ``python -m repro``.

Subcommands:

* ``demo`` — build the paper's 3-table schema with generated data and
  run the Query 1 index-vs-scan comparison;
* ``load DIR`` + ``query`` / ``sql`` / ``explain`` / ``advise`` /
  ``lint`` / ``describe`` — load every ``*.xml`` file under a
  directory into a
  single-column ``docs(doc XML)`` table (with optional indexes) and run
  statements against it;
* durability: ``--data DIR`` on any query subcommand opens (and
  recovers) a durable database directory instead of an empty in-memory
  one; ``ingest`` populates such a directory with the paper schema,
  ``checkpoint`` writes an atomic checkpoint and truncates the WAL,
  ``recover --verify`` replays and integrity-checks a directory, and
  ``q1`` … ``q30`` answer the paper's numbered queries from one;
* ``check`` — the concurrency sanitizer's static half: interprocedural
  lock-order / blocking / fork-safety / guard-tick passes over the
  package source (``--json`` for tooling, exit 1 on findings).

Examples::

    python -m repro demo
    python -m repro query --load ./feeds \\
        --index "//item/title AS VARCHAR" \\
        "db2-fn:xmlcolumn('DOCS.DOC')//title"
    python -m repro query --load ./feeds --explain-analyze \\
        --metrics --trace trace.json \\
        "db2-fn:xmlcolumn('DOCS.DOC')//item[title = 'x']"
    python -m repro ingest --data ./state
    python -m repro q1 --data ./state
    python -m repro recover --data ./state --verify
"""

from __future__ import annotations

import argparse
import contextlib
import pathlib
import sys

from . import Database
from .core.advisor import advise
from .workload import OrderProfile, populate_paper_schema
from .workload.paperqueries import load_paper_fixture, run_paper_query
from .xmlio.serializer import serialize


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="An XML database reproducing 'On the Path to "
                    "Efficient XML Queries' (VLDB 2006)")
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser("demo", help="run the Query 1 demo")
    demo.add_argument("--orders", type=int, default=300)

    for name, help_text in [
            ("query", "run an XQuery"),
            ("sql", "run an SQL/XML statement"),
            ("explain", "explain index eligibility and the plan"),
            ("advise", "run the Tips 1-12 advisor"),
            ("lint", "static-check a statement (reason-coded "
                     "errors and pitfall warnings)"),
            ("describe", "print the catalog")]:
        sub = commands.add_parser(name, help=help_text)
        _add_data_arguments(sub)
        sub.add_argument("--load", metavar="DIR", default=None,
                         help="directory of *.xml files loaded into "
                              "docs(doc XML)")
        sub.add_argument("--index", action="append", default=[],
                         metavar="'PATTERN AS TYPE'",
                         help="XML index over the docs column "
                              "(repeatable)")
        sub.add_argument("--no-indexes", action="store_true",
                         help="disable index usage at run time")
        sub.add_argument("--indent", action="store_true",
                         help="pretty-print XML results")
        if name in ("query", "sql"):
            sub.add_argument("--explain-analyze", action="store_true",
                             help="execute and print the operator tree "
                                  "with actual cardinalities and "
                                  "timings")
            sub.add_argument("--metrics", action="store_true",
                             help="print engine metric counters after "
                                  "the statement")
            sub.add_argument("--trace", metavar="FILE", default=None,
                             help="write the span trace as JSON to "
                                  "FILE ('-' for stdout)")
        if name == "lint":
            sub.add_argument("--json", action="store_true",
                             help="emit findings as a JSON array")
        if name == "query":
            sub.add_argument("--processes", type=int, default=1,
                             metavar="N",
                             help="fan the query across N worker "
                                  "PROCESSES serving log-shipped read "
                                  "replicas — escapes the GIL on "
                                  "multi-core hosts (falls back to "
                                  "serial when not partitionable)")
        if name != "describe":
            sub.add_argument("statement", help="the query text")

    ingest = commands.add_parser(
        "ingest", help="populate a durable data directory with the "
                       "paper schema (fixture docs, or --orders N "
                       "generated ones) and checkpoint it")
    _add_data_arguments(ingest, required=True)
    ingest.add_argument("--orders", type=int, default=0,
                        help="generate N orders instead of loading the "
                             "engineered fixture documents")
    ingest.add_argument("--customers", type=int, default=20)
    ingest.add_argument("--products", type=int, default=10)

    checkpoint = commands.add_parser(
        "checkpoint", help="write an atomic checkpoint of a data "
                           "directory and truncate its WAL")
    _add_data_arguments(checkpoint, required=True)

    recover = commands.add_parser(
        "recover", help="recover a data directory (checkpoint + WAL "
                        "replay) and report what was done")
    _add_data_arguments(recover, required=True)
    recover.add_argument("--verify", action="store_true",
                         help="check rebuilt path summaries against "
                              "the checkpoint (exit 1 on mismatch)")

    check = commands.add_parser(
        "check", help="run the concurrency sanitizer's static passes "
                      "(lock order, blocking-under-lock, fork safety, "
                      "guard ticks, lexical rules) over the package "
                      "source; exit 1 on findings")
    check.add_argument("--json", action="store_true",
                       help="machine-readable findings")
    check.add_argument("paths", nargs="*",
                       help="restrict to specific source files "
                            "(default: the whole package)")

    serve = commands.add_parser(
        "serve", help="serve the database over a length-prefixed JSON "
                      "protocol: sessions, prepared statements, "
                      "admission control; SIGTERM drains gracefully")
    _add_data_arguments(serve)
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="bind port; 0 picks a free one and prints "
                            "it (default: 0)")
    serve.add_argument("--max-active", type=int, default=4,
                       metavar="N",
                       help="statements executing concurrently "
                            "(engine threads; default: 4)")
    serve.add_argument("--max-queue", type=int, default=16,
                       metavar="N",
                       help="statements allowed to wait for a slot; "
                            "arrivals beyond this are shed with "
                            "SQLSTATE 53300 (default: 16)")
    serve.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="default per-statement deadline (SQLSTATE "
                            "57014 on overrun; default: none)")
    serve.add_argument("--max-rows", type=int, default=None,
                       metavar="N",
                       help="default per-statement row budget "
                            "(SQLSTATE 54000; default: none)")
    serve.add_argument("--max-bytes", type=int, default=None,
                       metavar="N",
                       help="default per-statement serialized-result "
                            "byte budget (SQLSTATE 54000; default: "
                            "none)")
    serve.add_argument("--fixture", action="store_true",
                       help="without --data: serve an in-memory "
                            "database preloaded with the paper fixture")
    serve.add_argument("--metrics", action="store_true",
                       help="enable the engine metrics registry; the "
                            "'stats' op then includes it")
    serve.add_argument("--auto-index", action="store_true",
                       help="run the self-driving index policy: a "
                            "background thread watches the observed "
                            "workload and builds beneficial XML "
                            "indexes online")
    serve.add_argument("--auto-index-interval", type=float, default=1.0,
                       metavar="SECONDS",
                       help="seconds between auto-index advise/apply "
                            "cycles (default: 1.0)")

    autopilot = commands.add_parser(
        "autopilot", help="self-driving indexing: profile a workload, "
                          "advise CREATE INDEX DDL, optionally build "
                          "it online and calibrate the cost model")
    _add_data_arguments(autopilot)
    autopilot.add_argument("--fixture", action="store_true",
                           help="without --data: use an in-memory "
                                "database preloaded with the paper "
                                "fixture (no indexes)")
    autopilot.add_argument("--observe", metavar="FILE", default=None,
                           help="execute statements from FILE (one per "
                                "line, '#' comments) so the profiler "
                                "sees them; '-' reads stdin")
    autopilot.add_argument("--paper", action="store_true",
                           help="observe the paper's 30-query workload")
    autopilot.add_argument("--advise", action="store_true",
                           help="print ranked CREATE INDEX advice for "
                                "the observed workload")
    autopilot.add_argument("--apply", action="store_true",
                           help="build the advised indexes online "
                                "(implies --advise)")
    autopilot.add_argument("--limit", type=int, default=None,
                           metavar="N",
                           help="build at most N advised indexes")
    autopilot.add_argument("--calibrate", action="store_true",
                           help="EXPLAIN ANALYZE the hottest profiled "
                                "statements and feed q-errors back "
                                "into the cost model")
    autopilot.add_argument("--json", action="store_true",
                           help="emit the full autopilot report as "
                                "JSON")

    for number in range(1, 31):
        paper = commands.add_parser(
            f"q{number}", help=f"answer paper query {number} from a "
                               f"recovered data directory")
        _add_data_arguments(paper, required=True)
    return parser


def _add_data_arguments(sub, required: bool = False) -> None:
    sub.add_argument("--data", metavar="DIR", default=None,
                     required=required,
                     help="durable database directory (WAL + "
                          "checkpoints); recovered on open")
    sub.add_argument("--fsync", choices=["always", "batch", "off"],
                     default="always",
                     help="WAL fsync policy for writes (default: "
                          "always)")
    sub.add_argument("--buffer-pool-bytes", type=int, default=None,
                     metavar="N",
                     help="cap resident document memory at N bytes; "
                          "cold documents are evicted LRU (and, with "
                          "--data, spilled under DIR/spool) and "
                          "re-materialized on demand (default: "
                          "unlimited, or $REPRO_BUFFER_POOL_BYTES)")


def load_directory(database: Database, directory: str,
                   index_specs: list[str]) -> int:
    database.create_table("docs", [("name", "VARCHAR(255)"),
                                   ("doc", "XML")])
    count = 0
    root = pathlib.Path(directory)
    for path in sorted(root.rglob("*.xml")):
        database.insert("docs", {"name": path.name,
                                 "doc": path.read_text()})
        count += 1
    for position, spec in enumerate(index_specs, start=1):
        pattern, _sep, index_type = spec.rpartition(" AS ")
        if not pattern:
            pattern, index_type = spec, "VARCHAR"
        database.create_xml_index(f"cli_idx_{position}", "docs", "doc",
                                  pattern.strip(), index_type.strip())
    return count


def run_demo(orders: int, out=sys.stdout) -> None:
    database = Database()
    populate_paper_schema(
        database, orders=orders, customers=max(5, orders // 10),
        products=20,
        profile=OrderProfile(price_low=1, price_high=200))
    query = ("for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
             "//order[lineitem/@price>190] return $i")
    fast = database.xquery(query)
    slow = database.xquery(query, use_indexes=False)
    print(f"collection: {orders} orders", file=out)
    print(f"query: {query}", file=out)
    print(f"with li_price index: {len(fast)} results, "
          f"{fast.stats.docs_scanned} documents touched", file=out)
    print(f"full collection scan: {len(slow)} results, "
          f"{slow.stats.docs_scanned} documents touched", file=out)
    print(database.explain(query), file=out)


def run_lint(database: Database, statement: str,
             as_json: bool = False, out=sys.stdout) -> int:
    """``repro lint``: print findings; exit 1 on error-severity ones."""
    import json

    from .static import lint_statement
    findings = lint_statement(statement, database=database)
    if as_json:
        print(json.dumps([finding.to_dict() for finding in findings],
                         indent=2), file=out)
    elif not findings:
        print("clean: no static errors or pitfall warnings", file=out)
    else:
        for finding in findings:
            print(str(finding), file=out)
    return 1 if any(finding.severity == "error"
                    for finding in findings) else 0


def run_ingest(arguments, out) -> int:
    from .durability import DurableDatabase
    with DurableDatabase(
            arguments.data, fsync_policy=arguments.fsync,
            buffer_pool_bytes=arguments.buffer_pool_bytes) as database:
        if arguments.orders:
            populate_paper_schema(database, orders=arguments.orders,
                                  customers=arguments.customers,
                                  products=arguments.products)
        else:
            load_paper_fixture(database)
        rows = sum(len(table.rows)
                   for table in database.tables.values())
        info = database.checkpoint()
        print(f"ingested {rows} rows into {len(database.tables)} "
              f"tables; checkpoint at LSN {info.last_lsn} "
              f"({info.bytes_written} bytes)", file=out)
    return 0


def run_checkpoint(arguments, out) -> int:
    from .durability import DurableDatabase
    with DurableDatabase(
            arguments.data, fsync_policy=arguments.fsync,
            buffer_pool_bytes=arguments.buffer_pool_bytes) as database:
        print(database.last_recovery.render(), file=out)
        info = database.checkpoint()
        print(f"checkpoint at LSN {info.last_lsn}: {info.tables} "
              f"table(s), {info.rows} row(s), {info.bytes_written} "
              f"bytes", file=out)
    return 0


def run_recover(arguments, out) -> int:
    from .durability import DurableDatabase
    with DurableDatabase(
            arguments.data, fsync_policy=arguments.fsync,
            buffer_pool_bytes=arguments.buffer_pool_bytes,
            verify=arguments.verify) as database:
        result = database.last_recovery
        print(result.render(), file=out)
        if result.verify is not None and not result.verify.ok:
            return 1
    return 0


def run_paper_query_command(number: int, arguments, out) -> int:
    from .durability import DurableDatabase
    with DurableDatabase(
            arguments.data, fsync_policy=arguments.fsync,
            buffer_pool_bytes=arguments.buffer_pool_bytes) as database:
        print(run_paper_query(database, number), file=out)
        recovery = database.last_recovery
        print(f"# recovered: checkpoint_lsn={recovery.checkpoint_lsn} "
              f"replayed={recovery.replayed}", file=out)
    return 0


def run_serve(arguments, out) -> int:
    """``repro serve``: the network front door.

    Prints ``serving on HOST:PORT`` once the socket is bound (scripts
    parse that line), then blocks until SIGTERM/SIGINT completes a
    graceful drain: stop accepting, finish in-flight statements, flush
    the WAL, print ``drained``, exit 0.
    """
    import asyncio

    from .server import ReproServer

    async def _serve(database) -> None:
        server = ReproServer(
            database, host=arguments.host, port=arguments.port,
            max_active=arguments.max_active,
            max_queue=arguments.max_queue,
            default_timeout=arguments.timeout,
            default_max_rows=arguments.max_rows,
            default_max_bytes=arguments.max_bytes)
        host, port = await server.start()
        server.install_signal_handlers()
        print(f"serving on {host}:{port}", file=out, flush=True)
        await server.serve_until_drained()
        print("drained", file=out, flush=True)

    with contextlib.ExitStack() as lifecycle:
        if arguments.metrics:
            from .obs.metrics import enabled_metrics
            lifecycle.enter_context(enabled_metrics())
        if arguments.data:
            from .durability import DurableDatabase
            database = lifecycle.enter_context(
                DurableDatabase(
                    arguments.data, fsync_policy=arguments.fsync,
                    buffer_pool_bytes=arguments.buffer_pool_bytes))
        else:
            database = Database(
                buffer_pool_bytes=arguments.buffer_pool_bytes)
            if arguments.fixture:
                load_paper_fixture(database)
        if arguments.auto_index:
            from .autopilot import AutoIndexPolicy
            lifecycle.enter_context(AutoIndexPolicy(
                database.autopilot(),
                interval=arguments.auto_index_interval))
        asyncio.run(_serve(database))
    return 0


def run_autopilot(arguments, out) -> int:
    """``repro autopilot``: observe → advise → apply → calibrate."""
    import json

    with contextlib.ExitStack() as lifecycle:
        if arguments.data:
            from .durability import DurableDatabase
            database = lifecycle.enter_context(
                DurableDatabase(
                    arguments.data, fsync_policy=arguments.fsync,
                    buffer_pool_bytes=arguments.buffer_pool_bytes))
        else:
            database = Database(
                buffer_pool_bytes=arguments.buffer_pool_bytes)
            if arguments.fixture:
                load_paper_fixture(database, with_indexes=False)
        pilot = database.autopilot()
        if arguments.paper:
            from .workload.paperqueries import PAPER_QUERIES
            for number in sorted(PAPER_QUERIES):
                run_paper_query(database, number)
        if arguments.observe:
            source = (sys.stdin.read() if arguments.observe == "-"
                      else pathlib.Path(arguments.observe).read_text())
            statements = [line.strip() for line in source.splitlines()
                          if line.strip()
                          and not line.lstrip().startswith("#")]
            pilot.observe(statements)
        advising = arguments.advise or arguments.apply or \
            not (arguments.paper or arguments.observe
                 or arguments.calibrate)
        if advising:
            advice = pilot.advise()
        if arguments.apply:
            pilot.apply(limit=arguments.limit)
        if arguments.calibrate:
            pilot.calibrate()
        if arguments.json:
            print(json.dumps(pilot.to_dict(), indent=2), file=out)
            return 0
        if advising and not pilot.last_advice and not pilot.applied:
            print("no advice: every profiled predicate is served or "
                  "below the benefit bar", file=out)
        print(pilot.report(), file=out)
    return 0


def main(argv: list[str] | None = None, out=sys.stdout) -> int:
    arguments = build_parser().parse_args(argv)
    if arguments.command == "demo":
        run_demo(arguments.orders, out=out)
        return 0
    if arguments.command == "ingest":
        return run_ingest(arguments, out)
    if arguments.command == "checkpoint":
        return run_checkpoint(arguments, out)
    if arguments.command == "recover":
        return run_recover(arguments, out)
    if arguments.command == "check":
        from .analysis.runner import main as check_main
        return check_main(
            (["--json"] if arguments.json else []) + arguments.paths,
            out=out)
    if arguments.command == "serve":
        return run_serve(arguments, out)
    if arguments.command == "autopilot":
        return run_autopilot(arguments, out)
    if arguments.command.startswith("q") and \
            arguments.command[1:].isdigit():
        return run_paper_query_command(int(arguments.command[1:]),
                                       arguments, out)

    with contextlib.ExitStack() as lifecycle:
        if arguments.data:
            from .durability import DurableDatabase
            database = lifecycle.enter_context(
                DurableDatabase(
                    arguments.data, fsync_policy=arguments.fsync,
                    buffer_pool_bytes=arguments.buffer_pool_bytes))
        else:
            database = Database(
                buffer_pool_bytes=arguments.buffer_pool_bytes)
        if arguments.load:
            count = load_directory(database, arguments.load,
                                   arguments.index)
            print(f"loaded {count} documents from {arguments.load}",
                  file=out)
        return _run_statement_command(arguments, database, out)


def _run_statement_command(arguments, database, out) -> int:
    if arguments.command == "describe":
        print(database.describe(), file=out)
        return 0
    if arguments.command == "explain":
        print(database.explain(arguments.statement), file=out)
        return 0
    if arguments.command == "advise":
        items = advise(database, arguments.statement)
        if not items:
            print("no advice: the query avoids the catalogued "
                  "pitfalls", file=out)
        for item in items:
            print(str(item), file=out)
        return 0
    if arguments.command == "lint":
        return run_lint(database, arguments.statement,
                        as_json=arguments.json, out=out)
    from .obs.metrics import METRICS, enabled_metrics
    from .obs.trace import Tracer

    use_indexes = not arguments.no_indexes
    with contextlib.ExitStack() as stack:
        if arguments.metrics:
            stack.enter_context(enabled_metrics())

        if arguments.explain_analyze:
            analyzed = database.explain_analyze(arguments.statement,
                                                use_indexes=use_indexes)
            print(analyzed.render(), file=out)
            _write_trace(analyzed.tracer, arguments.trace, out)
        elif arguments.command == "sql":
            tracer = (Tracer(arguments.statement, "sql")
                      if arguments.trace else None)
            result = database.sql(arguments.statement,
                                  use_indexes=use_indexes, tracer=tracer)
            print("\t".join(result.columns), file=out)
            for row in result.serialize_rows():
                print("\t".join("NULL" if value is None else str(value)
                                for value in row), file=out)
            print(result.stats.explain(), file=out)
            _write_trace(tracer, arguments.trace, out)
        else:
            tracer = (Tracer(arguments.statement, "xquery")
                      if arguments.trace else None)
            if getattr(arguments, "processes", 1) > 1:
                with database.process_pool(
                        processes=arguments.processes) as pool:
                    result = pool.xquery(arguments.statement,
                                         use_indexes=use_indexes,
                                         tracer=tracer,
                                         indent=arguments.indent)
            else:
                result = database.xquery(arguments.statement,
                                         use_indexes=use_indexes,
                                         tracer=tracer)
            if hasattr(result, "items"):
                for item in result.items:
                    print(serialize(item, indent=arguments.indent),
                          file=out)
            else:
                # Pool results arrive pre-serialized from the workers.
                for text in result.serialize():
                    print(text, file=out)
            print(result.stats.explain(), file=out)
            _write_trace(tracer, arguments.trace, out)

        if arguments.metrics:
            print(METRICS.render(), file=out)
    return 0


def _write_trace(tracer, destination: str | None, out) -> None:
    if tracer is None or destination is None:
        return
    payload = tracer.to_json()
    if destination == "-":
        print(payload, file=out)
    else:
        pathlib.Path(destination).write_text(payload + "\n")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
