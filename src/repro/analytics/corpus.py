"""The corpus index: a queryable columnar view of a result store.

A warm :class:`~repro.grid.store.ResultStore` holds one file per run —
perfect for byte-identical replay, useless for asking "mean preemptions by
kernel where utilization > 0.5".  This module builds a stdlib-``sqlite3``
index over the store: **one row per verified entry**, one column per spec
knob (the canonical spec JSON flattened by
:func:`repro.workload.knobs.flatten_knobs`) and per metric (the metrics
document flattened the same way), keyed by the entry's spec hash.

Next to those rows the index holds each run's **report answers**, so the
reports (:mod:`repro.analytics.reports`) are SELECTs over index rows and
never open a stored stream or parse a task document:

* ``summaries`` — one row per run: the audit's periodic-task count and
  requested utilization Σ Cᵢ/Tᵢ; and, when its stream is a well-formed
  ``sched`` stream, the deadline report's job count, misses and response
  p50/p99, and the latency report's exec-slice count, total, min, max and
  p50/p90/p99 (those columns are NULL for a stream that is not);
* ``buckets`` — the exec-slice :class:`~repro.obs.sinks.StreamingHistogram`
  tallies of each summarised run, one row per bucket, which only the
  latency report's corpus-wide aggregate reads (one SQL ``GROUP BY``).

:func:`summarise_stream` is the one place that reads a stored ``sched``
stream for analytics, and :func:`periodic_tasks` the one reader of a run's
task documents, which it takes from the decoded spec; :func:`build_index`
calls both once per entry.  It verifies each entry through the store's
one entry check (:meth:`~repro.grid.store.ResultStore.check_entry`) on
the bytes the walk read from each entry file, and decodes the verified
stream once through :func:`repro.obs.replay.decode_stored_jsonl`.  A summary is
O(tasks · jobs + buckets), not O(events).

The index's content tables (``runs``, ``summaries``, ``buckets``, ``meta``)
are a *pure function of the store*:

* rows come only from entries that the store's check would serve, in
  ascending key order,
* column order is sorted,
* nothing host- or time-dependent is stored in them — in particular the
  manifest's ``created_utc`` wall clock never enters them, so the corpora
  of a serial batch and a sharded merge of the same family index
  identically,
* booleans are stored as SQLite integers (0/1); structured knobs (task
  lists, priorities) are canonical-JSON strings; summary floats are SQLite
  REALs, which round-trip exactly.

Rebuilding twice therefore yields byte-identical query and report output,
and :func:`corpus_fingerprint` — a digest over the store's code fingerprint
and every entry's recorded section digests — lets :func:`index_status`
detect staleness without re-reading sections.  Sections are verified when
the index is built; bit rot after the build is ``repro cache verify``'s to
find.  The index file lives *inside* the store root as ``.corpus.sqlite``:
dot-prefixed names are invisible to the store's own entry walk, and the
index travels with the corpus it describes.

Freshness costs O(changed entries).  Besides the content tables, the build
records a host-local ``entry_stat`` table: per entry, the ``os.fstat`` of
the entry file handle it read (inode, size, mtime and ctime in ns) and the
two digests it hashed.  The freshness check walks the entries once and
reads only the entry files it cannot trust; it trusts an entry whose file
stat equals its row and whose recorded ctime is older than the index
file's mtime (git's racy-entry rule: an entry rewritten within the
build's timestamp tick is read again).  The fingerprint it computes
is exactly the full walk's, which an empty snapshot is.  Writers are asked
for nothing.  No query or report reads ``entry_stat``; a copied store's
stats all differ, so its first check is a full walk.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
from typing import (
    Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

from repro.grid.store import GridError, ResultStore, entry_manifest, read_entry
from repro.obs.bus import canonical_json
from repro.obs.replay import decode_stored_jsonl
from repro.obs.sinks import StreamingHistogram
from repro.workload.knobs import flatten_knobs

#: Schema identifier of the corpus index; bump on incompatible changes.
CORPUS_SCHEMA = "repro-analytics-corpus/3"

#: Index filename inside the store root (dot-prefixed: not a store entry).
INDEX_FILENAME = ".corpus.sqlite"

class AnalyticsError(GridError):
    """An analytics-layer failure worth a one-line CLI error."""


def default_index_path(store: ResultStore) -> str:
    """Where the corpus index of *store* lives."""
    return os.path.join(store.root, INDEX_FILENAME)


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------
#: One ``entry_stat`` row past its key: the entry file's ``(st_ino, st_size,
#: st_mtime_ns, st_ctime_ns)`` followed by the metrics and events digests
#: the corpus fingerprint hashed for it (both ``None`` when the entry does
#: not count: unparseable, another key or other code).
StatRow = Tuple[int, int, int, int, Optional[str], Optional[str]]

#: The snapshot of an index that vouches for nothing: a full walk.
NO_SNAPSHOT: Mapping[str, StatRow] = {}


def _entry_stat(found: os.stat_result) -> Tuple[int, int, int, int]:
    # st_ino is unsigned 64-bit on some file systems; SQLite integers are
    # signed, so fold it into that range.
    ino = found.st_ino
    return (ino - (1 << 64) if ino >= 1 << 63 else ino, found.st_size,
            found.st_mtime_ns, found.st_ctime_ns)


def _walk_manifests(
    store: ResultStore, hasher: Any,
    snapshot: Mapping[str, StatRow] = NO_SNAPSHOT,
) -> Iterator[Tuple[str, str, Optional[Dict[str, Any]], Optional[bytes],
                    StatRow]]:
    """``(key, path, manifest, blob, row)`` of every entry file.

    The one manifest walk.  An entry counts when its manifest parses to an
    object naming its own key and the running code fingerprint.  *hasher*
    (a ``hashlib.sha256()``) takes the code fingerprint first, then each
    counting entry's key and digests before it is yielded, so draining the
    walk leaves it at the corpus fingerprint — verified sections or not.

    An entry whose file ``os.stat`` equals its *snapshot* row is trusted:
    its recorded digests are hashed and its file is not read (``manifest``
    and ``blob`` are ``None``).  Every other entry file is opened and read
    once (:func:`~repro.grid.store.read_entry`); ``blob`` holds its bytes
    and ``row`` the ``os.fstat`` of that handle.  ``manifest`` is the
    parsed manifest of a read entry that counts, else ``None``.  An entry
    with no file to read (a directory-layout entry) is skipped.
    """
    hasher.update(store.fingerprint.encode("utf-8"))
    for key, path in store.entries():
        known = snapshot.get(key)
        manifest: Optional[Dict[str, Any]] = None
        blob: Optional[bytes] = None
        try:
            if known is not None and _entry_stat(os.stat(path)) == known[:4]:
                row = known
            else:
                found, blob = read_entry(path)
                document = entry_manifest(blob)
                if (document is not None
                        and document.get("spec_hash") == key
                        and document.get("fingerprint") == store.fingerprint):
                    manifest = document
                    row = _entry_stat(found) + (
                        f"{document.get('metrics_sha256', '')}",
                        f"{document.get('events_sha256', '')}")
                else:
                    row = _entry_stat(found) + (None, None)
        except OSError:
            continue
        if row[4] is not None:
            hasher.update(f"{key}:{row[4]}:{row[5]}".encode("utf-8"))
            hasher.update(b"\0")
        yield key, path, manifest, blob, row


def corpus_fingerprint(
    store: ResultStore, snapshot: Mapping[str, StatRow] = NO_SNAPSHOT,
) -> str:
    """Digest of the store's indexable content, cheap to recompute.

    Hashes the code fingerprint plus every current-version entry's key and
    recorded section digests (no section is re-hashed),
    in sorted key order.  Any entry added, removed, replaced or produced by
    other code changes the fingerprint, which is how :func:`index_status`
    detects a stale index.

    *snapshot* (the index's trusted ``entry_stat`` rows) spares the
    reads of the entry files whose stat it matches; the value is the same
    as the full walk's, which an empty snapshot is.
    """
    hasher = hashlib.sha256()
    for _ in _walk_manifests(store, hasher, snapshot):
        pass
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# Stream summaries
# ----------------------------------------------------------------------
def periodic_tasks(spec: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """The generated periodic tasks of a decoded spec document (``[]``
    when none).

    A task counts when its ``law`` is ``periodic`` and it declares numeric
    ``period_ms`` and ``execution_ms``; runs without a generated task set
    (``extra.tasks``) have none.
    """
    extra = spec.get("extra")
    tasks = extra.get("tasks") if isinstance(extra, dict) else None
    if not isinstance(tasks, list):
        return []
    return [
        dict(task) for task in tasks
        if task.get("law") == "periodic"
        and isinstance(task.get("period_ms"), (int, float))
        and isinstance(task.get("execution_ms"), (int, float))
    ]


def _job_completions_ns(
    slices: Sequence[Tuple[int, int]], execution_ns: float, jobs: int,
) -> List[Optional[float]]:
    """Completion instants of jobs 0..jobs-1, interpolated inside slices.

    Job *k* completes the moment the thread's cumulative execution crosses
    ``(k + 1) * execution_ns``; a job whose budget is never reached within
    the stored horizon completes ``None``.
    """
    completions: List[Optional[float]] = []
    cumulative = 0.0
    slice_index = 0
    for job in range(jobs):
        needed = (job + 1) * execution_ns
        while slice_index < len(slices):
            start, duration = slices[slice_index]
            if cumulative + duration >= needed - 1e-9:
                within = needed - cumulative
                completions.append(start + within)
                break
            cumulative += duration
            slice_index += 1
        else:
            completions.append(None)
            continue
    return completions


def summarise_stream(
    periodic: Sequence[Mapping[str, Any]], events_blob: bytes,
) -> Tuple[StreamingHistogram, int, int, StreamingHistogram]:
    """The stream summary of one run: ``(slices, jobs, misses, response)``.

    *periodic* is the run's :func:`periodic_tasks` and *events_blob* its
    verified stored stream, decoded here once.  Every ``sched/exec`` slice
    duration feeds the *slices* histogram; the slices of each periodic
    task's thread serve its jobs in order.  The deadline model is a
    *heuristic for generated periodic tasks*: job *k* of task (C, T) is
    released at k·T and must accumulate C of execution by (k+1)·T.  A job
    misses when its budget is never reached within the stored horizon or
    is reached after its deadline; *response* tallies the release-to-
    completion time of every completed job.  Jittered, sporadic and bursty
    tasks have no static deadline, so only ``law == "periodic"`` tasks
    have jobs.  Raises ``ValueError``/``KeyError``/``TypeError`` on a
    stream that is not a well-formed ``sched`` stream.
    """
    task_slices: Dict[str, List[Tuple[int, int]]] = {
        task["name"]: [] for task in periodic
    }
    slices = StreamingHistogram()
    for document in decode_stored_jsonl(events_blob):
        if (document["kind"] == "exec"
                and document.get("topic", "sched") == "sched"):
            duration = round(document["dur_ms"] * 1_000_000)
            slices.add(duration)
            thread_slices = task_slices.get(document["thread"])
            if thread_slices is not None:
                thread_slices.append(
                    (round(document["t_ms"] * 1_000_000), duration))
    jobs = misses = 0
    response = StreamingHistogram()
    for task in periodic:
        period_ns = task["period_ms"] * 1e6
        completions = _job_completions_ns(
            task_slices[task["name"]], task["execution_ms"] * 1e6,
            int(task.get("jobs", 1)),
        )
        jobs += len(completions)
        for job, completion in enumerate(completions):
            release = job * period_ns
            if completion is None or completion > release + period_ns + 1e-9:
                misses += 1
            if completion is not None and completion >= release:
                response.add(completion - release)
    return slices, jobs, misses, response


def _requested_utilization(periodic: Sequence[Mapping[str, Any]]) -> Any:
    """Σ Cᵢ/Tᵢ over *periodic*, summed in task order (the int ``0`` when
    there are none); ``None`` when a period is zero."""
    try:
        return sum(task["execution_ms"] / task["period_ms"]
                   for task in periodic)
    except ZeroDivisionError:
        return None


# ----------------------------------------------------------------------
# Building
# ----------------------------------------------------------------------
def _quote(identifier: str) -> str:
    """Quote a column identifier for SQLite (names contain dots)."""
    return '"' + identifier.replace('"', '""') + '"'


def build_index(
    store: ResultStore, path: Optional[str] = None,
) -> Dict[str, Any]:
    """(Re)build the corpus index of *store*; returns build statistics.

    The index is written to ``<path>.tmp`` and atomically renamed into
    place, so a concurrent reader never sees a half-built index.

    The store is walked exactly once: each entry file is opened and read
    once, and its manifest decoded once (feeding the corpus fingerprint,
    the entry's ``entry_stat`` row and the store's entry check), and the
    check verifies the bytes the walk read.  Rows come only from entries
    that check passes, in ascending key order, and are built from what it
    verified — its decoded metrics member and its spec text, decoded once,
    into the entry's row, and its ``summaries`` answers from the
    :func:`periodic_tasks` of that spec and the :func:`summarise_stream`
    summary of the event stream.  A verified stream that is not a
    well-formed ``sched`` stream keeps its row and its audit answers, but
    its stream answers are NULL; the deadline and latency reports name it.
    """
    path = path or default_index_path(store)

    hasher = hashlib.sha256()
    rows: List[Dict[str, Any]] = []
    summaries: List[Tuple[Any, ...]] = []
    buckets: List[Tuple[str, int, int]] = []
    stat_rows: List[Tuple[Any, ...]] = []
    columns: List[str] = ["key"]
    seen = {"key"}
    for key, entry_path, manifest, blob, stat_row in _walk_manifests(
            store, hasher):
        stat_rows.append((key,) + stat_row)
        if manifest is None:
            continue
        _, problems, verified = store.check_entry(key, entry_path, blob,
                                                  manifest)
        if problems:
            continue
        _, events_blob, metrics, spec_text = verified
        spec = json.loads(spec_text)
        row: Dict[str, Any] = {"key": key}
        for knob, value in flatten_knobs(spec).items():
            row[f"spec.{knob}"] = value
        for metric, value in flatten_knobs(metrics).items():
            row[f"metrics.{metric}"] = value
        for column in row:
            if column not in seen:
                seen.add(column)
                columns.append(column)
        rows.append(row)
        periodic = periodic_tasks(spec)
        audit = (key, len(periodic), _requested_utilization(periodic))
        try:
            slices, jobs, misses, response = summarise_stream(
                periodic, events_blob)
        except (ValueError, KeyError, TypeError):
            summaries.append(audit + (None,) * 11)
            continue
        latency = slices.snapshot()
        deadlines = response.snapshot()
        summaries.append(audit + (
            jobs, misses, deadlines["p50"], deadlines["p99"],
            slices.count, slices.total, slices.min, slices.max,
            latency["p50"], latency["p90"], latency["p99"],
        ))
        buckets.extend((key,) + bucket for bucket in slices.buckets())
    fingerprint = hasher.hexdigest()
    columns = ["key"] + sorted(column for column in columns if column != "key")

    staging = path + ".tmp"
    if os.path.exists(staging):
        os.remove(staging)
    connection = sqlite3.connect(staging)
    try:
        # The staging file only becomes the index via the os.replace below,
        # so crash durability buys nothing here — a torn build is just a
        # stray .tmp the next build removes.  Skipping the rollback journal
        # and fsyncs roughly halves the rebuild cost.
        connection.execute("PRAGMA journal_mode=OFF")
        connection.execute("PRAGMA synchronous=OFF")
        connection.execute(
            "CREATE TABLE runs (" + ", ".join(
                _quote(column) + (" PRIMARY KEY" if column == "key" else "")
                for column in columns
            ) + ")"
        )
        connection.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)")
        # requested_utilization has no declared type, so it reads back
        # exactly as summed: the int 0 of a run without periodic tasks.
        connection.execute(
            "CREATE TABLE summaries (key TEXT PRIMARY KEY, "
            "periodic_tasks INTEGER, requested_utilization, "
            "jobs INTEGER, misses INTEGER, response_p50_ns REAL, "
            "response_p99_ns REAL, slices INTEGER, slice_total_ns REAL, "
            "slice_min_ns REAL, slice_max_ns REAL, slice_p50_ns REAL, "
            "slice_p90_ns REAL, slice_p99_ns REAL)"
        )
        connection.execute(
            "CREATE TABLE buckets (key TEXT, bucket INTEGER, tally INTEGER, "
            "PRIMARY KEY (key, bucket)) WITHOUT ROWID"
        )
        connection.execute(
            "CREATE TABLE entry_stat (key TEXT PRIMARY KEY, ino INTEGER, "
            "size INTEGER, mtime_ns INTEGER, ctime_ns INTEGER, "
            "metrics_sha256 TEXT, events_sha256 TEXT)"
        )
        placeholder = ", ".join("?" for _ in columns)
        insert = (
            "INSERT INTO runs (" + ", ".join(_quote(c) for c in columns)
            + f") VALUES ({placeholder})"
        )
        connection.executemany(
            insert,
            ([_to_sqlite(row.get(column)) for column in columns]
             for row in rows),
        )
        connection.executemany(
            "INSERT INTO summaries VALUES "
            "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)", summaries,
        )
        connection.executemany("INSERT INTO buckets VALUES (?, ?, ?)", buckets)
        connection.executemany(
            "INSERT INTO entry_stat VALUES (?, ?, ?, ?, ?, ?, ?)", stat_rows,
        )
        connection.executemany(
            "INSERT INTO meta (key, value) VALUES (?, ?)",
            [
                ("schema", CORPUS_SCHEMA),
                ("store_fingerprint", store.fingerprint),
                ("corpus_fingerprint", fingerprint),
                ("runs", str(len(rows))),
                ("columns", canonical_json({"columns": columns})),
            ],
        )
        connection.commit()
    finally:
        connection.close()
    os.replace(staging, path)
    return {
        "path": path,
        "runs": len(rows),
        "columns": len(columns),
        "corpus_fingerprint": fingerprint,
    }


def _to_sqlite(value: Any) -> Any:
    """Map a flattened knob/metric value to its SQLite cell value."""
    if isinstance(value, bool):
        return int(value)
    return value


# ----------------------------------------------------------------------
# Opening & status
# ----------------------------------------------------------------------
def _snapshot(
    connection: sqlite3.Connection, meta: Mapping[str, str],
    store: ResultStore, built_ns: int,
) -> Dict[str, StatRow]:
    """The ``entry_stat`` rows the freshness check may trust.

    None unless the index was built by the running code (whether an entry
    counts depends on the code fingerprint), and only rows whose entry
    file's ctime is older than the index file's mtime *built_ns*: an entry
    rewritten within the build's timestamp tick could keep its stat, so
    it is read again (git's racy-entry rule).  An index without the table
    trusts nothing.
    """
    if meta.get("store_fingerprint") != store.fingerprint:
        return {}
    try:
        rows = connection.execute(
            "SELECT key, ino, size, mtime_ns, ctime_ns, metrics_sha256, "
            "events_sha256 FROM entry_stat WHERE ctime_ns < ?", (built_ns,),
        ).fetchall()
    except sqlite3.OperationalError:
        return {}
    return {row[0]: row[1:] for row in rows}


def _inspect_index(
    store: ResultStore, path: str,
) -> Tuple[Dict[str, Any], Optional[sqlite3.Connection], List[str]]:
    """:func:`index_status`, plus the open connection and the columns of a
    fresh index — the one connection :func:`open_index` queries on.

    An index that does not read as one (not a database, no ``meta``) is
    present but unreadable, hence stale: it is a cache to rebuild.
    """
    status: Dict[str, Any] = {
        "path": path, "present": False, "fresh": False, "runs": 0,
        "columns": 0,
    }
    try:
        built_ns = os.stat(path).st_mtime_ns
    except FileNotFoundError:
        status["corpus_fingerprint"] = corpus_fingerprint(store)
        return status, None, []
    status.update(present=True, schema="", recorded_fingerprint="",
                  unreadable=None)
    connection: Optional[sqlite3.Connection] = None
    try:
        connection = sqlite3.connect(path)
        meta = dict(connection.execute("SELECT key, value FROM meta"))
        columns = json.loads(meta.get("columns", '{"columns": []}'))["columns"]
        status.update(schema=meta.get("schema", ""),
                      runs=int(meta.get("runs", "0")), columns=len(columns),
                      recorded_fingerprint=meta.get("corpus_fingerprint", ""))
        snapshot = _snapshot(connection, meta, store, built_ns)
    except (sqlite3.Error, ValueError, KeyError, TypeError) as error:
        if connection is not None:
            connection.close()
        status.update(unreadable=str(error) or type(error).__name__)
        status["corpus_fingerprint"] = corpus_fingerprint(store)
        return status, None, []
    current = corpus_fingerprint(store, snapshot)
    status["corpus_fingerprint"] = current
    status["fresh"] = (status["recorded_fingerprint"] == current
                       and status["schema"] == CORPUS_SCHEMA)
    if not status["fresh"]:
        connection.close()
        return status, None, []
    return status, connection, columns


def index_status(
    store: ResultStore, path: Optional[str] = None,
) -> Dict[str, Any]:
    """Health of the corpus index: presence, size, freshness vs. the store.

    ``unreadable`` names why a present index file does not read as an
    index (``None`` when it does); such an index is never fresh.
    """
    status, connection, _ = _inspect_index(
        store, path or default_index_path(store))
    if connection is not None:
        connection.close()
    return status


class CorpusIndex:
    """An open, queryable corpus index."""

    def __init__(self, path: str, connection: sqlite3.Connection,
                 columns: List[str], rebuilt: bool):
        self.path = path
        self.connection = connection
        self.columns = columns
        #: Whether :func:`open_index` rebuilt the index to open it.
        self.rebuilt = rebuilt

    def close(self) -> None:
        self.connection.close()

    def __enter__(self) -> "CorpusIndex":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- column resolution -------------------------------------------------
    def resolve_column(self, name: str) -> str:
        """Resolve a user-facing column name: exact, then ``spec.``/``metrics.``."""
        for candidate in (name, f"spec.{name}", f"metrics.{name}"):
            if candidate in self.columns:
                return candidate
        near = [c for c in self.columns if name in c][:8]
        hint = f" (similar: {', '.join(near)})" if near else ""
        raise AnalyticsError(f"no corpus column {name!r}{hint}")

    # -- querying ----------------------------------------------------------
    def query(
        self,
        select: Optional[Sequence[str]] = None,
        where: Sequence[str] = (),
        group_by: Sequence[str] = (),
        aggregate: Sequence[str] = (),
        limit: Optional[int] = None,
    ) -> Tuple[List[str], List[Tuple[Any, ...]]]:
        """Run one query; returns ``(headers, rows)`` deterministically.

        *where* entries are ``column OP value`` filters (see
        :func:`parse_filter`); *aggregate* entries are ``count`` or
        ``fn:column`` with ``fn`` in sum/mean/min/max.  Row mode orders by
        ``key``; grouped mode orders by the group columns — either way the
        output bytes depend only on the corpus content.
        """
        where_sql, parameters = self._where(where)
        if group_by or aggregate:
            groups = [self.resolve_column(g) for g in group_by]
            headers = list(groups)
            selects = [_quote(g) for g in groups]
            for spec_text in (aggregate or ["count"]):
                alias, sql = self._aggregate_sql(spec_text)
                headers.append(alias)
                selects.append(sql)
            sql = f"SELECT {', '.join(selects)} FROM runs{where_sql}"
            if groups:
                sql += " GROUP BY " + ", ".join(_quote(g) for g in groups)
                sql += " ORDER BY " + ", ".join(_quote(g) for g in groups)
        else:
            if select:
                headers = [self.resolve_column(c) for c in select]
            else:
                headers = [c for c in DEFAULT_SELECT if c in self.columns]
                if not headers:
                    headers = self.columns[: 8]
            sql = (
                f"SELECT {', '.join(_quote(h) for h in headers)} "
                f"FROM runs{where_sql} ORDER BY \"key\""
            )
        if limit is not None:
            sql += f" LIMIT {int(limit)}"
        rows = self.connection.execute(sql, parameters).fetchall()
        return headers, rows

    def _where(self, where: Sequence[str]) -> Tuple[str, List[Any]]:
        """The SQL ``WHERE`` clause of *where* filters, and its parameters."""
        clauses: List[str] = []
        parameters: List[Any] = []
        for filter_text in where:
            column, op, value = parse_filter(filter_text)
            clauses.append(f"{_quote(self.resolve_column(column))} {op} ?")
            parameters.append(_to_sqlite(value))
        return (" WHERE " + " AND ".join(clauses)) if clauses else "", parameters

    def _aggregate_sql(self, text: str) -> Tuple[str, str]:
        if text == "count":
            return "count", "COUNT(*)"
        function, _, column = text.partition(":")
        sql_fn = {"sum": "SUM", "mean": "AVG", "min": "MIN", "max": "MAX"}.get(
            function
        )
        if sql_fn is None or not column:
            raise AnalyticsError(
                f"bad aggregate {text!r} (want count or sum/mean/min/max:column)"
            )
        resolved = self.resolve_column(column)
        return f"{function}:{resolved}", f"{sql_fn}({_quote(resolved)})"

    def documents(
        self, headers: Sequence[str], rows: Sequence[Sequence[Any]],
    ) -> List[Dict[str, Any]]:
        """Rows as JSON-safe documents (the ``--json`` output form)."""
        return [dict(zip(headers, row)) for row in rows]

    # -- report answers ----------------------------------------------------
    def answers(
        self, runs_columns: Sequence[Tuple[str, Any]],
        answer_columns: Sequence[str], where: Sequence[str] = (),
    ) -> List[Tuple[Any, ...]]:
        """Per run matching *where*, in key order: its ``key``, its value of
        each ``(column, missing)`` of *runs_columns* (*missing* when the
        corpus has no such column) and its ``summaries`` *answer_columns*.
        One SELECT over ``runs`` joined to ``summaries``."""
        selects = ["key"]
        parameters: List[Any] = []
        for column, missing in runs_columns:
            if column in self.columns:
                selects.append(_quote(column))
            else:
                selects.append("?")
                parameters.append(missing)
        selects.extend(answer_columns)
        where_sql, where_parameters = self._where(where)
        return self.connection.execute(
            f"SELECT {', '.join(selects)} FROM runs JOIN summaries "
            f"USING (key){where_sql} ORDER BY key",
            parameters + where_parameters,
        ).fetchall()

    def slice_buckets(self, where: Sequence[str] = ()) -> List[Tuple[int, int]]:
        """The exec-slice histogram tallies of the runs matching *where*,
        summed per bucket, as ``(bucket, tally)`` in ascending bucket order."""
        where_sql, parameters = self._where(where)
        return self.connection.execute(
            "SELECT bucket, SUM(tally) FROM buckets JOIN runs USING (key)"
            f"{where_sql} GROUP BY bucket ORDER BY bucket", parameters,
        ).fetchall()


#: Row-mode columns shown when the user selects nothing explicitly.
DEFAULT_SELECT = (
    "key", "spec.name", "spec.kernel", "spec.workload", "spec.seed",
    "metrics.context_switches", "metrics.preemptions",
    "metrics.cpu_utilization", "metrics.energy_mj",
)

#: Comparison operators a filter may use, longest first (parse order).
FILTER_OPS = ("==", "!=", "<=", ">=", "=", "<", ">")


def parse_filter(text: str) -> Tuple[str, str, Any]:
    """Parse a ``column OP value`` filter string.

    Values are coerced like CLI matrix values (bool/int/float/str); ``=``
    and ``==`` both mean SQL equality.
    """
    from repro.campaign.spec import coerce_value

    for op in FILTER_OPS:
        if op in text:
            column, _, value_text = text.partition(op)
            column = column.strip()
            value_text = value_text.strip()
            if not column or value_text == "":
                break
            sql_op = "=" if op in ("=", "==") else op
            return column, sql_op, coerce_value(value_text)
    raise AnalyticsError(
        f"bad filter {text!r} (want column OP value, OP one of {FILTER_OPS})"
    )


def open_index(
    store: ResultStore,
    path: Optional[str] = None,
    auto_build: bool = True,
) -> CorpusIndex:
    """Open the corpus index of *store*, rebuilding when missing or stale.

    An unreadable index file counts as stale.  With ``auto_build=False`` a
    missing, unreadable or stale index raises :class:`AnalyticsError`
    instead (the ``repro query --no-build`` path).  The freshness check
    and the queries share one connection.
    """
    path = path or default_index_path(store)
    status, connection, columns = _inspect_index(store, path)
    if connection is not None:
        return CorpusIndex(path, connection, columns, rebuilt=False)
    if not auto_build:
        if not status["present"]:
            state = "missing"
        elif status["unreadable"]:
            state = f"unreadable ({status['unreadable']})"
        else:
            state = "stale"
        raise AnalyticsError(
            f"corpus index {path!r} is {state}; run 'repro index build'"
        )
    build_index(store, path)
    connection = sqlite3.connect(path)
    (recorded,) = connection.execute(
        "SELECT value FROM meta WHERE key = 'columns'").fetchone()
    return CorpusIndex(path, connection, json.loads(recorded)["columns"],
                       rebuilt=True)
