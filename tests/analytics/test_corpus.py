"""The corpus index: a pure, deterministic function of the result store.

The acceptance bar for the analytics plane's index layer:

* rebuilding the index twice over the same store yields **byte-identical**
  canonical query output,
* a store filled by a serial batch and a store filled by a sharded
  run+merge of the *same family* index to byte-identical query output
  (wall-clock manifest fields never leak into the index),
* the index goes stale when the store changes and ``open_index`` rebuilds
  it (or refuses, with ``auto_build=False``),
* the per-run stream summaries are part of that pure function: they
  follow every store change, and once built they answer the stream
  reports even after a stored stream rots (``cache verify``'s to find).
"""

import os
import sqlite3

import pytest

from repro.analytics.corpus import (
    CORPUS_SCHEMA,
    AnalyticsError,
    CorpusIndex,
    build_index,
    corpus_fingerprint,
    default_index_path,
    index_status,
    open_index,
    parse_filter,
    periodic_tasks,
)
from repro.analytics.reports import deadline_report, latency_report
from repro.campaign.cli import main
from repro.campaign.metrics import RunResult
from repro.campaign.spec import spec_hash, spec_hash_from_document
from repro.grid.store import ResultStore
from repro.obs.bus import canonical_json
from repro.sweep.batch import run_batch
from repro.sweep.plan import plan_shard
from repro.sweep.shard import merge_shards, run_shard
from repro.workload.families import FamilySpec, expand_family
from tests.grid.entry_files import append_bytes, flip_byte, rewrite_entry

FAMILY = FamilySpec(
    name="corpus-family", count=4, seed=21, duration_ms=20.0,
    laws=("periodic",),
)


@pytest.fixture(scope="module")
def family_specs():
    return expand_family(FAMILY)


def query_bytes(store):
    """The canonical row-mode query output of a store's (fresh) index,
    followed by the two reports that read its stream summaries."""
    with open_index(store) as index:
        headers, rows = index.query()
        return "\n".join([
            canonical_json(index.documents(headers, rows)),
            canonical_json(deadline_report(index)),
            canonical_json(latency_report(index)),
        ])


class TestDeterminism:
    def test_rebuild_twice_is_byte_identical(self, tmp_path, family_specs):
        store = ResultStore(str(tmp_path / "cache"))
        run_batch(family_specs, workers=1, store=store)

        build_index(store)
        first = query_bytes(store)
        os.remove(default_index_path(store))
        build_index(store)
        second = query_bytes(store)
        assert first == second

    def test_serial_and_sharded_corpora_index_identically(
        self, tmp_path, family_specs
    ):
        serial_store = ResultStore(str(tmp_path / "serial_cache"))
        run_batch(family_specs, workers=1, store=serial_store)

        sharded_store = ResultStore(str(tmp_path / "sharded_cache"))
        shard_dirs = []
        for shard_index in range(2):
            plan = plan_shard(family_specs, 2, shard_index)
            shard_dir = str(tmp_path / f"shard_{shard_index}")
            run_shard(plan, shard_dir, store=sharded_store)
            shard_dirs.append(shard_dir)
        merge_shards(shard_dirs, str(tmp_path / "merged"))

        assert query_bytes(serial_store) == query_bytes(sharded_store)

    def test_grouped_query_is_deterministic(self, tmp_path, family_specs):
        store = ResultStore(str(tmp_path / "cache"))
        run_batch(family_specs, workers=1, store=store)
        outputs = set()
        for _ in range(2):
            build_index(store)
            with open_index(store) as index:
                headers, rows = index.query(
                    group_by=["spec.kernel"],
                    aggregate=["count", "mean:metrics.cpu_utilization"],
                )
                outputs.add(canonical_json(index.documents(headers, rows)))
        assert len(outputs) == 1


class TestFreshness:
    def test_missing_index_reports_absent(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        status = index_status(store)
        assert status["present"] is False and status["fresh"] is False

    def test_store_change_goes_stale_and_rebuilds(self, tmp_path, family_specs):
        store = ResultStore(str(tmp_path / "cache"))
        run_batch(family_specs[:2], workers=1, store=store)
        build_index(store)
        assert index_status(store)["fresh"] is True

        run_batch(family_specs[2:], workers=1, store=store)
        assert index_status(store)["fresh"] is False

        with open_index(store) as index:
            assert index.rebuilt is True
        assert index_status(store)["fresh"] is True

    def test_no_build_refuses_stale_index(self, tmp_path, family_specs):
        store = ResultStore(str(tmp_path / "cache"))
        run_batch(family_specs[:2], workers=1, store=store)
        with pytest.raises(AnalyticsError, match="missing"):
            open_index(store, auto_build=False)
        build_index(store)
        with open_index(store, auto_build=False) as index:
            assert index.rebuilt is False

    def test_fingerprint_ignores_wall_clock(self, tmp_path, family_specs):
        """The corpus fingerprint digests content hashes, not ``created_utc``
        — re-storing identical artifacts must not invalidate the index."""
        store = ResultStore(str(tmp_path / "cache"))
        run_batch(family_specs[:2], workers=1, store=store)
        before = corpus_fingerprint(store)
        run_batch(family_specs[:2], workers=1, store=store, refresh=True)
        assert corpus_fingerprint(store) == before


def _put(store, index, metrics=None, events=b""):
    """File one fabricated entry (no simulation); returns it."""
    spec = {"name": f"mut/{index}", "kernel": "tkernel", "workload": "x",
            "seed": index, "duration_ms": 1.0}
    return store.put(
        RunResult(spec, metrics or {"context_switches": index}), events)


def settle(store):
    """Wait until the file system's clock has passed every entry file's
    ctime, so an index built afterwards trusts each entry it records."""
    newest = max(os.stat(path).st_ctime_ns for _, path in store.entries())
    probe = os.path.join(os.path.dirname(store.root), "clock-probe")
    os.close(os.open(probe, os.O_WRONLY | os.O_CREAT))
    while os.stat(probe).st_mtime_ns <= newest:
        os.utime(probe)
    os.remove(probe)


def _entry_reads(store, monkeypatch, action):
    """Run *action*; return the keys of the entry files it opened."""
    import builtins

    real_open = builtins.open
    keys = []
    entry_dir = store.root + os.sep

    def counting_open(file, *args, **kwargs):
        path = os.path.abspath(str(file))
        if (path.startswith(entry_dir)
                and os.path.dirname(os.path.dirname(path)) == store.root):
            keys.append(os.path.basename(path))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    try:
        result = action()
    finally:
        monkeypatch.setattr(builtins, "open", real_open)
    return result, keys


def _rewrite_manifest(store, key, **changes):
    """Edit an entry's manifest in place (same file, new content)."""
    rewrite_entry(store.entry_path(key), **changes)


def _new_put(store, keys):
    _put(store, 99)
    return False


def _identical_refresh(store, keys):
    _put(store, 0)
    return True


def _other_metrics(store, keys):
    _put(store, 1, metrics={"context_switches": 1000})
    return False


def _gc_stale(store, keys):
    assert store.gc()["removed"] == 1
    return True


def _verify_repair(store, keys):
    append_bytes(store.entry_path(keys[2]), b"{}\n")
    # The corrupt entry and the other code's entry both fail verification.
    assert store.verify(repair=True)["quarantined"] == 2
    return False


def _clear(store, keys):
    store.clear()
    return False


def _manifest_edit(store, keys):
    _rewrite_manifest(store, keys[3], events_sha256="0" * 64)
    return False


def _wall_clock_edit(store, keys):
    _rewrite_manifest(store, keys[3], created_utc="2000-01-01T00:00:00Z")
    return True


#: Store mutations after an index build: each returns whether the index is
#: still fresh afterwards.
MUTATIONS = {
    "new-put": _new_put,
    "identical-refresh": _identical_refresh,
    "other-metrics-same-key": _other_metrics,
    "gc-stale-entry": _gc_stale,
    "verify-repair": _verify_repair,
    "clear": _clear,
    "in-place-manifest-edit": _manifest_edit,
    "in-place-wall-clock-edit": _wall_clock_edit,
}


class TestSnapshotFreshness:
    """Freshness from the index's ``entry_stat`` snapshot: the fingerprint
    always equals the full walk's, and only entries whose file stat moved
    are read."""

    @pytest.fixture
    def store(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        keys = [_put(store, index).key for index in range(6)]
        # An entry other code produced: walked, recorded, never counted.
        ResultStore(store.root, fingerprint="other-code").put(
            RunResult({"name": "mut/stale", "kernel": "tkernel",
                       "workload": "x", "seed": 0, "duration_ms": 1.0}, {}),
            b"")
        settle(store)
        build_index(store)
        store.keys = keys
        return store

    def test_an_unchanged_store_reads_no_entry(self, store, monkeypatch):
        status, reads = _entry_reads(
            store, monkeypatch, lambda: index_status(store))
        assert status["fresh"] is True and reads == []
        assert status["corpus_fingerprint"] == corpus_fingerprint(store)

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_fingerprint_equals_the_full_walk(self, store, mutation,
                                              monkeypatch):
        fresh = MUTATIONS[mutation](store, store.keys)
        status, reads = _entry_reads(
            store, monkeypatch, lambda: index_status(store))
        assert status["corpus_fingerprint"] == corpus_fingerprint(store)
        assert status["fresh"] is fresh
        changed = {
            "new-put": [spec_hash_from_document(
                {"name": "mut/99", "kernel": "tkernel", "workload": "x",
                 "seed": 99, "duration_ms": 1.0})],
            "identical-refresh": [store.keys[0]],
            "other-metrics-same-key": [store.keys[1]],
            "in-place-manifest-edit": [store.keys[3]],
            "in-place-wall-clock-edit": [store.keys[3]],
        }
        assert reads == changed.get(mutation, [])

    def test_an_entry_as_new_as_the_index_is_read_again(self, store,
                                                       monkeypatch):
        """The racy-entry rule: a row whose ctime is not older than the
        index file's mtime is not trusted, however well its stat matches."""
        ctimes = {key: os.stat(path).st_ctime_ns
                  for key, path in store.entries()}
        newest = max(ctimes.values())
        os.utime(default_index_path(store), ns=(newest, newest))
        status, reads = _entry_reads(
            store, monkeypatch, lambda: index_status(store))
        assert status["fresh"] is True
        assert status["corpus_fingerprint"] == corpus_fingerprint(store)
        assert reads == sorted(key for key, ctime in ctimes.items()
                               if ctime >= newest)

    def test_an_index_of_other_code_trusts_no_row(self, store, monkeypatch):
        other = ResultStore(store.root, fingerprint="other-code")
        status, reads = _entry_reads(
            other, monkeypatch, lambda: index_status(other))
        assert status["fresh"] is False
        assert status["corpus_fingerprint"] == corpus_fingerprint(other)
        assert len(reads) == len(store.entries())


class TestSummaries:
    def test_index_of_the_previous_schema_is_stale(
        self, tmp_path, family_specs, capsys
    ):
        store = ResultStore(str(tmp_path / "cache"))
        run_batch(family_specs[:2], workers=1, store=store)
        build_index(store)
        # The /2 layout: histogram state and job rows, no report answers.
        connection = sqlite3.connect(default_index_path(store))
        connection.execute("DROP TABLE summaries")
        connection.execute("DROP TABLE buckets")
        connection.execute(
            "CREATE TABLE summaries (key TEXT PRIMARY KEY, count INTEGER, "
            "total REAL, min REAL, max REAL, buckets TEXT)")
        connection.execute(
            "CREATE TABLE jobs (key TEXT, task TEXT, job INTEGER, "
            "release_ns REAL, deadline_ns REAL, completion_ns REAL)")
        connection.execute("UPDATE meta SET value = ? WHERE key = 'schema'",
                           ("repro-analytics-corpus/2",))
        connection.commit()
        connection.close()

        status = index_status(store)
        assert status["present"] is True and status["fresh"] is False
        assert status["schema"] == "repro-analytics-corpus/2"
        assert main(["query", "--no-build", "--cache", store.root]) == 2
        assert "is stale" in capsys.readouterr().err

        with open_index(store) as index:
            assert index.rebuilt is True
            assert len(latency_report(index)["runs"]) == 2
        assert index_status(store)["schema"] == CORPUS_SCHEMA

    def test_a_new_run_reaches_the_rebuilt_summaries(
        self, tmp_path, family_specs
    ):
        store = ResultStore(str(tmp_path / "cache"))
        run_batch(family_specs[:3], workers=1, store=store)
        build_index(store)
        with open_index(store) as index:
            before = {row["key"] for row in deadline_report(index)}
        run_batch(family_specs[3:], workers=1, store=store)
        (added,) = {spec_hash(spec) for spec in family_specs[3:]}
        assert index_status(store)["fresh"] is False

        with open_index(store) as index:
            assert index.rebuilt is True
            jobs = {row["key"]: row["jobs"] for row in deadline_report(index)}
            latency = {row["key"]: row for row in latency_report(index)["runs"]}
        assert set(jobs) == set(latency) == before | {added}
        assert latency[added]["slices"] > 0 and jobs[added] > 0

    def test_reports_answer_from_the_index_after_bit_rot(
        self, tmp_path, family_specs, capsys
    ):
        store = ResultStore(str(tmp_path / "cache"))
        run_batch(family_specs, workers=1, store=store)
        build_index(store)
        before = query_bytes(store)

        rotten = spec_hash(family_specs[1])
        flip_byte(store.entry_path(rotten))
        assert index_status(store)["fresh"] is True
        assert query_bytes(store) == before

        assert main(["cache", "verify", "--cache", store.root]) == 1
        out = capsys.readouterr().out
        assert f"{rotten[:16]}" in out and "events digest mismatch" in out


    def test_a_stream_that_does_not_decode_gets_no_summary(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        spec = {"name": "odd/0", "kernel": "tkernel", "workload": "x",
                "seed": 0, "duration_ms": 1.0}
        store.put(RunResult(spec, {"context_switches": 1}),
                  b'{"kind":"exec","t_ns":0,"thread":"t0"}\n')
        assert build_index(store)["runs"] == 1
        with open_index(store) as index:
            headers, rows = index.query(select=["key"])
            assert rows == [(spec_hash_from_document(spec),)]
            with pytest.raises(AnalyticsError, match="no stream summary"):
                latency_report(index)


class TestQueries:
    @pytest.fixture(scope="class")
    def index(self, tmp_path_factory, family_specs):
        store = ResultStore(
            str(tmp_path_factory.mktemp("corpus") / "cache")
        )
        run_batch(family_specs, workers=1, store=store)
        with open_index(store) as index:
            yield index

    def test_row_mode_orders_by_key(self, index):
        headers, rows = index.query(select=["key"])
        keys = [row[0] for row in rows]
        assert keys == sorted(keys) and len(keys) == FAMILY.count

    def test_where_filters_rows(self, index):
        headers, rows = index.query(
            select=["key", "spec.name"], where=["spec.seed>=0"],
        )
        assert len(rows) == FAMILY.count
        headers, rows = index.query(
            select=["key"], where=["spec.kernel!=tkernel"],
        )
        assert rows == []

    def test_short_column_names_resolve(self, index):
        assert index.resolve_column("kernel") == "spec.kernel"
        assert index.resolve_column("context_switches") == (
            "metrics.context_switches"
        )

    def test_unknown_column_lists_similar(self, index):
        with pytest.raises(AnalyticsError, match="no corpus column"):
            index.resolve_column("kernle")

    def test_bad_aggregate_rejected(self, index):
        with pytest.raises(AnalyticsError, match="bad aggregate"):
            index.query(group_by=["spec.kernel"], aggregate=["median:x"])

    def test_limit_caps_rows(self, index):
        headers, rows = index.query(select=["key"], limit=2)
        assert len(rows) == 2


class TestPeriodicTasks:
    def test_reads_the_task_list_of_a_decoded_spec(self):
        periodic = {"law": "periodic", "period_ms": 10, "execution_ms": 2.5}
        spec = {"extra": {"tasks": [
            periodic,
            {"law": "sporadic", "period_ms": 10, "execution_ms": 1},
            {"law": "periodic", "period_ms": "10", "execution_ms": 1},
        ]}}
        assert periodic_tasks(spec) == [periodic]

    @pytest.mark.parametrize("spec", [
        {}, {"extra": None}, {"extra": {}}, {"extra": {"tasks": "[]"}},
        {"extra": {"tasks": {"law": "periodic"}}},
    ], ids=["no-extra", "null-extra", "no-tasks", "string", "object"])
    def test_a_spec_without_a_task_list_has_none(self, spec):
        assert periodic_tasks(spec) == []


class TestParseFilter:
    def test_operators(self):
        assert parse_filter("kernel=tkernel") == ("kernel", "=", "tkernel")
        assert parse_filter("seed==3") == ("seed", "=", 3)
        assert parse_filter("util>=0.5") == ("util", ">=", 0.5)
        assert parse_filter("misses!=0") == ("misses", "!=", 0)

    def test_malformed_filter_rejected(self):
        with pytest.raises(AnalyticsError):
            parse_filter("no-operator-here")
