"""Analytics corpus-index guard: warm queries must stay sim-free and cheap.

The analytics plane's contract is *zero simulation on a warm store*: the
index is a pure function of stored entries, ``index build`` reads each
entry file once and summarises each stored stream once, and every query
and report reads only the index.  Three properties are pinned here:

* **No simulation.**  Building the index and querying it on a warm store
  never constructs a :class:`~repro.sysc.kernel.Simulator` — structurally
  asserted by poisoning ``Simulator.__init__``.
* **Exact build budget.**  Per entry, ``build_index`` opens its file
  once and decodes its stream with exactly one bulk
  ``json.loads`` (three ``json.loads`` in all) — a second stream decode,
  a per-line decode or a second parse of the task set breaks the count on
  any host.
* **Exact read budget.**  On an unchanged store, opening the index (its
  freshness check included) and every query and report open no file under
  the store root — a per-query entry read, or a freshness check that
  re-reads entries it has a matching stat for, breaks it.  After one new
  ``put``, the freshness check opens exactly that entry's file.
"""

import builtins
import cProfile
import json
import os
import pstats

import pytest

import repro.obs.replay as replay_module
from repro.analytics.corpus import build_index, index_status, open_index
from repro.analytics.reports import (
    deadline_report,
    family_report,
    latency_report,
    schedulability_audit,
)
from repro.campaign.metrics import RunResult
from repro.grid.store import ResultStore
from repro.obs.bus import canonical_json

#: Synthetic corpus size: big enough to amortize per-query setup, small
#: enough that the fabrication itself stays in the millisecond range.
RUNS = 32

#: One periodic task, as a generated family declares it.
TASKS = [{"name": "t0", "law": "periodic", "period_ms": 0.002,
          "execution_ms": 0.0005, "jobs": 4, "priority": 5}]


def _fill_store(store: ResultStore, runs: int = RUNS) -> None:
    """Fabricate *runs* store entries through ``put`` — no simulation.

    The events take the stored ``sched/exec`` shape the simulator writes,
    so every entry gets a stream summary.
    """
    for index in range(runs):
        spec = {
            "name": f"guard/{index:04d}", "kernel": "tkernel",
            "workload": "generated", "seed": index, "duration_ms": 40.0,
            "extra": {"family": "guard", "variant": index % 4,
                      "tasks": TASKS},
        }
        metrics = {
            "scenario": spec["name"], "kernel": "tkernel", "seed": index,
            "context_switches": 10 + index, "preemptions": index % 5,
            "cpu_utilization": round(0.2 + (index % 10) / 50.0, 6),
            "energy_mj": round(0.1 + index / 1000.0, 6),
        }
        events = "".join(
            canonical_json({"kind": "exec", "t_ms": slot / 1000,
                            "thread": "t0", "dur_ms": 0.0005,
                            "context": "task", "energy_nj": 1.0,
                            "label": "run"}) + "\n"
            for slot in range(4)
        )
        store.put(RunResult(spec, metrics), events.encode("utf-8"))


def settle(store: ResultStore) -> None:
    """Wait until the file system's clock has passed every entry's ctime.

    An index built afterwards has an mtime newer than each entry it
    records, so its freshness check trusts them all (the racy-entry rule
    re-reads an entry changed within the build's timestamp tick).
    """
    newest = max(os.stat(path).st_ctime_ns for _, path in store.entries())
    probe = os.path.join(os.path.dirname(store.root), "clock-probe")
    os.close(os.open(probe, os.O_WRONLY | os.O_CREAT))
    while os.stat(probe).st_mtime_ns <= newest:
        os.utime(probe)
    os.remove(probe)


@pytest.fixture
def store(tmp_path):
    store = ResultStore(str(tmp_path / "cache"))
    _fill_store(store)
    settle(store)
    return store


@pytest.fixture
def store_opens(store, monkeypatch):
    """Paths under the store root that ``open`` is called on, relative."""
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        path = os.path.abspath(str(file))
        if path.startswith(store.root + os.sep):
            opened.append(os.path.relpath(path, store.root))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    return opened


def _json_loads_calls(function, *args):
    """``(all json.loads calls, those made from replay.py)`` of one call."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        function(*args)
    finally:
        profile.disable()
    code = json.loads.__code__
    entry = pstats.Stats(profile).stats.get(
        (code.co_filename, code.co_firstlineno, code.co_name))
    if entry is None:
        return 0, 0
    from_replay = sum(counts[0] for caller, counts in entry[4].items()
                      if caller[0] == replay_module.__file__)
    return entry[1], from_replay


def test_warm_query_never_constructs_a_simulator(store, monkeypatch):
    import repro.sysc.kernel as kernel_module

    def forbidden(self, *args, **kwargs):
        raise AssertionError(
            "analytics touched the simulator: Simulator() was constructed"
        )

    monkeypatch.setattr(kernel_module.Simulator, "__init__", forbidden)

    build_index(store)
    with open_index(store) as index:
        headers, rows = index.query(where=("spec.kernel=tkernel",))
        assert len(rows) == RUNS
        headers, rows = index.query(
            group_by=("spec.extra.family",),
            aggregate=("count", "mean:metrics.cpu_utilization"),
        )
        assert rows[0][1] == RUNS


def test_index_build_reads_and_decodes_each_entry_once(store, store_opens):
    """Per entry: one open of its file and three ``json.loads`` calls —
    the manifest, the run document's spec member (which also yields the
    task set) and one bulk decode of the stream."""
    loads, stream_loads = _json_loads_calls(build_index, store)
    expected = sorted(os.path.join(key[:2], key) for key, _ in store.entries())
    assert sorted(store_opens) == expected
    assert stream_loads == RUNS
    assert loads == 3 * RUNS
    with open_index(store) as index:
        assert len(latency_report(index)["runs"]) == RUNS
        assert sum(row["jobs"] for row in deadline_report(index)) == 4 * RUNS


def test_queries_and_reports_open_nothing_but_the_index(store, store_opens):
    build_index(store)
    del store_opens[:]
    with open_index(store) as index:
        assert index.rebuilt is False
        for _ in range(3):
            index.query(
                where=("spec.kernel=tkernel",),
                group_by=("spec.extra.family",),
                aggregate=("count", "mean:metrics.cpu_utilization"),
            )
            index.query(select=("key", "spec.name"))
            schedulability_audit(index)
            deadline_report(index)
            latency_report(index)
            family_report(index)
    assert store_opens == []


def test_freshness_after_one_put_opens_only_its_entry(store, store_opens):
    build_index(store)
    spec = {"name": "guard/new", "kernel": "tkernel", "workload": "generated",
            "seed": RUNS, "duration_ms": 40.0}
    added = store.put(RunResult(spec, {"context_switches": 1}), b"")
    del store_opens[:]
    assert index_status(store)["fresh"] is False
    assert store_opens == [os.path.join(added.key[:2], added.key)]
