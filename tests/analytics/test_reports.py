"""Audit reports over a warm corpus — with the zero-simulation guarantee.

The headline acceptance test lives here: every ``repro report`` flavour
runs over a warm store with ``build_scenario`` poisoned *and*
``Simulator.__init__`` poisoned, proving the report plane is pure artifact
analysis.  The report content itself is checked against the known structure
of generated periodic families (requested utilization, RM bounds, deadline
reconstruction, latency percentiles, per-family means).
"""

import builtins
import cProfile
import io
import json
import math
import os
import pstats

import pytest

import repro.obs.replay as replay_module
from repro.analytics.corpus import build_index, open_index
from repro.analytics.reports import (
    deadline_report,
    family_report,
    latency_report,
    rm_bound,
    schedulability_audit,
)
from repro.campaign import get_scenario, run_spec, spec_hash
from repro.grid.store import ResultStore
from repro.obs.bus import Event, canonical_json
from repro.obs.replay import decode_stored_jsonl
from repro.obs.sinks import StreamingHistogram
from repro.sweep.batch import run_batch
from repro.workload.families import FamilySpec, expand_family

FAMILY = FamilySpec(
    name="report-family", count=4, seed=11, duration_ms=30.0,
    laws=("periodic",),
)

#: The registry scenario of the warm corpus: its non-periodic audit row.
RTK_PRIORITY = get_scenario("rtk-priority").with_overrides(
    {"duration_ms": 30.0}).validate()

#: Every spec the warm corpus stores.
WARM_SPECS = [*expand_family(FAMILY), RTK_PRIORITY]


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    """A warm store + fresh index over one periodic family and one
    registry scenario (the non-periodic audit row)."""
    store = ResultStore(str(tmp_path_factory.mktemp("reports") / "cache"))
    run_batch(WARM_SPECS[:-1], workers=1, store=store)
    run_spec(RTK_PRIORITY, collect_events=False, store=store)
    return store


def warm_entries(store):
    """The verified entry of every warm spec; the store holds no other."""
    entries = [store.lookup(spec) for spec in WARM_SPECS]
    assert all(entry is not None for entry in entries)
    assert len(store) == len(entries)
    return entries


@pytest.fixture()
def sealed(warm, monkeypatch):
    """The warm corpus with every simulation entry point poisoned."""
    import repro.campaign.runner as runner_module
    import repro.sysc.kernel as kernel_module

    def forbidden_build(_spec, *args, **kwargs):
        raise AssertionError("report plane called build_scenario")

    def forbidden_sim(self, *args, **kwargs):
        raise AssertionError("report plane constructed a Simulator")

    monkeypatch.setattr(runner_module, "build_scenario", forbidden_build)
    monkeypatch.setattr(kernel_module.Simulator, "__init__", forbidden_sim)
    return warm


class TestZeroSimulation:
    def test_every_report_runs_without_simulating(self, sealed):
        with open_index(sealed) as index:
            audit = schedulability_audit(index)
            deadlines = deadline_report(index)
            latency = latency_report(index)
            families = family_report(index)
        assert len(audit) == FAMILY.count + 1
        assert len(deadlines) == FAMILY.count
        assert len(latency["runs"]) == FAMILY.count + 1
        assert len(families) >= 1


class TestAudit:
    def test_periodic_rows_carry_utilization_and_bound(self, warm):
        with open_index(warm) as index:
            audit = schedulability_audit(index)
        periodic = [row for row in audit if row["periodic_tasks"] > 0]
        assert len(periodic) == FAMILY.count
        for row in periodic:
            assert 0.0 < row["requested_utilization"]
            assert row["rm_bound"] == pytest.approx(
                rm_bound(row["periodic_tasks"]), abs=1e-6
            )
            assert row["verdict"] in ("rm-bound-ok", "check", "overload")

    def test_non_generated_rows_get_dash_verdict(self, warm):
        with open_index(warm) as index:
            audit = schedulability_audit(index)
        rows = [row for row in audit if row["periodic_tasks"] == 0]
        assert len(rows) == 1 and rows[0]["verdict"] == "-"

    def test_where_filters_the_audit(self, warm):
        with open_index(warm) as index:
            audit = schedulability_audit(
                index, where=["spec.workload=generated"],
            )
        assert len(audit) == FAMILY.count

    def test_rm_bound_values(self):
        assert rm_bound(0) == 0.0
        assert rm_bound(1) == 1.0
        assert math.isclose(rm_bound(2), 2 * (2 ** 0.5 - 1))


class TestDeadlines:
    def test_rows_reconstruct_jobs_and_percentiles(self, warm):
        with open_index(warm) as index:
            report = deadline_report(index)
        assert len(report) == FAMILY.count
        for row in report:
            assert row["jobs"] > 0
            assert 0 <= row["misses"] <= row["jobs"]
            assert row["miss_ratio"] == pytest.approx(
                row["misses"] / row["jobs"], abs=1e-6
            )
            assert 0.0 <= row["response_p50_ms"] <= row["response_p99_ms"]

    def test_deterministic_across_calls(self, warm):
        from repro.obs.bus import canonical_json

        with open_index(warm) as index:
            first = canonical_json(deadline_report(index))
            second = canonical_json(deadline_report(index))
        assert first == second


class TestLatency:
    def test_percentiles_ordered_and_aggregated(self, warm):
        with open_index(warm) as index:
            report = latency_report(index)
        total = 0
        for row in report["runs"]:
            assert row["p50_us"] <= row["p90_us"] <= row["p99_us"]
            assert row["p99_us"] <= row["max_us"]
            total += row["slices"]
        assert report["aggregate"]["slices"] == total
        assert report["aggregate"]["max_us"] == max(
            row["max_us"] for row in report["runs"]
        )


# ----------------------------------------------------------------------
# The per-line replay path, kept as the reference the reports must match
# ----------------------------------------------------------------------
def per_line_events(store, key):
    """The entry's stream documents, one plain ``json.loads`` per line."""
    entry = store.lookup(next(spec for spec in WARM_SPECS
                              if spec_hash(spec) == key))
    return [json.loads(line) for line in
            io.StringIO(entry.events_blob.decode("utf-8"))]


def ns(t_ms):
    """The integer nanosecond behind a ``t_ms``/``dur_ms`` field."""
    return round(t_ms * 1_000_000)


def exec_documents(store, key):
    return [document for document in per_line_events(store, key)
            if document.get("topic", "sched") == "sched"
            and document["kind"] == "exec"]


def reference_exec_slices_by_thread(store, key):
    slices = {}
    for document in exec_documents(store, key):
        slices.setdefault(document["thread"], []).append(
            (ns(document["t_ms"]), ns(document["dur_ms"]))
        )
    return slices


def reference_completions(slices, execution_ns, jobs):
    """Job completion instants, walking the slices as a queue."""
    queue = list(slices)
    done = 0.0  # execution served before the slice at the queue head
    completions = []
    for job in range(jobs):
        needed = (job + 1) * execution_ns
        while queue and done + queue[0][1] < needed - 1e-9:
            done += queue.pop(0)[1]
        completions.append(queue[0][0] + (needed - done) if queue else None)
    return completions


def reference_deadline_report(index, store):
    headers, rows = index.query(
        select=["key", "spec.name", "spec.kernel", "spec.extra.tasks"])
    report = []
    for row in index.documents(headers, rows):
        tasks = [task for task in json.loads(row["spec.extra.tasks"] or "[]")
                 if task.get("law") == "periodic"]
        if not tasks:
            continue
        slices = reference_exec_slices_by_thread(store, row["key"])
        jobs = misses = 0
        response = StreamingHistogram()
        for task in tasks:
            period = task["period_ms"] * 1e6
            completions = reference_completions(
                slices.get(task["name"], []), task["execution_ms"] * 1e6,
                int(task.get("jobs", 1)))
            for job, completion in enumerate(completions):
                jobs += 1
                arrival = job * period
                if completion is None or completion > arrival + period + 1e-9:
                    misses += 1
                if completion is not None and completion >= arrival:
                    response.add(completion - arrival)
        snapshot = response.snapshot()
        report.append({
            "key": row["key"], "name": row["spec.name"],
            "kernel": row["spec.kernel"], "jobs": jobs, "misses": misses,
            "miss_ratio": round(misses / jobs, 6) if jobs else 0.0,
            "response_p50_ms": round(snapshot["p50"] / 1e6, 6),
            "response_p99_ms": round(snapshot["p99"] / 1e6, 6),
        })
    return report


def reference_latency_report(index, store):
    def summary(histogram):
        snapshot = histogram.snapshot()
        return {
            "slices": int(snapshot["count"]),
            "p50_us": round(snapshot["p50"] / 1e3, 3),
            "p90_us": round(snapshot["p90"] / 1e3, 3),
            "p99_us": round(snapshot["p99"] / 1e3, 3),
            "max_us": round(snapshot["max"] / 1e3, 3),
        }

    headers, rows = index.query(select=["key", "spec.name", "spec.kernel"])
    runs, aggregate = [], StreamingHistogram()
    for row in index.documents(headers, rows):
        histogram = StreamingHistogram()
        for document in exec_documents(store, row["key"]):
            histogram.add(ns(document["dur_ms"]))
        aggregate.merge(histogram)
        runs.append({"key": row["key"], "name": row["spec.name"],
                     "kernel": row["spec.kernel"], **summary(histogram)})
    return {"runs": runs, "aggregate": summary(aggregate)}


def profiled(function, *args):
    profile = cProfile.Profile()
    profile.enable()
    try:
        function(*args)
    finally:
        profile.disable()
    return pstats.Stats(profile).stats


def calls_of(stats, function, caller_file=None):
    """Calls of *function*, only those made from *caller_file* if given."""
    code = function.__code__
    entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
    if entry is None:
        return 0
    if caller_file is None:
        return entry[1]
    return sum(counts[0] for caller, counts in entry[4].items()
               if caller[0] == caller_file)


class TestStoredStreamDecode:
    """``index build`` decodes each verified stream once, in bulk; the
    reports then answer from index rows alone, with the answers of the
    per-line replay path."""

    def test_decoder_matches_per_line_loads_on_every_entry(self, warm):
        entries = warm_entries(warm)
        assert len(entries) == FAMILY.count + 1
        for entry in entries:
            lines = entry.events_blob.splitlines()
            assert lines
            assert list(decode_stored_jsonl(entry.events_blob)) == [
                json.loads(line) for line in lines
            ]

    def test_deadline_report_matches_the_per_line_reference(self, warm):
        with open_index(warm) as index:
            summarised = canonical_json(deadline_report(index))
            reference = canonical_json(reference_deadline_report(index, warm))
        assert summarised == reference
        assert len(json.loads(reference)) == FAMILY.count

    def test_latency_report_matches_the_per_line_reference(self, warm):
        with open_index(warm) as index:
            summarised = canonical_json(latency_report(index))
            reference = canonical_json(reference_latency_report(index, warm))
        assert summarised == reference

    def test_build_reads_and_decodes_each_stream_once(
        self, warm, monkeypatch
    ):
        entries = warm_entries(warm)
        assert all(
            entry.events_blob.count(b"\n") <= replay_module.STORED_BATCH_LINES
            for entry in entries
        )  # every fixture stream fits one batch
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(os.path.relpath(str(file), warm.root))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        stats = profiled(build_index, warm)
        monkeypatch.setattr(builtins, "open", real_open)
        assert calls_of(stats, json.loads, replay_module.__file__) == len(entries)
        assert calls_of(stats, Event.__init__) == 0
        expected = sorted(os.path.join(entry.key[:2], entry.key)
                          for entry in entries)
        assert sorted(opened) == expected

    def test_reports_open_no_stream(self, warm, monkeypatch):
        import repro.analytics.corpus as corpus_module

        def outputs():
            with open_index(warm) as index:
                headers, rows = index.query()
                return [
                    canonical_json(index.documents(headers, rows)),
                    canonical_json(schedulability_audit(index)),
                    canonical_json(deadline_report(index)),
                    canonical_json(latency_report(index)),
                ]

        before = outputs()

        def forbidden(*args, **kwargs):
            raise AssertionError("a report read a stored stream")

        monkeypatch.setattr(ResultStore, "lookup", forbidden)
        monkeypatch.setattr(replay_module, "decode_stored_jsonl", forbidden)
        monkeypatch.setattr(corpus_module, "decode_stored_jsonl", forbidden)
        assert outputs() == before


class TestFamilies:
    def test_family_rows_group_and_average(self, warm):
        with open_index(warm) as index:
            report = family_report(index)
        by_family = {row["family"]: row for row in report}
        assert by_family[FAMILY.name]["runs"] == FAMILY.count
        assert "mean.metrics.cpu_utilization" in by_family[FAMILY.name]

    def test_baseline_adds_deltas(self, warm):
        with open_index(warm) as index:
            report = family_report(index, baseline=FAMILY.name)
        base = next(row for row in report if row["family"] == FAMILY.name)
        assert base["delta.metrics.cpu_utilization"] == pytest.approx(0.0)

    def test_unknown_baseline_rejected(self, warm):
        from repro.analytics.corpus import AnalyticsError

        with open_index(warm) as index:
            with pytest.raises(AnalyticsError, match="baseline"):
                family_report(index, baseline="no-such-family")
