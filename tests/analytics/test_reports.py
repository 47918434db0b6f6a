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
import shutil

import pytest

import repro.obs.replay as replay_module
from repro.analytics.corpus import AnalyticsError, build_index, open_index
from repro.analytics.reports import (
    deadline_report,
    family_report,
    latency_report,
    rm_bound,
    schedulability_audit,
)
from repro.campaign import get_scenario, run_spec, spec_hash
from repro.campaign.metrics import RunResult
from repro.campaign.spec import spec_hash_from_document
from repro.grid.store import ResultStore
from repro.obs.bus import Event, canonical_json
from repro.obs.replay import decode_stored_jsonl
from repro.obs.sinks import StreamingHistogram
from repro.sweep.batch import run_batch
from repro.workload.families import FamilySpec, expand_family

#: Its four members run on all three kernels.
FAMILY = FamilySpec(
    name="report-family", count=4, seed=12, duration_ms=30.0,
    laws=("periodic",), kernels=("tkernel", "rtkspec1", "rtkspec2"),
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


def reference_audit(index, where=()):
    """The audit as derived from each run's task documents at report time."""
    headers, rows = index.query(
        select=["key", "spec.name", "spec.kernel", "spec.extra.tasks",
                "metrics.cpu_utilization"], where=where)
    audit = []
    for row in index.documents(headers, rows):
        periodic = [
            task for task in json.loads(row["spec.extra.tasks"] or "[]")
            if task.get("law") == "periodic"
            and isinstance(task.get("period_ms"), (int, float))
            and isinstance(task.get("execution_ms"), (int, float))
        ]
        requested = sum(task["execution_ms"] / task["period_ms"]
                        for task in periodic)
        bound = rm_bound(len(periodic))
        if not periodic:
            verdict = "-"
        elif requested > 1.0:
            verdict = "overload"
        elif requested <= bound:
            verdict = "rm-bound-ok"
        else:
            verdict = "check"
        audit.append({
            "key": row["key"], "name": row["spec.name"],
            "kernel": row["spec.kernel"], "periodic_tasks": len(periodic),
            "requested_utilization": round(requested, 6),
            "rm_bound": round(bound, 6),
            "measured_utilization": row["metrics.cpu_utilization"],
            "verdict": verdict,
        })
    return audit


def reference_deadline_report(index, store, where=()):
    headers, rows = index.query(
        select=["key", "spec.name", "spec.kernel", "spec.extra.tasks"],
        where=where)
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


def reference_latency_report(index, store, where=()):
    def summary(histogram):
        snapshot = histogram.snapshot()
        return {
            "slices": int(snapshot["count"]),
            "p50_us": round(snapshot["p50"] / 1e3, 3),
            "p90_us": round(snapshot["p90"] / 1e3, 3),
            "p99_us": round(snapshot["p99"] / 1e3, 3),
            "max_us": round(snapshot["max"] / 1e3, 3),
        }

    headers, rows = index.query(select=["key", "spec.name", "spec.kernel"],
                                where=where)
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


#: Report selections: the whole corpus, one kernel, and the builtin run.
WHERES = ((), ("spec.kernel=rtkspec2",), ("spec.workload!=generated",))


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

    def test_the_corpus_covers_every_kernel_and_a_builtin(self, warm):
        with open_index(warm) as index:
            audit = schedulability_audit(index)
        assert {row["kernel"] for row in audit} == {
            "tkernel", "rtkspec1", "rtkspec2"}
        assert RTK_PRIORITY.name in {row["name"] for row in audit}

    @pytest.mark.parametrize("where", WHERES)
    def test_audit_matches_the_per_line_reference(self, warm, where):
        with open_index(warm) as index:
            summarised = canonical_json(schedulability_audit(index, where))
            reference = canonical_json(reference_audit(index, where))
        assert summarised == reference
        assert json.loads(reference)

    @pytest.mark.parametrize("where", WHERES)
    def test_deadline_report_matches_the_per_line_reference(self, warm, where):
        with open_index(warm) as index:
            summarised = canonical_json(deadline_report(index, where))
            reference = canonical_json(
                reference_deadline_report(index, warm, where))
        assert summarised == reference
        if not where:
            assert len(json.loads(reference)) == FAMILY.count

    @pytest.mark.parametrize("where", WHERES)
    def test_latency_report_matches_the_per_line_reference(self, warm, where):
        with open_index(warm) as index:
            summarised = canonical_json(latency_report(index, where))
            reference = canonical_json(
                reference_latency_report(index, warm, where))
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


def fabricate(store, name, tasks, events):
    """File one generated-shaped entry with *events* (no simulation)."""
    spec = {"name": name, "kernel": "rtkspec2", "workload": "generated",
            "seed": 0, "duration_ms": 1.0,
            "extra": {"family": "odd", "tasks": tasks}}
    store.put(RunResult(spec, {"context_switches": 1}), events)
    return spec_hash_from_document(spec)


#: One periodic task, as a generated family declares it.
PERIODIC = [{"name": "t0", "law": "periodic", "period_ms": 2.0,
             "execution_ms": 0.5, "jobs": 2, "priority": 5}]


@pytest.fixture(scope="module")
def malformed(warm, tmp_path_factory):
    """The warm corpus plus one periodic run whose stored stream is not a
    well-formed ``sched`` stream (an exec line without ``dur_ms``)."""
    root = str(tmp_path_factory.mktemp("malformed") / "cache")
    shutil.copytree(warm.root, root)
    store = ResultStore(root)
    key = fabricate(store, "odd/malformed", PERIODIC,
                    b'{"kind":"exec","t_ms":0.0,"thread":"t0"}\n')
    return store, key


class TestMalformedStream:
    """A run whose stream has no summary keeps its audit row; the stream
    reports name it, and answer as the reference without it."""

    def test_audit_matches_the_reference(self, malformed):
        store, key = malformed
        with open_index(store) as index:
            audit = schedulability_audit(index)
            assert canonical_json(audit) == canonical_json(
                reference_audit(index))
        (row,) = [row for row in audit if row["key"] == key]
        assert row["periodic_tasks"] == 1 and row["verdict"] == "rm-bound-ok"

    @pytest.mark.parametrize("report", [deadline_report, latency_report])
    def test_stream_reports_name_the_run(self, malformed, report):
        store, key = malformed
        with open_index(store) as index:
            with pytest.raises(AnalyticsError, match=f"run '{key}' has no "
                               "stream summary"):
                report(index)

    def test_stream_reports_without_it_match_the_reference(self, malformed):
        store, _ = malformed
        where = ("spec.name!=odd/malformed",)
        with open_index(store) as index:
            assert canonical_json(deadline_report(index, where)) == \
                canonical_json(reference_deadline_report(index, store, where))
            assert canonical_json(latency_report(index, where)) == \
                canonical_json(reference_latency_report(index, store, where))

    def test_a_zero_period_is_a_one_line_audit_error(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        key = fabricate(store, "odd/zero-period",
                        [dict(PERIODIC[0], period_ms=0)], b"")
        with open_index(store) as index:
            assert index.query(select=["key"])[1] == [(key,)]
            with pytest.raises(AnalyticsError, match="period_ms 0"):
                schedulability_audit(index)


class TestReportBudget:
    """Each report is a SELECT over index rows: it parses no task document
    and decodes no histogram state, however many runs it covers."""

    @pytest.mark.parametrize("report", [
        schedulability_audit, deadline_report, latency_report])
    def test_a_report_makes_no_json_loads(self, warm, report):
        with open_index(warm) as index:
            for where in ((), (f"spec.name={RTK_PRIORITY.name}",)):
                stats = profiled(report, index, where)
                assert calls_of(stats, json.loads) == 0


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
