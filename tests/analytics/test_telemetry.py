"""Pipeline telemetry: spans measure the pipeline without ever entering it.

Two families of guarantees:

* **Recorder mechanics** — record/span/adopt/summary/sidecar round trip,
  the schema header line, worker-span adoption tagging.
* **Isolation** — a telemetry-instrumented run produces byte-identical
  deterministic artifacts (metrics document, event stream, batch
  aggregate, store entries) to an uninstrumented run.  Wall-clock spans
  live in the sidecar and nowhere else.
"""


import pytest

from repro.analytics.telemetry import (
    TELEMETRY_SCHEMA,
    TelemetryRecorder,
    format_telemetry_summary,
    load_telemetry,
    summarize_spans,
)
from repro.campaign import get_scenario, run_spec
from repro.grid.store import ResultStore
from repro.obs.bus import canonical_json
from repro.sweep.batch import run_batch
from repro.sweep.plan import plan_shard
from repro.sweep.shard import run_shard
from tests.grid.entry_files import read_sections


def fast_spec(name="synthetic-tkernel", **overrides):
    return get_scenario(name).with_overrides(
        {"duration_ms": 30.0, **overrides}
    ).validate()


class TestRecorder:
    def test_record_and_summary(self):
        recorder = TelemetryRecorder()
        recorder.record("build", 0.25, scenario="s")
        recorder.record("build", 0.75, scenario="t")
        recorder.record("run", 1.0)
        summary = recorder.summary()
        assert list(summary) == ["build", "run"]
        assert summary["build"]["spans"] == 2
        assert summary["build"]["total_seconds"] == pytest.approx(1.0)
        assert summary["build"]["mean_seconds"] == pytest.approx(0.5)

    def test_span_context_manager_records_on_error(self):
        recorder = TelemetryRecorder()
        with pytest.raises(RuntimeError):
            with recorder.span("doomed"):
                raise RuntimeError("boom")
        assert len(recorder) == 1
        assert recorder.spans[0]["phase"] == "doomed"

    def test_adopt_tags_worker_spans(self):
        worker = TelemetryRecorder()
        worker.record("run", 0.5, scenario="s")
        coordinator = TelemetryRecorder()
        coordinator.adopt(worker.spans, run=7)
        span = coordinator.spans[0]
        assert span["phase"] == "run" and span["run"] == 7
        assert span["scenario"] == "s"

    def test_sidecar_round_trip(self, tmp_path):
        recorder = TelemetryRecorder()
        recorder.record("merge", 0.125, shards=2)
        path = str(tmp_path / "telemetry.jsonl")
        lines = recorder.write_jsonl(path)
        assert lines == 2  # schema header + one span
        with open(path, "r", encoding="utf-8") as handle:
            header = handle.readline()
        assert TELEMETRY_SCHEMA in header
        spans = load_telemetry(path)
        assert spans == [{"phase": "merge", "seconds": 0.125, "shards": 2}]

    def test_summarize_spans_matches_recorder(self, tmp_path):
        recorder = TelemetryRecorder()
        recorder.record("run", 2.0)
        path = str(tmp_path / "t.jsonl")
        recorder.write_jsonl(path)
        assert summarize_spans(load_telemetry(path)) == recorder.summary()

    def test_format_summary_renders_phases(self):
        recorder = TelemetryRecorder()
        recorder.record("compose", 0.001)
        text = format_telemetry_summary(recorder.summary())
        assert "compose" in text and "mean_ms" in text


class TestIsolation:
    def test_run_artifacts_identical_with_and_without_telemetry(self):
        spec = fast_spec()
        plain = run_spec(spec)
        recorder = TelemetryRecorder()
        timed = run_spec(spec, telemetry=recorder)

        assert timed.metrics_json() == plain.metrics_json()
        assert canonical_json(timed.events) == canonical_json(plain.events)
        phases = {span["phase"] for span in recorder.spans}
        assert {"compose", "build", "run"} <= phases

    def test_store_entries_identical_with_and_without_telemetry(
        self, tmp_path
    ):
        spec = fast_spec()
        plain_store = ResultStore(str(tmp_path / "plain"))
        timed_store = ResultStore(str(tmp_path / "timed"))
        run_spec(spec, collect_events=False, store=plain_store)
        recorder = TelemetryRecorder()
        run_spec(spec, collect_events=False, store=timed_store,
                 telemetry=recorder)

        plain_entry = plain_store.lookup(spec)
        timed_entry = timed_store.lookup(spec)
        assert plain_entry is not None and timed_entry is not None
        assert read_sections(plain_entry.path)[2] == \
            read_sections(timed_entry.path)[2]
        assert {"store", "run"} <= {span["phase"] for span in recorder.spans}

    def test_batch_aggregate_identical_with_and_without_telemetry(self):
        specs = [fast_spec(), fast_spec("rtk-priority")]
        plain = run_batch(specs, workers=1)
        recorder = TelemetryRecorder()
        timed = run_batch(specs, workers=1, telemetry=recorder)
        assert canonical_json(timed.deterministic_document()) == (
            canonical_json(plain.deterministic_document())
        )
        assert len(recorder) > 0

    def test_parallel_batch_adopts_worker_spans(self):
        specs = [fast_spec(seed=seed) for seed in (1, 2)]
        recorder = TelemetryRecorder()
        run_batch(specs, workers=2, telemetry=recorder)
        runs = {span.get("run") for span in recorder.spans}
        assert {0, 1} <= runs
        assert {"run", "build"} <= {span["phase"] for span in recorder.spans}

    @pytest.mark.parametrize("path", ["serial", "pooled", "shard"])
    def test_every_run_span_carries_its_run_index(self, tmp_path, path):
        specs = [fast_spec(seed=seed) for seed in (1, 2, 3)]
        store = ResultStore(str(tmp_path / "cache"))
        recorder = TelemetryRecorder()
        for _pass in ("cold", "warm"):
            if path == "shard":
                run_shard(plan_shard(specs, 1, 0), str(tmp_path / "shard"),
                          store=store, telemetry=recorder)
            else:
                run_batch(specs, workers=1 if path == "serial" else 2,
                          store=store,
                          telemetry=recorder)
        phases = ("compose", "build", "run", "store", "lookup", "replay")
        spans = [span for span in recorder.spans if span["phase"] in phases]
        assert {span["phase"] for span in spans} == set(phases)
        assert {span.get("run") for span in spans} == {0, 1, 2}

    def test_cache_hit_records_lookup_and_replay(self, tmp_path):
        spec = fast_spec()
        store = ResultStore(str(tmp_path / "cache"))
        run_spec(spec, collect_events=False, store=store)
        recorder = TelemetryRecorder()
        hit = run_spec(spec, collect_events=False, store=store,
                       telemetry=recorder)
        assert hit.cached
        phases = [span["phase"] for span in recorder.spans]
        assert phases == ["lookup", "replay"]
