"""Pipeline telemetry: span-based phase timing for sweeps.

Where does a 10^5-run sweep's wall time go — composing specs, building
scenarios, simulating, hashing artifacts into the store, merging shards?
This module answers that with *spans*: one record per pipeline phase
(``compose``, ``build``, ``run``, ``store``, ``lookup``, ``replay``,
``plan``, ``merge``) carrying the phase name, its wall-clock duration in
host seconds and free-form metadata (scenario name, run index, shard).

Spans reach a :class:`TelemetryRecorder` one way: the campaign, grid and
sweep layers hold the recorder and call :meth:`~TelemetryRecorder.span` /
:meth:`~TelemetryRecorder.record` on it (a pool worker's spans are
adopted by the sweep's recorder).  Spans never travel over the
observability bus.  The recorder summarizes per phase and writes a
sidecar ``telemetry.jsonl``.  Un-instrumented sweeps hold
:data:`repro.sweep.hooks.NULL_TELEMETRY` instead, whose spans and records
do nothing, so every pipeline phase has one code path.

Contract — telemetry is wall-clock data and therefore **never
deterministic**: it must not enter spec hashes, stored result-store
artifacts, aggregate documents or golden streams.  It lives only in
sidecar files beside the outputs and in ``--telemetry`` CLI summaries.
``tests/analytics/test_telemetry.py`` pins this: a run with telemetry
enabled produces byte-identical stored artifacts to one without.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Dict, IO, Iterable, Iterator, List, Mapping, Union

from repro.grid.errors import GridError
from repro.obs.bus import canonical_json
from repro.obs.sinks import _open_target

#: Schema identifier written into every telemetry sidecar line.
TELEMETRY_SCHEMA = "repro-telemetry/1"


class TelemetryRecorder:
    """Collects pipeline phase spans as plain span dicts.

    The layers that time a phase hold the recorder and call
    :meth:`record`/:meth:`span` on it.
    """

    #: Whether spans are kept.
    enabled = True

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []

    # -- collection --------------------------------------------------------
    def record(self, phase: str, seconds: float, **meta: Any) -> None:
        """Append one span: *phase* took *seconds* of host wall clock."""
        span: Dict[str, Any] = {"phase": phase, "seconds": float(seconds)}
        for key in sorted(meta):
            span[key] = meta[key]
        self.spans.append(span)

    @contextmanager
    def span(self, phase: str, **meta: Any) -> Iterator[None]:
        """Time a ``with`` block as one *phase* span (recorded even on error)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(phase, time.perf_counter() - start, **meta)

    def adopt(self, spans: Iterable[Mapping[str, Any]], **extra_meta: Any) -> None:
        """Fold spans recorded elsewhere (e.g. a worker process) into this
        recorder, tagging each with *extra_meta* (e.g. the run index)."""
        for span in spans:
            payload = dict(span)
            phase = payload.pop("phase", "?")
            seconds = payload.pop("seconds", 0.0)
            payload.update(extra_meta)
            self.record(phase, seconds, **payload)

    # -- summarization -----------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, Any]]:
        """Per-phase rollup: span count, total and mean seconds, sorted."""
        rollup: Dict[str, Dict[str, Any]] = {}
        for span in self.spans:
            phase = rollup.setdefault(
                span["phase"], {"spans": 0, "total_seconds": 0.0}
            )
            phase["spans"] += 1
            phase["total_seconds"] += span["seconds"]
        for phase in rollup.values():
            phase["mean_seconds"] = phase["total_seconds"] / phase["spans"]
        return {name: rollup[name] for name in sorted(rollup)}

    # -- sidecar i/o -------------------------------------------------------
    def write_jsonl(self, target: "Union[str, IO[str]]") -> int:
        """Write the spans as a JSONL sidecar; returns lines written.

        The first line is a schema header; each span follows as one
        canonical-JSON line.  The sidecar sits *beside* outputs, never
        inside a store entry or aggregate document.
        """
        stream, owns_stream = _open_target(target)
        lines = 0
        try:
            stream.write(canonical_json({"schema": TELEMETRY_SCHEMA}) + "\n")
            lines += 1
            for span in self.spans:
                stream.write(canonical_json(span) + "\n")
                lines += 1
            stream.flush()
        finally:
            if owns_stream:
                stream.close()
        return lines

    def __len__(self) -> int:
        return len(self.spans)


def load_telemetry(path: str) -> List[Dict[str, Any]]:
    """Read a ``telemetry.jsonl`` sidecar back into a list of span dicts.

    Every non-blank line must be the schema header or a span: a JSON
    object with a string ``phase`` and numeric ``seconds``.  Anything else
    raises :class:`~repro.grid.errors.GridError` naming the line.
    """
    spans: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                document = json.loads(line)
            except ValueError as error:
                raise GridError(
                    f"{path!r} line {number} is not JSON: {error}"
                ) from None
            if isinstance(document, dict) and \
                    document.get("schema") == TELEMETRY_SCHEMA:
                continue
            if not _is_span(document):
                raise GridError(
                    f"{path!r} line {number} is not a telemetry span "
                    "(a JSON object with a string phase and numeric seconds)"
                )
            spans.append(document)
    return spans


def _is_span(document: Any) -> bool:
    if not isinstance(document, dict):
        return False
    seconds = document.get("seconds")
    return (isinstance(document.get("phase"), str)
            and isinstance(seconds, (int, float))
            and not isinstance(seconds, bool))


def format_telemetry_summary(
    summary: Mapping[str, Mapping[str, Any]],
    title: str = "pipeline telemetry",
) -> str:
    """Render a :meth:`TelemetryRecorder.summary` rollup as a text table."""
    from repro.analysis.report import format_table

    rows = [
        (
            phase,
            stats["spans"],
            f"{stats['total_seconds']:.4f}",
            f"{stats['mean_seconds'] * 1000:.3f}",
        )
        for phase, stats in summary.items()
    ]
    return format_table(
        ["phase", "spans", "total_s", "mean_ms"], rows, title=title
    )


def summarize_spans(
    spans: Iterable[Mapping[str, Any]],
) -> Dict[str, Dict[str, Any]]:
    """Per-phase rollup of loose span dicts (e.g. loaded from a sidecar)."""
    recorder = TelemetryRecorder()
    recorder.adopt(spans)
    return recorder.summary()
