"""What a sweep leaves behind: artifact names, documents, the batch result.

The *deterministic* part of a sweep's output is identical however it ran
— in-process, pooled, from the store or sharded and merged: runs keep
their expansion order, each run's seed is derived from the batch's base
seed and the run index, and host wall-clock numbers live in a separate
``timing`` section that aggregation ignores.

A sweep with an events directory streams each run's JSONL event stream
to ``events_NNN_<scenario>.jsonl`` there (:func:`run_events_filename`)
while it runs; :meth:`BatchResult.write_outputs` writes the two documents
after it:

* ``metrics.json`` — the aggregated metrics document (per-run deterministic
  metrics, aggregate totals/means, and the non-deterministic timing block),
* ``aggregate.json`` — the deterministic document alone, in canonical JSON:
  the artifact that is byte-identical across serial, parallel, cached and
  sharded executions of the same sweep.

Both documents are assembled by :func:`write_sweep_documents`, the one
writer a shard merge (:func:`repro.sweep.shard.merge_shards`) shares.  It
never encodes the decoded sweep document: each run contributes its
canonical ``metrics_json()`` text — for a store hit the verified bytes of
the entry's metrics section, for a fresh run the text it encoded once
and shared with ``store.put`` — and the assembler joins those texts with
the encoded ``aggregate`` and ``campaign`` members in canonical key
order.  The result is byte for byte ``canonical_json(sweep_document(...))``.
Each file is written whole through
:func:`~repro.campaign.metrics.write_whole_file`: a re-run into the same
output directory rewrites the existing files in place, without first
truncating them to zero.
"""

from __future__ import annotations

import os
import re
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.campaign.metrics import (
    RunResult,
    aggregate_metrics,
    canonical_json,
    write_whole_file,
)
from repro.sweep.envelope import FailureRecord

#: Runs of characters an artifact name does not keep from a scenario name.
_UNSAFE_NAME = re.compile(r"[^A-Za-z0-9_.-]+")


def run_events_filename(index: int, scenario: str) -> str:
    """The canonical per-run events artifact name for global run *index*.

    Shared by the batch writer and the shard executor so a merged sharded
    sweep reproduces a single-host batch's artifact names exactly.
    """
    slug = _UNSAFE_NAME.sub("-", scenario).strip("-") or "run"
    return f"events_{index:03d}_{slug}.jsonl"


def run_events_path(events_dir: Optional[str], index: int,
                    scenario: str) -> Optional[str]:
    """Run *index*'s events artifact in *events_dir* (``None`` without one)."""
    if events_dir is None:
        return None
    return os.path.join(events_dir, run_events_filename(index, scenario))


def canonical_json_with(document: Mapping[str, Any], key: str,
                        text: str) -> str:
    """``canonical_json`` of *document* with member *key* set to *text*,
    a canonical JSON text spliced in as it is (*document*'s own *key*, if
    any, is ignored).

    ``canonical_json`` sorts keys, so the members sorting before *key* and
    those sorting after it encode as two documents whose braces the splice
    drops.
    """
    before = canonical_json({k: v for k, v in document.items() if k < key})
    after = canonical_json({k: v for k, v in document.items() if k > key})
    members = (before[1:-1], f"{canonical_json(key)}:{text}", after[1:-1])
    return "{" + ",".join(member for member in members if member) + "}"


def sweep_document(
    runs: Sequence[Mapping[str, Any]], aggregate: Dict[str, Any]
) -> Dict[str, Any]:
    """The deterministic document of a sweep, given its runs' metrics
    documents in run-index order and their
    :func:`~repro.campaign.metrics.aggregate_metrics`."""
    return {
        "campaign": {
            "runs": len(runs),
            "scenarios": [run["metrics"]["scenario"] for run in runs],
        },
        "runs": list(runs),
        "aggregate": aggregate,
    }


def write_sweep_documents(
    out_dir: str,
    results: Sequence[RunResult],
    aggregate: Dict[str, Any],
    timing: Mapping[str, Any],
) -> Tuple[str, str]:
    """Write ``aggregate.json`` (:func:`sweep_document` in canonical JSON)
    and ``metrics.json`` (that plus the host *timing*) into *out_dir*;
    returns their paths.  Batch and shard merge both write through here.

    *results* are the runs in run-index order and *aggregate* their
    :func:`~repro.campaign.metrics.aggregate_metrics`.  Each run's
    document is its ``metrics_json()`` text, spliced in as it is.
    """
    # Each run's text is its own canonical encoding, so the spliced string
    # is canonical_json(sweep_document(...)).  "timing" sorts after every
    # other key, so metrics.json is that encoding with the timing member
    # spliced in before the closing brace.
    campaign = {
        "runs": len(results),
        "scenarios": [result.metrics["scenario"] for result in results],
    }
    deterministic = canonical_json_with(
        {"aggregate": aggregate, "campaign": campaign}, "runs",
        f'[{",".join(result.metrics_json() for result in results)}]')
    metrics_path = os.path.join(out_dir, "metrics.json")
    write_whole_file(metrics_path, (
        f'{deterministic[:-1]},"timing":{canonical_json(timing)}}}\n'
    ).encode("utf-8"))
    aggregate_path = os.path.join(out_dir, "aggregate.json")
    write_whole_file(aggregate_path, f"{deterministic}\n".encode("utf-8"))
    return metrics_path, aggregate_path


class BatchResult:
    """The outcome of one sweep: ordered run results plus the aggregate.

    A sweep whose policy keeps going past failures may complete
    *partially*: ``results`` then holds only the successful runs,
    ``indices`` their global run indices (so artifact names keep the
    planned numbering), ``outcomes`` one summary document per requested
    run and ``failures`` the per-attempt :class:`FailureRecord` list bound
    for the ``failures.jsonl`` sidecar.  The aggregate is always computed
    over the successes alone — failure data never enters a deterministic
    artifact.  ``event_paths`` are the files the sweep streamed each
    result's events to, in ``results`` order, and empty when it kept none.
    """

    __slots__ = ("results", "workers", "indices", "outcomes", "failures",
                 "event_paths", "aggregate")

    def __init__(self, results: List[RunResult], workers: int,
                 indices: List[int], outcomes: List[Dict[str, Any]],
                 failures: List[FailureRecord],
                 event_paths: Sequence[str] = ()):
        self.results = results
        self.workers = workers
        self.indices = indices
        self.outcomes = outcomes
        self.failures = failures
        self.event_paths = list(event_paths)
        self.aggregate = aggregate_metrics(r.metrics for r in results)

    @property
    def cache_hits(self) -> int:
        """Runs served from the grid result store instead of simulated."""
        return sum(1 for result in self.results if result.cached)

    @property
    def quarantined(self) -> List[FailureRecord]:
        """The failure records of runs that exhausted their attempts."""
        return [record for record in self.failures if record.quarantined]

    def deterministic_document(self) -> Dict[str, Any]:
        """The part of the batch output that must not depend on the host,
        the worker count or the execution order."""
        return sweep_document(
            [result.metrics_document() for result in self.results],
            self.aggregate,
        )

    def document(self) -> Dict[str, Any]:
        """The full aggregated metrics document (adds the timing section)."""
        document = self.deterministic_document()
        document["timing"] = self._timing_section()
        return document

    def _timing_section(self) -> Dict[str, Any]:
        return {
            "workers": self.workers,
            "wall_clock_seconds_total": sum(
                result.timing.get("wall_clock_seconds", 0.0)
                for result in self.results
            ),
            "per_run": [result.timing for result in self.results],
        }

    def write_outputs(self, out_dir: str) -> Dict[str, Any]:
        """Write ``metrics.json`` and ``aggregate.json`` into *out_dir*.

        Returns a manifest: the metrics/aggregate paths and the per-run
        event paths the sweep streamed (none without an events
        directory).  ``aggregate.json`` holds the deterministic document in
        canonical JSON — the byte-identity artifact the sharded sweep's
        merge reproduces.
        """
        os.makedirs(out_dir, exist_ok=True)
        metrics_path, aggregate_path = write_sweep_documents(
            out_dir, self.results, self.aggregate, self._timing_section(),
        )
        return {
            "metrics": metrics_path,
            "aggregate": aggregate_path,
            "events": list(self.event_paths),
        }
