"""Execute one shard of a sweep and merge shard outputs back together.

A shard is a batch over its slice: :func:`run_shard` runs a
:class:`~repro.sweep.plan.ShardPlan`'s runs, under their *global* run
indices, through the sweep engine (:class:`~repro.sweep.engine.Sweep`) —
serially, since sharding itself is the parallelism.  Each run's ``sched``
events stream straight into its artifact file (bounded memory), named by
global index, so :func:`merge_shards` reassembles a sweep by pure file
collection.

Resumability comes from the result store, exactly as for a batch: hits
replay into their artifact files and every fresh run is stored as it
finishes, so a restarted shard simulates only the remainder and a second
pass over an untouched sweep executes zero simulations.

Each shard directory holds a ``shard.json`` document (schema
:data:`SHARD_SCHEMA`): the shard geometry, per-run deterministic metrics
documents keyed by global index, timing, and cache accounting.  The merge
validates the geometry (same shard count and sweep size everywhere, every
global index present exactly once), copies the per-run event streams and
writes ``metrics.json`` and ``aggregate.json`` through the batch's own
:func:`~repro.sweep.outputs.write_sweep_documents`, so ``aggregate.json``
is byte-identical to the batch's.  No run document is encoded twice: each
entry's ``run`` member is the run's ``metrics_json()`` text spliced in as
it is, and the merge takes that text back out to splice it again.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.campaign.metrics import RunResult, aggregate_metrics
from repro.grid.errors import GridError
from repro.obs.bus import canonical_json
from repro.sweep.engine import Sweep
from repro.sweep.envelope import ResiliencePolicy, write_failures
from repro.sweep.hooks import NULL_TELEMETRY
from repro.sweep.outputs import canonical_json_with, write_sweep_documents
from repro.sweep.plan import ShardPlan

#: Schema identifier of the ``shard.json`` document.
SHARD_SCHEMA = "repro-grid-shard/1"

#: Name of the per-shard metrics document inside a shard output directory.
SHARD_DOCUMENT = "shard.json"

_DECODER = json.JSONDecoder()
_SPACE = json.decoder.WHITESPACE

#: ``member(text, document, key, at)`` decodes the member value at *at*
#: into ``document[key]`` and returns the index past it.
Member = Callable[[str, Dict[str, Any], str, int], int]


def run_shard(
    plan: ShardPlan,
    out_dir: str,
    store: Optional[Any] = None,
    refresh: bool = False,
    telemetry: Any = NULL_TELEMETRY,
    policy: Optional[ResiliencePolicy] = None,
) -> Dict[str, Any]:
    """Execute *plan*, writing per-run event streams and ``shard.json``.

    Runs execute serially — sharding itself is the parallelism — so memory
    stays bounded and resume granularity is one run.  Returns the shard
    document.

    *telemetry* collects per-run phase spans tagged with the global run
    index; spans stay outside ``shard.json`` and every event stream (the
    caller writes them to a sidecar), so the shard artifacts remain
    byte-identical with or without instrumentation.

    Every run is enveloped by the sweep engine.  A failed run's partial
    event stream is deleted and it leaves no entry in ``shard.json`` (the
    merge's coverage reporting names the gap).  Under a *policy* that
    keeps going, the shard's failure records land in a ``failures.jsonl``
    sidecar next to the shard document (replacing one an earlier run left)
    and the document's ``failed`` count is non-zero; ``None`` is
    :meth:`~repro.sweep.envelope.ResiliencePolicy.strict`, which
    aborts the shard with :class:`~repro.sweep.errors.ResilienceAbort`.
    Failure data never enters ``shard.json`` or any event stream.
    """
    batch = Sweep(policy, store=store, refresh=refresh, telemetry=telemetry,
                  events_dir=out_dir).run(plan.runs, 1)
    sidecar = os.path.join(out_dir, "failures.jsonl")
    if batch.failures:
        write_failures(sidecar, batch.failures)
    elif os.path.exists(sidecar):
        os.remove(sidecar)
    entries = [{
        "index": index,
        "scenario": result.metrics["scenario"],
        "events": os.path.basename(events_path),
        "events_streamed": result.events_streamed,
        "cached": result.cached,
        "run": result.metrics_document(),
        "timing": result.timing,
    } for index, result, events_path in zip(batch.indices, batch.results,
                                            batch.event_paths)]
    document = {
        "schema": SHARD_SCHEMA,
        "shards": plan.shards,
        "index": plan.index,
        "total": plan.total,
        "executed": len(batch.results) - batch.cache_hits,
        "cached": batch.cache_hits,
        "failed": len(batch.outcomes) - len(batch.results),
        "runs": entries,
    }
    runs = ",".join(canonical_json_with(entry, "run", result.metrics_json())
                    for entry, result in zip(entries, batch.results))
    with open(os.path.join(out_dir, SHARD_DOCUMENT), "w", encoding="utf-8") as handle:
        handle.write(canonical_json_with(document, "runs", f"[{runs}]"))
        handle.write("\n")
    return document


# ----------------------------------------------------------------------
# Merge
# ----------------------------------------------------------------------
def _decode_value(text: str, document: Dict[str, Any], key: str,
                  at: int) -> int:
    document[key], end = _DECODER.raw_decode(text, at)
    return end


def _decode_run_member(text: str, entry: Dict[str, Any], key: str,
                       at: int) -> int:
    """A run entry's member; the ``run`` member's text is kept as
    ``run_text`` when it sits where canonical JSON puts it, right after
    the entry's ``index`` member."""
    end = _decode_value(text, entry, key, at)
    if key == "run" and text.endswith(
            f'"index":{entry.get("index")},"run":', 0, at):
        entry["run_text"] = text[at:end]
    return end


def _decode_shard_member(text: str, document: Dict[str, Any], key: str,
                         at: int) -> int:
    if key != "runs" or not text.startswith("[", at):
        return _decode_value(text, document, key, at)
    runs: List[Any] = []
    document[key] = runs
    at = _SPACE.match(text, at + 1).end()
    if text.startswith("]", at):
        return at + 1
    while True:
        if text.startswith("{", at):
            entry, at = _decode_object(text, at, _decode_run_member)
        else:
            entry, at = _DECODER.raw_decode(text, at)
        runs.append(entry)
        at = _SPACE.match(text, at).end()
        if text.startswith("]", at):
            return at + 1
        if not text.startswith(",", at):
            raise json.JSONDecodeError("Expecting ',' delimiter", text, at)
        at = _SPACE.match(text, at + 1).end()


def _decode_object(text: str, at: int,
                   member: Member) -> Tuple[Dict[str, Any], int]:
    """The JSON object at ``text[at]``, decoded one member at a time by
    *member*, and the index past it.  Raises ``json.JSONDecodeError``."""
    document: Dict[str, Any] = {}
    at = _SPACE.match(text, at + 1).end()
    if text.startswith("}", at):
        return document, at + 1
    while True:
        if not text.startswith('"', at):
            raise json.JSONDecodeError(
                "Expecting property name enclosed in double quotes", text, at)
        key, at = _DECODER.raw_decode(text, at)
        at = _SPACE.match(text, at).end()
        if not text.startswith(":", at):
            raise json.JSONDecodeError("Expecting ':' delimiter", text, at)
        at = member(text, document, key, _SPACE.match(text, at + 1).end())
        at = _SPACE.match(text, at).end()
        if text.startswith("}", at):
            return document, at + 1
        if not text.startswith(",", at):
            raise json.JSONDecodeError("Expecting ',' delimiter", text, at)
        at = _SPACE.match(text, at + 1).end()


def _load_shard_document(shard_dir: str) -> Dict[str, Any]:
    """Read and structurally validate one shard's ``shard.json``.

    Each run entry gains ``run_text``, the source text of its ``run``
    member, which the merge splices into its outputs as it is.  The
    document is decoded member by member, so each run document is decoded
    once, by the same decode that finds its text.
    """
    path = os.path.join(shard_dir, SHARD_DOCUMENT)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        at = _SPACE.match(text).end()
        if text.startswith("{", at):
            document, at = _decode_object(text, at, _decode_shard_member)
        else:
            document, at = _DECODER.raw_decode(text, at)
        if _SPACE.match(text, at).end() != len(text):
            raise json.JSONDecodeError("Extra data", text, at)
    except OSError as error:
        raise GridError(f"cannot read shard metrics file {path!r}: {error}") from None
    except json.JSONDecodeError as error:
        raise GridError(f"corrupt shard metrics file {path!r}: {error}") from None
    if not isinstance(document, dict) or document.get("schema") != SHARD_SCHEMA:
        raise GridError(
            f"{path!r} is not a shard metrics document "
            f"(expected schema {SHARD_SCHEMA!r})"
        )
    for key in ("shards", "index", "total", "runs"):
        if key not in document:
            raise GridError(f"shard metrics file {path!r} is missing {key!r}")
    runs = document["runs"]
    if not isinstance(runs, list) or not all(
            isinstance(entry, dict) and type(entry.get("index")) is int
            for entry in runs):
        raise GridError(f"shard metrics file {path!r} has malformed runs "
                        f"(expected a list of objects with an integer "
                        f"'index')")
    for entry in runs:
        if "run_text" not in entry:
            raise GridError(f"shard metrics file {path!r} is not canonical "
                            f"JSON (run {entry['index']})")
    return document


#: Schema identifier of the ``coverage.json`` gap manifest.
COVERAGE_SCHEMA = "repro-coverage/1"


def merge_shards(
    shard_dirs: Sequence[str],
    out_dir: str,
    include_events: bool = True,
    telemetry: Any = NULL_TELEMETRY,
    allow_partial: bool = False,
) -> Dict[str, Any]:
    """Reassemble shard outputs into the single-host batch artifact set.

    Validates that the shard documents describe one sweep (identical shard
    count and total), that every global run index of the sweep is present
    exactly once, and that every referenced event stream exists — any
    violation raises :class:`GridError` with a one-line message naming
    exactly which global run indices and which shard indices are absent.
    Writes ``metrics.json``, ``aggregate.json`` and the per-run event
    streams into *out_dir*; ``aggregate.json`` is byte-identical to the
    one a single-host ``repro batch`` over the same matrix writes.

    *allow_partial* degrades gracefully instead: whatever runs exist are
    merged (the aggregate covers exactly those), and a machine-readable
    ``coverage.json`` gap manifest (schema :data:`COVERAGE_SCHEMA`) records
    the missing run indices and absent shards.  A full sweep merged with
    ``allow_partial=True`` writes the identical ``aggregate.json`` plus a
    gap-free manifest.

    *telemetry* records the merge as one ``merge`` span; the written
    artifacts are identical with or without it.
    """
    merge_start = time.perf_counter()
    if not shard_dirs:
        raise GridError("no shard directories to merge")
    documents = []
    unreadable_dirs: List[str] = []
    unreadable_reasons: List[str] = []
    for shard_dir in shard_dirs:
        # A named dir whose shard.json is missing or corrupt is an absent
        # shard: fold it into the precise gap report below instead of
        # dying on the first bad directory.
        try:
            documents.append((shard_dir, _load_shard_document(shard_dir)))
        except GridError as error:
            unreadable_dirs.append(shard_dir)
            unreadable_reasons.append(str(error))
    if not documents:
        raise GridError(
            "none of the shard directories contain a readable shard "
            "document: " + "; ".join(unreadable_reasons)
        )

    shards = documents[0][1]["shards"]
    total = documents[0][1]["total"]
    for shard_dir, document in documents:
        if document["shards"] != shards or document["total"] != total:
            raise GridError(
                f"shard geometry mismatch: {shard_dir!r} describes "
                f"{document['shards']} shard(s) over {document['total']} runs, "
                f"expected {shards} over {total}"
            )

    by_index: Dict[int, Tuple[str, Dict[str, Any]]] = {}
    for shard_dir, document in documents:
        for entry in document["runs"]:
            index = entry["index"]
            if index in by_index:
                raise GridError(
                    f"run index {index} appears in both "
                    f"{by_index[index][0]!r} and {shard_dir!r}"
                )
            by_index[index] = (shard_dir, entry)
    missing = [index for index in range(total) if index not in by_index]
    present_shards = sorted({document["index"] for _, document in documents})
    absent_shards = sorted(set(range(shards)) - set(present_shards))
    if missing and not allow_partial:
        absent = (f"; absent shard(s): {absent_shards}"
                  if absent_shards else "")
        bad_dirs = (f"; unreadable shard dir(s): {unreadable_dirs}"
                    if unreadable_dirs else "")
        raise GridError(
            f"sweep is incomplete: missing run indices {missing} "
            f"({len(by_index)} of {total} runs present{absent}{bad_dirs}) — "
            f"merge every shard or pass --allow-partial"
        )
    if unreadable_dirs and not allow_partial:
        raise GridError(
            f"unreadable shard dir(s): {unreadable_dirs} — every run is "
            "covered elsewhere, but a named shard directory holds no "
            "readable shard document"
        )

    os.makedirs(out_dir, exist_ok=True)
    ordered = [by_index[index] for index in sorted(by_index)]
    unreadable: List[int] = []
    event_paths: List[str] = []
    if include_events:
        kept: List[Tuple[str, Dict[str, Any]]] = []
        for shard_dir, entry in ordered:
            source = os.path.join(shard_dir, entry["events"])
            if not os.path.isfile(source):
                if allow_partial:
                    # The run's metrics exist but its stream is gone —
                    # drop it entirely so the merged artifact set stays
                    # self-consistent, and report it as a gap.
                    unreadable.append(entry["index"])
                    continue
                raise GridError(f"missing event stream {source!r}")
            destination = os.path.join(out_dir, entry["events"])
            if os.path.abspath(source) != os.path.abspath(destination):
                shutil.copyfile(source, destination)
            event_paths.append(destination)
            kept.append((shard_dir, entry))
        if allow_partial:
            ordered = kept

    runs = [RunResult(spec=entry["run"]["spec"],
                      metrics=entry["run"]["metrics"],
                      metrics_json=entry["run_text"])
            for _, entry in ordered]
    timing = {
        "shards": shards,
        "executed": sum(doc["executed"] for _, doc in documents),
        "cached": sum(doc["cached"] for _, doc in documents),
        "per_run": [entry["timing"] for _, entry in ordered],
    }
    metrics_path, aggregate_path = write_sweep_documents(
        out_dir, runs, aggregate_metrics(run.metrics for run in runs), timing)

    all_missing = sorted(set(missing) | set(unreadable))
    coverage_path: Optional[str] = None
    if allow_partial:
        coverage = {
            "schema": COVERAGE_SCHEMA,
            "total": total,
            "shards": shards,
            "merged": len(runs),
            "merged_indices": [entry["index"] for _, entry in ordered],
            "missing_indices": all_missing,
            "present_shards": present_shards,
            "absent_shards": absent_shards,
        }
        coverage_path = os.path.join(out_dir, "coverage.json")
        with open(coverage_path, "w", encoding="utf-8") as handle:
            handle.write(canonical_json(coverage))
            handle.write("\n")

    telemetry.record(
        "merge", time.perf_counter() - merge_start,
        shards=shards, runs=total,
    )
    return {
        "metrics": metrics_path,
        "aggregate": aggregate_path,
        "events": event_paths,
        "runs": total,
        "merged": len(runs),
        "missing": all_missing,
        "coverage": coverage_path,
        "shards": shards,
    }
