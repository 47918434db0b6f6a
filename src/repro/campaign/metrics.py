"""Run results: the structured output of one campaign run.

A :class:`RunResult` separates what a run produced into three layers:

* ``metrics`` — deterministic simulation metrics (context switches,
  preemptions, syscall counts, CPU utilisation, energy, ...).  Running the
  same spec with the same seed twice yields byte-identical metrics JSON,
  which the determinism tests assert.
* ``timing`` — host-side wall-clock measurements (R, R/S, S/R — the Table 2
  speed measure).  These vary run to run and are therefore kept out of the
  deterministic section and out of aggregate comparisons.
* ``events_jsonl`` — the run's event stream (dispatches, preemptions,
  interrupts and execution slices) as canonical JSON Lines bytes.

The stream has one form: the bytes the streaming encoder
(:class:`~repro.obs.sinks.JsonlStreamSink`) wrote while the run executed,
or the verified bytes of the result-store entry a hit replayed.  Nothing
re-encodes them: the store files them as they are, and ``events`` is a
read-only view that decodes them only when something reads it.

The run document (``{"spec", "metrics"}``) has one form too: the text
:meth:`RunResult.metrics_json` returns, a store hit's verified metrics
section or, for a fresh run, encoded once and shared by
``store.put`` and the sweep's ``aggregate.json``.
"""

from __future__ import annotations

import os
import stat
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.obs.bus import canonical_json  # re-exported; single encoder


class RunResult:
    """Everything one campaign run produced.

    ``events_streamed`` counts events a live JSONL stream wrote during the
    run (bounded-memory mode; the result then holds no stream).  ``cached``
    marks a result replayed from the grid result store instead of
    simulated; it is never part of the deterministic document — a cached
    replay is byte-identical to the fresh run it stands in for.
    *metrics_json* is the canonical text of the run document when the
    caller holds it already (a store hit).
    """

    __slots__ = ("spec", "metrics", "timing", "events_streamed", "cached",
                 "_events_jsonl", "_events", "_metrics_json")

    def __init__(
        self,
        spec: Dict[str, Any],
        metrics: Dict[str, Any],
        timing: Optional[Dict[str, Any]] = None,
        events_jsonl: bytes = b"",
        events_streamed: int = 0,
        cached: bool = False,
        metrics_json: Optional[str] = None,
    ):
        self.spec = spec
        self.metrics = metrics
        self.timing = {} if timing is None else timing
        self.events_streamed = events_streamed
        self.cached = cached
        self._events_jsonl = events_jsonl
        self._events: Optional[List[Dict[str, Any]]] = None
        self._metrics_json = metrics_json

    @property
    def events_jsonl(self) -> bytes:
        """The canonical JSONL bytes of the event stream."""
        return self._events_jsonl

    @property
    def events(self) -> List[Dict[str, Any]]:
        """The event stream as JSON documents, decoded on first access."""
        if self._events is None:
            from repro.obs.replay import decode_stored_jsonl

            self._events = list(decode_stored_jsonl(self._events_jsonl))
        return self._events

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def metrics_document(self) -> Dict[str, Any]:
        """The deterministic metrics document (spec + metrics)."""
        return {"spec": self.spec, "metrics": self.metrics}

    def metrics_json(self) -> str:
        """Canonical (byte-stable) JSON of the deterministic metrics,
        encoded on first use and shared from then on."""
        if self._metrics_json is None:
            self._metrics_json = canonical_json(self.metrics_document())
        return self._metrics_json

    def write_metrics(self, path: str) -> None:
        """Write the metrics document, with timing as a separate section."""
        # "timing" sorts after "metrics" and "spec": the canonical document
        # is the run's text with the timing member before the closing brace.
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f'{self.metrics_json()[:-1]},'
                         f'"timing":{canonical_json(self.timing)}}}\n')


def write_whole_file(path: str, blob: bytes) -> None:
    """Make the file at *path* hold exactly *blob*, rewriting it in place.

    The file is opened without ``O_TRUNC``, written, then truncated to
    ``len(blob)`` — also when the write fails, so no longer old tail
    survives.  Truncating to zero first makes a file system such as ext4
    (``auto_da_alloc``) reallocate the blocks and write them back at
    close; re-runs into one output directory rewrite hundreds of files
    of unchanged length, so in place is several times cheaper.  A device
    or pipe target is written and has no length to set.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(blob)
        while view:
            view = view[os.write(fd, view):]
    finally:
        try:
            os.ftruncate(fd, len(blob))
        except OSError:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                raise
        finally:
            os.close(fd)


# ----------------------------------------------------------------------
# Aggregation & comparison
# ----------------------------------------------------------------------
#: Exact types that are neither numbers nor mappings (``bool`` has no
#: subclasses, so it is excluded here entirely).
_NOT_NUMERIC = frozenset((bool, str, list, type(None)))


def _collect_numeric(document: Mapping[str, Any], prefix: str,
                     flat: Dict[str, Any]) -> None:
    """Set ``flat[<dotted key>]`` for each numeric leaf of *document*.

    The one walk over a metrics document.  Leaves are visited in document
    order, so where two paths flatten to one dotted key the later leaf
    wins.  A leaf of exact type ``int`` or ``float`` is stored as it is
    (adding it to a float sum is adding its ``float()``); any other
    number is stored as its ``float()``.
    """
    for key, value in document.items():
        # Decoded JSON holds values of exact types: sort those out before
        # the ABC checks, each of which costs a typing-machinery call.
        kind = type(value)
        if kind is int or kind is float:
            flat[f"{prefix}{key}"] = value
        elif kind is dict:
            _collect_numeric(value, f"{prefix}{key}.", flat)
        elif kind in _NOT_NUMERIC:
            continue
        elif isinstance(value, (int, float)):
            flat[f"{prefix}{key}"] = float(value)
        elif isinstance(value, Mapping):
            _collect_numeric(value, f"{prefix}{key}.", flat)


def flatten_numeric(document: Mapping[str, Any], prefix: str = "") -> Dict[str, float]:
    """Flatten nested dicts to dotted keys, keeping numeric leaves only."""
    flat: Dict[str, Any] = {}
    _collect_numeric(document, prefix, flat)
    return {key: float(value) for key, value in flat.items()}


def aggregate_metrics(results: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Sum and average the numeric metrics over a batch of runs.

    *results* are per-run ``metrics`` dicts.  Keys missing from some runs
    contribute only to the runs that have them (means divide by occurrence
    count, not by batch size), so heterogeneous scenario mixes aggregate
    sensibly.  Each run is walked once into one flat dict, whose leaves
    are added straight into the sums.
    """
    totals: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    run_count = 0
    flat: Dict[str, Any] = {}
    for metrics in results:
        run_count += 1
        flat.clear()
        _collect_numeric(metrics, "", flat)
        for key, value in flat.items():
            totals[key] = totals.get(key, 0.0) + value
            counts[key] = counts.get(key, 0) + 1
    means = {key: totals[key] / counts[key] for key in totals}
    return {
        "runs": run_count,
        "total": {key: totals[key] for key in sorted(totals)},
        "mean": {key: means[key] for key in sorted(means)},
    }


def compare_metrics(
    left: Mapping[str, Any], right: Mapping[str, Any]
) -> List[Tuple[str, Any, Any, Any]]:
    """Align two metrics documents key by key.

    Returns rows ``(key, left_value, right_value, delta)`` over the union of
    flattened numeric keys; a key missing on one side renders as an empty
    cell and an empty delta.
    """
    flat_left = flatten_numeric(left)
    flat_right = flatten_numeric(right)
    rows: List[Tuple[str, Any, Any, Any]] = []
    for key in sorted(set(flat_left) | set(flat_right)):
        left_value = flat_left.get(key)
        right_value = flat_right.get(key)
        if left_value is None or right_value is None:
            delta: Any = ""
        else:
            delta = right_value - left_value
        rows.append(
            (
                key,
                "" if left_value is None else _trim(left_value),
                "" if right_value is None else _trim(right_value),
                _trim(delta) if delta != "" else "",
            )
        )
    return rows


def _trim(value: float) -> Any:
    """Render integral floats as ints for compact tables."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, float):
        return round(value, 6)
    return value
