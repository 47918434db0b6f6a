"""Exact work counts per simulator layer: the ``BENCH_PR<n>.json`` record.

The paper's speed result (Table 2 S/R) rests on how much work the
simulator does per simulated second.  Wall clock measures that work only
through host noise; perfbench (``BENCHMARK.json``) owns the calibrated wall
clock.  This module records the work itself, as counts that a same-code
rerun reproduces exactly on any host:

* ``calls`` — Python calls per ``repro`` package, under ``cProfile``;
* ``events`` — events per ``topic/kind`` on the observability bus;
* the run counters ``delta_cycles``, ``timed_advances``,
  ``context_switches``, ``syscall_total`` and ``bus_accesses``.

Each scenario of :data:`SCENARIOS` runs once as a warm-up (caches, lazy
imports), once profiled and once with a :class:`CounterSink` on every
topic, the cyclic GC off.  ``python -m repro bench`` writes the report;
``bench compare`` (:mod:`repro.perf.compare`) lists every count that moved.
"""

from __future__ import annotations

import cProfile
import datetime
import gc
import json
import os
import platform
import pstats
import sys
from collections import Counter
from typing import Any, Dict, List

import repro

#: Schema identifier of the report document.
BENCH_SCHEMA = "repro-bench/2"

#: The PR this checkout's trajectory file belongs to; bumped by each PR that
#: records a new data point.
CURRENT_PR = 46

#: The fixed scenario set every report covers.
SCENARIOS = (
    "quickstart", "sync-tour", "synthetic-tkernel", "synthetic-rtk", "videogame",
)

#: Run counters copied from a run's metrics (``bus_accesses`` from the
#: workload's own metrics; 0 on platforms without a BFM).
RUN_COUNTERS = (
    "delta_cycles", "timed_advances", "context_switches", "syscall_total",
    "bus_accesses",
)

REPRO_DIR = os.path.dirname(repro.__file__) + os.sep


def default_report_path() -> str:
    """``BENCH_PR<n>.json`` at the source-tree root, whatever the cwd."""
    root = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", ".."))
    return os.path.join(root, f"BENCH_PR{CURRENT_PR}.json")


def profile_run(spec):
    """Run *spec* under ``cProfile``; return its result and the raw stats."""
    from repro.campaign.runner import run_spec

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = run_spec(spec, collect_events=False)
    finally:
        profiler.disable()
    return result, pstats.Stats(profiler).stats


def repro_calls(stats, package=""):
    """``file:function`` → call count of every repro function in *package*."""
    prefix = os.path.join(REPRO_DIR, package, "")
    counts = Counter()
    for (filename, _line, function), (_, calls, _, _, _) in stats.items():
        if filename.startswith(prefix):
            counts[f"{filename[len(REPRO_DIR):]}:{function}"] += calls
    return counts


def scenario_layers(name: str) -> Dict[str, Any]:
    """The ``layers`` entry of one scenario (see the module docstring)."""
    from repro.campaign.registry import get_scenario
    from repro.campaign.runner import run_spec
    from repro.obs.sinks import CounterSink

    spec = get_scenario(name)
    run_spec(spec, collect_events=False)  # warm-up: caches and lazy imports
    gc.collect()
    gc.disable()
    try:
        result, stats = profile_run(spec)
        counter = CounterSink()
        run_spec(spec, collect_events=False, sinks=[counter])
    finally:
        gc.enable()
    calls = Counter()
    for key, count in repro_calls(stats).items():
        # "core/simapi.py:fn" -> "core"; a top-level "_lazy.py:fn" -> "_lazy"
        calls[key.split(os.sep, 1)[0].split(".py:", 1)[0]] += count
    metrics = result.metrics
    entry = {"calls": dict(sorted(calls.items())), "events": counter.snapshot()}
    for key in RUN_COUNTERS[:-1]:
        entry[key] = int(metrics[key])
    entry["bus_accesses"] = (metrics["workload_metrics"] or {}).get(
        "bus_accesses", 0)
    return entry


def run_benchmarks() -> Dict[str, Any]:
    """Measure every scenario of :data:`SCENARIOS`; the report document."""
    return {
        "schema": BENCH_SCHEMA,
        "pr": CURRENT_PR,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "host": {
            "python": sys.version.split()[0],
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "machine": platform.machine(),
        },
        "layers": {name: scenario_layers(name) for name in SCENARIOS},
    }


def _is_count(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def validate_report(document: Dict[str, Any]) -> List[str]:
    """Schema-check a report document; returns a list of problems (empty=ok)."""
    problems: List[str] = []
    if document.get("schema") != BENCH_SCHEMA:
        problems.append(
            f"schema is {document.get('schema')!r}, expected {BENCH_SCHEMA!r}")
    layers = document.get("layers")
    if not isinstance(layers, dict) or set(layers) != set(SCENARIOS):
        return problems + [f"layers must cover exactly {list(SCENARIOS)}"]
    for name, entry in layers.items():
        for section in ("calls", "events"):
            counts = entry.get(section)
            if not isinstance(counts, dict) or not counts or not all(
                    _is_count(value) for value in counts.values()):
                problems.append(
                    f"layers.{name}.{section} must map names to counts")
        for key in RUN_COUNTERS:
            if not _is_count(entry.get(key)):
                problems.append(f"layers.{name}.{key} must be a count, "
                                f"got {entry.get(key)!r}")
    return problems


def write_report(document: Dict[str, Any], path: str) -> None:
    """Write a report document as stable, human-diffable JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def render_report(document: Dict[str, Any]) -> str:
    """A console summary: one row of totals per scenario."""
    from repro.analysis.report import format_table

    rows = [
        (name, f"{sum(entry['calls'].values()):,}",
         f"{sum(entry['events'].values()):,}",
         *(f"{entry[key]:,}" for key in RUN_COUNTERS))
        for name, entry in document["layers"].items()
    ]
    return format_table(
        ["scenario", "calls", "events", "delta cyc", "advances", "ctx sw",
         "syscalls", "bus acc"],
        rows,
        title=f"bench (PR {document['pr']}, schema {document['schema']})",
    )
