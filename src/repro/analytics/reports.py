"""Audit reports over a warm corpus: answers without re-simulating.

Every report here is a pure read of corpus index rows — the acceptance bar
(pinned by ``tests/analytics/test_reports.py`` with a poisoned
``build_scenario``) is that producing any report from a warm store executes
**zero simulations**, and none of them opens a stored artifact.

Reports:

* :func:`schedulability_audit` — per run: requested utilization of the
  generated periodic task set (Σ Cᵢ/Tᵢ), the Liu–Layland rate-monotonic
  bound n·(2^(1/n)−1), the measured CPU utilization, and a verdict.
* :func:`deadline_report` — per run: jobs and deadline misses of the
  generated periodic tasks (see
  :func:`repro.analytics.corpus.summarise_stream`), plus response-time
  percentiles.
* :func:`latency_report` — per run and aggregate: execution-slice duration
  percentiles.
* :func:`family_report` — per family: run counts and metric means, with
  optional delta columns against a baseline family (regression tables).

``repro index build`` computes each run's answers once, from one parse of
its task documents and one pass over its verified stored stream, into the
index's ``summaries`` rows.  The audit, deadline and latency reports are
each one SELECT over ``runs`` (for ``--where``, name and kernel) joined to
those rows, plus rounding: they parse no task document, rebuild no per-run
histogram and decode no stream.  The one other read is the latency
aggregate, a SQL ``GROUP BY`` over the ``buckets`` rows of the selected
runs.  Runs without a generated periodic task set are left out of the
deadline report.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.analytics.corpus import AnalyticsError, CorpusIndex
from repro.obs.sinks import StreamingHistogram

#: The ``runs`` columns each report row names its run by, with the value
#: a corpus without the column reads.
_RUN_COLUMNS = (("spec.name", ""), ("spec.kernel", ""))


def _no_summary(key: str) -> AnalyticsError:
    return AnalyticsError(
        f"run {key!r} has no stream summary: its stored stream "
        "is not a well-formed sched stream"
    )


# ----------------------------------------------------------------------
# Schedulability audit
# ----------------------------------------------------------------------
def rm_bound(task_count: int) -> float:
    """Liu–Layland rate-monotonic utilization bound for *task_count* tasks."""
    if task_count <= 0:
        return 0.0
    return task_count * (2.0 ** (1.0 / task_count) - 1.0)


def schedulability_audit(
    index: CorpusIndex, where: Sequence[str] = (),
) -> List[Dict[str, Any]]:
    """Per-run schedulability audit rows, sorted by run key."""
    audit: List[Dict[str, Any]] = []
    for key, name, kernel, measured, periodic, requested in index.answers(
        _RUN_COLUMNS + (("metrics.cpu_utilization", None),),
        ("periodic_tasks", "requested_utilization"), where,
    ):
        if requested is None:
            raise AnalyticsError(
                f"run {key!r} has a periodic task with period_ms 0")
        bound = rm_bound(periodic)
        if not periodic:
            verdict = "-"
        elif requested > 1.0:
            verdict = "overload"
        elif requested <= bound:
            verdict = "rm-bound-ok"
        else:
            verdict = "check"
        audit.append({
            "key": key,
            "name": name,
            "kernel": kernel,
            "periodic_tasks": periodic,
            "requested_utilization": round(requested, 6),
            "rm_bound": round(bound, 6),
            "measured_utilization": measured,
            "verdict": verdict,
        })
    return audit


# ----------------------------------------------------------------------
# Deadline misses
# ----------------------------------------------------------------------
def deadline_report(
    index: CorpusIndex, where: Sequence[str] = (),
) -> List[Dict[str, Any]]:
    """Per-run deadline-miss rows for generated periodic task sets.

    A job misses when it never completes within the stored horizon or
    completes after its deadline.
    """
    report: List[Dict[str, Any]] = []
    for key, name, kernel, periodic, jobs, misses, p50, p99 in index.answers(
        _RUN_COLUMNS,
        ("periodic_tasks", "jobs", "misses", "response_p50_ns",
         "response_p99_ns"),
        where,
    ):
        if not periodic:
            continue
        if jobs is None:
            raise _no_summary(key)
        report.append({
            "key": key,
            "name": name,
            "kernel": kernel,
            "jobs": jobs,
            "misses": misses,
            "miss_ratio": round(misses / jobs, 6) if jobs else 0.0,
            "response_p50_ms": round(p50 / 1e6, 6),
            "response_p99_ms": round(p99 / 1e6, 6),
        })
    return report


# ----------------------------------------------------------------------
# Latency distributions
# ----------------------------------------------------------------------
def _slice_percentiles_us(
    count: int, maximum: Optional[float], p50: float, p90: float, p99: float,
) -> Dict[str, Any]:
    return {
        "slices": count,
        "p50_us": round(p50 / 1e3, 3),
        "p90_us": round(p90 / 1e3, 3),
        "p99_us": round(p99 / 1e3, 3),
        "max_us": round((0.0 if maximum is None else maximum) / 1e3, 3),
    }


def latency_report(
    index: CorpusIndex, where: Sequence[str] = (),
) -> Dict[str, Any]:
    """Execution-slice duration percentiles per run plus an aggregate.

    The aggregate is the merge of the selected runs' exec-slice histograms:
    their counts, totals, extremes and summed bucket tallies — O(buckets)
    however large the sweep.
    """
    runs: List[Dict[str, Any]] = []
    slices = 0
    total = 0.0
    extremes: List[float] = []
    for (key, name, kernel, count, run_total, minimum, maximum,
         p50, p90, p99) in index.answers(
        _RUN_COLUMNS,
        ("slices", "slice_total_ns", "slice_min_ns", "slice_max_ns",
         "slice_p50_ns", "slice_p90_ns", "slice_p99_ns"),
        where,
    ):
        if count is None:
            raise _no_summary(key)
        slices += count
        total += run_total
        if count:
            extremes += (minimum, maximum)
        runs.append({"key": key, "name": name, "kernel": kernel,
                     **_slice_percentiles_us(count, maximum, p50, p90, p99)})
    overall = StreamingHistogram.from_state(
        slices, total, min(extremes, default=None),
        max(extremes, default=None), index.slice_buckets(where),
    ).snapshot()
    return {
        "runs": runs,
        "aggregate": _slice_percentiles_us(
            int(overall["count"]), overall["max"], overall["p50"],
            overall["p90"], overall["p99"]),
    }


# ----------------------------------------------------------------------
# Per-family regression tables
# ----------------------------------------------------------------------
#: Metrics a family table summarizes by default.
FAMILY_METRICS = (
    "metrics.context_switches", "metrics.preemptions",
    "metrics.cpu_utilization", "metrics.energy_mj",
)


def family_report(
    index: CorpusIndex,
    where: Sequence[str] = (),
    metrics: Sequence[str] = FAMILY_METRICS,
    baseline: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Per-family run counts and metric means, sorted by family name.

    Runs carrying a generated-family tag group under ``spec.extra.family``;
    anything else groups under its workload name.  With *baseline* set, each
    row gains ``delta.<metric>`` columns against the named family's means —
    the regression-table view.
    """
    group_column = (
        "spec.extra.family" if "spec.extra.family" in index.columns
        else "spec.workload"
    )
    wanted = [m for m in metrics if index.columns and m in index.columns]
    headers, rows = index.query(
        group_by=[group_column],
        aggregate=["count"] + [f"mean:{m}" for m in wanted],
        where=where,
    )
    documents: List[Dict[str, Any]] = []
    for row in rows:
        document: Dict[str, Any] = {"family": row[0], "runs": row[1]}
        for metric, value in zip(wanted, row[2:]):
            document[f"mean.{metric}"] = (
                round(value, 6) if isinstance(value, float) else value
            )
        documents.append(document)
    documents = [d for d in documents if d["family"] is not None]
    if baseline is not None:
        base = next(
            (d for d in documents if d["family"] == baseline), None
        )
        if base is None:
            known = ", ".join(str(d["family"]) for d in documents)
            raise AnalyticsError(
                f"baseline family {baseline!r} not in corpus (known: {known})"
            )
        for document in documents:
            for metric in wanted:
                mean_key = f"mean.{metric}"
                reference = base.get(mean_key)
                value = document.get(mean_key)
                if isinstance(reference, (int, float)) and isinstance(
                    value, (int, float)
                ):
                    document[f"delta.{metric}"] = round(value - reference, 6)
    return documents
