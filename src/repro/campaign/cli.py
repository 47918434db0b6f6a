"""``python -m repro`` — the campaign command line.

Subcommands make the campaign + grid subsystems usable without writing code:

* ``list`` — show the built-in scenario registry (``--json`` for tooling),
* ``describe`` — print a scenario's composed platform/kernel/workload
  parts with every parameter resolved, as canonical JSON,
* ``run`` — execute one scenario (registry name or ``--spec file.json``),
  with ``--set key=value`` knob overrides,
* ``batch`` — expand a parameter matrix over one or more scenarios (and/or a
  ``--spec-dir`` of spec documents, and/or ``--family`` workload-family
  documents) and run it in-process or across a process pool,
* ``shard plan|run|merge`` — deterministically partition the expanded
  matrix over N independent workers, execute one shard (streaming,
  resumable from the result store), and reassemble shard outputs into the
  exact single-host batch artifact set,
* ``cache stats|gc|clear|verify`` — inspect and maintain the grid result
  store (``verify --repair`` quarantines entries failing integrity checks),
* ``index build|status`` — (re)build and inspect the analytics corpus index
  over a warm result store (a sqlite view: spec knobs × metrics per run),
* ``query`` — filter/group/aggregate the corpus (table or canonical JSON),
* ``report audit|deadlines|latency|family|telemetry`` — schedulability
  audits, deadline-miss and latency distributions, per-family regression
  tables (all zero-simulation over a warm store) and telemetry summaries,
* ``compare`` — align two metrics JSON files key by key,
* ``bench`` — exact work counts per simulator layer (calls per package,
  events per topic, run counters) of a fixed scenario set, written to the
  ``BENCH_PR<n>.json`` trajectory file; ``bench compare OLD NEW`` lists
  every count that moved and exits 1 if any did (wall-clock speed is
  perfbench's job, see ``BENCHMARK.json``).

``batch`` and ``shard run|merge`` accept ``--telemetry``: pipeline phase
spans (compose → build → run → store → merge) are collected in a
recorder, written to a ``telemetry.jsonl`` sidecar in the output
directory and summarized on stdout.  Telemetry is wall-clock data
and never enters spec hashes, stored artifacts or golden streams.

Failure semantics: ``batch`` and ``shard run`` envelope failures instead of
crashing the sweep.  Each failed run's per-attempt records land in a
``failures.jsonl`` sidecar (never in spec hashes, stored artifacts or golden
streams), transient failures retry up to ``--max-attempts`` with identical
spec and seed, runaway runs are cancelled by ``--run-timeout`` /
``--sim-budget-ns`` watchdogs, and persistent failures quarantine.  Exit
codes: 0 — everything ran; 1 — usable but partial (quarantined runs, a
coverage-gapped ``--allow-partial`` merge, failing ``cache verify``);
2 — unusable invocation (bad arguments, unreadable inputs, ``--fail-fast``
abort).

Caching: ``run``, ``batch`` and ``shard run`` consult the content-addressed
result store rooted at ``--cache DIR`` (default: the ``REPRO_CACHE_DIR``
environment variable).  A verified cache hit replays stored artifacts
byte-identically instead of simulating; ``--no-cache`` skips the store
entirely and ``--refresh`` re-simulates and overwrites the entries.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

from repro.campaign.registry import (
    describe_scenario,
    get_scenario,
    scenario_description,
    scenario_names,
)
from repro.campaign.spec import (
    ScenarioSpec,
    SpecError,
    ValidatedSpec,
    load_spec_dir,
    load_spec_file,
    parse_matrix_axis,
    parse_overrides,
)
from repro.grid.errors import GridError
from repro.sweep.errors import (
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_UNUSABLE,
    ResilienceAbort,
)

# Only the stdlib, the registry, spec parsing and what ``main`` catches
# load with this module; each verb imports the planes it drives (batch,
# runner, grid, analytics, perf), so ``repro list`` or a spec load never
# pays for the simulation stack.

#: The default batch: every cheap built-in scenario crossed with two seeds,
#: which expands to eight runs — a meaningful parallelism demo out of the box.
DEFAULT_BATCH_SCENARIOS = (
    "quickstart",
    "sync-tour",
    "rtk-round-robin",
    "rtk-priority",
)
DEFAULT_BATCH_MATRIX = {"seed": [1, 2]}

#: Environment variable naming the default result-store root.
CACHE_ENV = "REPRO_CACHE_DIR"


# ----------------------------------------------------------------------
# Shared argument groups
# ----------------------------------------------------------------------
def _add_store_arg(
    parser: argparse.ArgumentParser,
    help: str = f"result-store root (default: ${CACHE_ENV} when set)",
) -> None:
    parser.add_argument("--cache", metavar="DIR", default=None, help=help)


def _add_json_arg(
    parser: argparse.ArgumentParser,
    help: str = "emit canonical JSON instead of a table",
) -> None:
    parser.add_argument("--json", action="store_true", help=help)


def _add_telemetry_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry", action="store_true",
        help="time the pipeline phases into <out>/telemetry.jsonl and "
        "print a per-phase summary",
    )


def _add_cache_args(parser: argparse.ArgumentParser) -> None:
    _add_store_arg(
        parser, help="grid result-store root consulted before simulating "
        f"(default: ${CACHE_ENV} when set)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="never consult or fill the result store",
    )
    parser.add_argument(
        "--refresh", action="store_true",
        help="re-simulate even on a cache hit and overwrite the entry",
    )


def _add_resilience_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-attempts", type=int, default=2, metavar="N",
        help="attempts per run before quarantine; transient failures "
        "(worker crashes, I/O) retry with identical spec and seed "
        "(default: 2)",
    )
    parser.add_argument(
        "--run-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock watchdog budget per run (default: unlimited)",
    )
    parser.add_argument(
        "--sim-budget-ns", type=int, default=None, metavar="NS",
        help="simulated-time watchdog budget per run in nanoseconds — a "
        "deterministic ceiling, so timed-out runs are never retried "
        "(default: unlimited)",
    )
    parser.add_argument(
        "--failures-out", metavar="PATH", default=None,
        help="failure-record sidecar (default: <out>/failures.jsonl; "
        "written only when failures occurred or PATH was given)",
    )
    parser.add_argument(
        "--keep-going", dest="keep_going", action="store_true", default=True,
        help="continue past failed runs: quarantine them, aggregate over "
        "the successes and exit 1 (default)",
    )
    parser.add_argument(
        "--fail-fast", dest="keep_going", action="store_false",
        help="abort the sweep on the first non-ok run (exit 2)",
    )


def _policy_from_args(args: argparse.Namespace):
    """The sweep's :class:`ResiliencePolicy` (always on at the CLI)."""
    from repro.sweep.envelope import ResiliencePolicy

    try:
        return ResiliencePolicy(
            max_attempts=args.max_attempts,
            run_timeout_s=args.run_timeout,
            sim_budget_ns=args.sim_budget_ns,
            keep_going=args.keep_going,
        )
    except ValueError as error:
        raise SpecError(str(error)) from None


def _add_selection_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario", dest="scenarios", action="append", default=[],
        help="scenario to include (repeatable; default: "
        + ", ".join(DEFAULT_BATCH_SCENARIOS) + ")",
    )
    parser.add_argument(
        "--spec-dir", metavar="DIR", default=None,
        help="also include every *.json ScenarioSpec document in DIR "
        "(sorted by filename; runs keep their stated seeds and the default "
        "seed matrix is disabled)",
    )
    parser.add_argument(
        "--family", dest="families", action="append", default=[],
        metavar="PATH",
        help="also include every member of the workload-family document at "
        "PATH (repeatable; members keep their derived seeds and the default "
        "seed matrix is disabled)",
    )
    parser.add_argument(
        "--matrix", dest="matrix", action="append", default=[],
        metavar="KEY=V1,V2,...",
        help="parameter axis to sweep (repeatable; default: seed=1,2 "
        "unless --spec-dir is given)",
    )
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[],
        metavar="KEY=VALUE", help="override applied to every run",
    )


def _store_from_args(args: argparse.Namespace, required: bool = False):
    """Build the ResultStore the cache flags describe (or ``None``).

    ``required`` is for the verbs that read a store: it must exist already.
    """
    if getattr(args, "no_cache", False):
        if getattr(args, "refresh", False):
            raise GridError("--refresh needs the cache; drop --no-cache")
        return None
    root = getattr(args, "cache", None) or os.environ.get(CACHE_ENV)
    if root is None:
        if required:
            raise GridError(
                f"no result store: pass --cache DIR or set ${CACHE_ENV}"
            )
        if getattr(args, "refresh", False):
            raise GridError(
                f"--refresh needs a result store: pass --cache DIR or set ${CACHE_ENV}"
            )
        return None
    if required and not os.path.isdir(root):
        # Read-only verbs must not create a mistyped store as a side effect.
        raise GridError(f"no result store at {root!r}")
    from repro.grid.store import ResultStore

    return ResultStore(root)


def _selected_specs(args: argparse.Namespace) -> List[ScenarioSpec]:
    """Expand the selection flags into the sweep's global run list.

    The expansion is deterministic in the flags alone — scenario order,
    sorted spec-dir filenames, family-document seeds, matrix key order — so
    every shard of a sweep computes the identical list and the identical
    derived seeds.  Seed derivation is per base: registry scenarios
    decorrelate their matrix points with derived per-run seeds as always,
    while explicit spec documents and generated family members keep their
    stated/derived seeds.
    """
    from repro.sweep.plan import plan_batch

    names: List[str] = list(args.scenarios)
    file_specs: List[ScenarioSpec] = (
        load_spec_dir(args.spec_dir) if args.spec_dir else []
    )
    family_specs: List[ScenarioSpec] = []
    for family_path in getattr(args, "families", []):
        from repro.workload.families import expand_family, load_family_file

        family_specs += expand_family(load_family_file(family_path))
    if not names and not file_specs and not family_specs:
        names = list(DEFAULT_BATCH_SCENARIOS)
    matrix: Dict[str, List[Any]] = {}
    for axis in args.matrix:
        key, values = parse_matrix_axis(axis)
        matrix[key] = values
    if not matrix and not args.spec_dir and not family_specs:
        matrix = dict(DEFAULT_BATCH_MATRIX)
    overrides = parse_overrides(args.overrides) if args.overrides else None
    specs = plan_batch(names, matrix=matrix, overrides=overrides)
    specs += plan_batch(file_specs + family_specs, matrix=matrix,
                        overrides=overrides, derive_seeds=False)
    return specs


def _verb_list(parser: argparse.ArgumentParser) -> None:
    parser.set_defaults(handler=_cmd_list)
    _add_json_arg(parser,
                  help="emit the registry as a canonical JSON array for tooling")


def _add_scenario_args(parser: argparse.ArgumentParser, spec_help: str) -> None:
    """The scenario / ``--spec`` / ``--set`` trio of ``describe`` and ``run``."""
    parser.add_argument(
        "scenario", nargs="?", default=None,
        help="registry scenario name (or use --spec)",
    )
    parser.add_argument("--spec", metavar="PATH", default=None, help=spec_help)
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[],
        metavar="KEY=VALUE", help="override a spec field or workload knob",
    )


def _verb_describe(parser: argparse.ArgumentParser) -> None:
    parser.set_defaults(handler=_cmd_describe)
    _add_scenario_args(
        parser, "describe the scenario in a ScenarioSpec JSON document")


def _verb_run(parser: argparse.ArgumentParser) -> None:
    parser.set_defaults(handler=_cmd_run)
    _add_scenario_args(
        parser, "load the scenario from a ScenarioSpec JSON document")
    parser.add_argument(
        "--events-out", metavar="PATH",
        help="stream the JSONL event stream here *during* the run "
        "(bounded memory; '-' streams to stdout)",
    )
    parser.add_argument("--metrics-out", help="write the metrics JSON here")
    _add_cache_args(parser)


def _verb_batch(parser: argparse.ArgumentParser) -> None:
    parser.set_defaults(handler=_cmd_batch)
    _add_selection_args(parser)
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: one per core)",
    )
    parser.add_argument(
        "--serial", action="store_true", help="force serial execution"
    )
    parser.add_argument(
        "--out", default="campaign_out", help="output directory (default: campaign_out)"
    )
    parser.add_argument(
        "--no-events", action="store_true", help="skip the per-run event streams"
    )
    _add_telemetry_arg(parser)
    _add_cache_args(parser)
    _add_resilience_args(parser)


def _verb_shard(parser: argparse.ArgumentParser) -> None:
    subparsers = parser.add_subparsers(dest="shard_command", required=True)

    plan = subparsers.add_parser(
        "plan", help="print the run list one shard of the sweep executes"
    )
    plan.set_defaults(handler=_cmd_shard_plan)
    plan.add_argument("--shards", type=int, required=True,
                      help="total number of shards")
    plan.add_argument("--index", type=int, required=True,
                      help="this shard's index (0-based)")
    _add_selection_args(plan)
    _add_json_arg(
        plan,
        help="emit the shard's runs as JSON Lines ({index, spec}) for scripting",
    )

    run = subparsers.add_parser(
        "run", help="execute one shard, streaming per-run JSONL event files"
    )
    run.set_defaults(handler=_cmd_shard_run)
    run.add_argument("--shards", type=int, required=True)
    run.add_argument("--index", type=int, required=True)
    _add_selection_args(run)
    run.add_argument(
        "--out", default=None,
        help="shard output directory (default: shard_<index>_of_<shards>)",
    )
    _add_telemetry_arg(run)
    _add_cache_args(run)
    _add_resilience_args(run)

    merge = subparsers.add_parser(
        "merge", help="reassemble shard outputs into the single-host batch artifacts"
    )
    merge.set_defaults(handler=_cmd_shard_merge)
    merge.add_argument(
        "shard_dirs", nargs="+", metavar="SHARD_DIR",
        help="every shard's output directory",
    )
    merge.add_argument("--out", required=True, help="merged output directory")
    merge.add_argument(
        "--no-events", action="store_true",
        help="merge metrics only, skip the event streams",
    )
    _add_telemetry_arg(merge)
    merge.add_argument(
        "--allow-partial", action="store_true",
        help="merge whatever shards/runs exist, report the gaps in "
        "<out>/coverage.json and exit 1 when runs are missing "
        "(default: refuse to merge with shards absent)",
    )


def _verb_cache(parser: argparse.ArgumentParser) -> None:
    subparsers = parser.add_subparsers(dest="cache_command", required=True)
    for name, help_text, handler in (
        ("stats", "entry counts, health and sizes of the store", _cmd_cache_stats),
        ("gc", "drop stale/corrupt entries and staging residue", _cmd_cache_gc),
        ("clear", "remove every entry from the store", _cmd_cache_clear),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        sub.set_defaults(handler=handler)
        _add_store_arg(sub)
    verify = subparsers.add_parser(
        "verify", help="check every entry's manifest and artifact digests"
    )
    verify.set_defaults(handler=_cmd_cache_verify)
    _add_store_arg(verify)
    verify.add_argument(
        "--repair", action="store_true",
        help="move failing entries into the store's .quarantine/ directory "
        "so later sweeps re-simulate them",
    )


def _verb_index(parser: argparse.ArgumentParser) -> None:
    subparsers = parser.add_subparsers(dest="index_command", required=True)
    for name, help_text, handler in (
        ("build", "(re)build the corpus index from the store's entries",
         _cmd_index_build),
        ("status", "index presence, size and freshness vs. the store",
         _cmd_index_status),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        sub.set_defaults(handler=handler)
        _add_store_arg(sub)


def _add_where_arg(parser: argparse.ArgumentParser, help: str) -> None:
    parser.add_argument(
        "--where", action="append", default=[], metavar="COL OP VALUE",
        help=help,
    )


def _verb_query(parser: argparse.ArgumentParser) -> None:
    parser.set_defaults(handler=_cmd_query)
    _add_store_arg(parser)
    _add_where_arg(
        parser, "row filter, e.g. 'kernel=tkernel' or 'cpu_utilization>0.5' "
        "(repeatable; filters AND together)",
    )
    parser.add_argument(
        "--select", action="append", default=[], metavar="COL",
        help="column to show in row mode (repeatable; default: a standard "
        "knob/metric set)",
    )
    parser.add_argument(
        "--group-by", action="append", default=[], metavar="COL",
        help="group rows by this column (repeatable; switches to aggregate mode)",
    )
    parser.add_argument(
        "--agg", action="append", default=[], metavar="FN[:COL]",
        help="aggregate: count, or sum/mean/min/max:column (repeatable; "
        "default in grouped mode: count)",
    )
    parser.add_argument(
        "--limit", type=int, default=None, help="cap the number of output rows"
    )
    _add_json_arg(parser)
    parser.add_argument(
        "--no-build", action="store_true",
        help="fail if the index is missing/stale instead of rebuilding it",
    )


def _verb_report(parser: argparse.ArgumentParser) -> None:
    subparsers = parser.add_subparsers(dest="report_command", required=True)
    corpus_reports = []
    for name, help_text, handler in (
        ("audit", "per-run schedulability audit (RM bound vs. requested "
         "and measured utilization)", _cmd_report_audit),
        ("deadlines", "deadline misses + response-time percentiles "
         "reconstructed from stored streams at index build (generated "
         "periodic tasks)", _cmd_report_deadlines),
        ("latency", "execution-slice latency percentiles per run and "
         "aggregate, from the stream summaries of the corpus index",
         _cmd_report_latency),
        ("family", "per-family run counts and metric means "
         "(regression table with --baseline)", _cmd_report_family),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        sub.set_defaults(handler=handler)
        corpus_reports.append(sub)
    family = corpus_reports[-1]
    family.add_argument(
        "--baseline", default=None, metavar="FAMILY",
        help="add delta columns against this family's means",
    )
    family.add_argument(
        "--metric", dest="metrics", action="append", default=[],
        metavar="COL", help="metric column to average (repeatable; default: "
        "context switches, preemptions, CPU utilization, energy)",
    )
    for sub in corpus_reports:
        _add_store_arg(sub)
        _add_where_arg(
            sub, "corpus filter (same syntax as 'repro query --where')")
        _add_json_arg(sub)
    telemetry = subparsers.add_parser(
        "telemetry", help="summarize a telemetry.jsonl sidecar per phase"
    )
    telemetry.set_defaults(handler=_cmd_report_telemetry)
    telemetry.add_argument(
        "telemetry_path", metavar="TELEMETRY_JSONL",
        help="sidecar written by batch/shard --telemetry",
    )
    _add_json_arg(telemetry)


def _verb_compare(parser: argparse.ArgumentParser) -> None:
    parser.set_defaults(handler=_cmd_compare)
    parser.add_argument("left", help="baseline metrics JSON")
    parser.add_argument("right", help="candidate metrics JSON")


def _verb_bench(parser: argparse.ArgumentParser) -> None:
    parser.set_defaults(handler=_cmd_bench)
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="report file (default: BENCH_PR<n>.json of this checkout; "
        "'-' prints the JSON to stdout only)",
    )
    subparsers = parser.add_subparsers(dest="bench_command")
    compare = subparsers.add_parser(
        "compare",
        help="list every work count that differs between two reports",
    )
    compare.set_defaults(handler=_cmd_bench_compare)
    compare.add_argument("old", help="baseline BENCH_PR<n>.json")
    compare.add_argument("new", help="candidate BENCH_PR<m>.json")
    _add_json_arg(
        compare,
        help="emit the comparison document as JSON instead of the table",
    )


#: Every verb, in help order: ``(name, help, declare)``.  ``declare`` adds
#: the verb's arguments, sub-verbs and handler to the verb's parser.
VERBS = (
    ("list", "list the built-in scenarios", _verb_list),
    ("describe", "print a scenario's composed platform/kernel/workload "
     "parts as canonical JSON", _verb_describe),
    ("run", "run one scenario", _verb_run),
    ("batch", "expand a parameter matrix and run it in parallel", _verb_batch),
    ("shard", "partition a sweep across hosts: plan, run one shard, merge",
     _verb_shard),
    ("cache", "inspect and maintain the grid result store", _verb_cache),
    ("index", "build/inspect the analytics corpus index over a store",
     _verb_index),
    ("query", "filter/group/aggregate the corpus index", _verb_query),
    ("report", "audit reports over a warm corpus (zero simulation) "
     "and telemetry summaries", _verb_report),
    ("compare", "compare two metrics JSON files", _verb_compare),
    ("bench", "record exact work counts per simulator layer (the "
     "BENCH_PR<n>.json trajectory file)", _verb_bench),
)


def build_parser(verb: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``python -m repro`` parser, built from :data:`VERBS`.

    With no *verb* it is the full tree.  With one, it holds that verb
    alone, with the same arguments, sub-verbs and help as in the full
    tree.  :func:`main` builds just the verb ``argv[0]`` names, and the
    full tree for anything else (no arguments, ``-h``, a typo).  Only the
    top-level usage line of an "unrecognized arguments" error tells the
    two apart: it lists the one verb.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="RTK-Spec TRON simulation campaigns: declarative scenario "
        "specs, a parallel batch runner, a content-addressed result cache, "
        "cross-host sharding, and metrics/event export.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, help_text, declare in VERBS:
        if verb is None or verb == name:
            declare(subparsers.add_parser(name, help=help_text))
    return parser


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _cmd_list(args: argparse.Namespace) -> int:
    if getattr(args, "json", False):
        from repro.campaign.spec import spec_hash
        from repro.obs.bus import canonical_json

        entries = []
        for name in scenario_names():
            spec = get_scenario(name)
            entries.append({
                "name": name,
                "description": scenario_description(name),
                "kernel": spec.kernel,
                "workload": spec.workload,
                "duration_ms": spec.duration_ms,
                "spec_hash": spec_hash(spec),
            })
        print(canonical_json(entries))
        return 0
    rows = []
    for name in scenario_names():
        spec = get_scenario(name)
        rows.append(
            (name, spec.kernel, spec.workload, f"{spec.duration_ms:g}",
             scenario_description(name))
        )
    print(
        _format_table(
            ["scenario", "kernel", "workload", "duration [ms]", "description"],
            rows,
            title="Built-in scenarios",
        )
    )
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    spec = _spec_from_run_args(args)
    if spec is None:
        return 2
    from repro.obs.bus import canonical_json

    print(canonical_json(describe_scenario(spec)))
    return 0


def _spec_from_run_args(args: argparse.Namespace) -> Optional[ScenarioSpec]:
    """Resolve the scenario/--spec/--set trio shared by ``run`` and
    ``describe``; prints the usage error and returns ``None`` on misuse."""
    if (args.scenario is None) == (args.spec is None):
        print("error: give exactly one of a scenario name or --spec PATH",
              file=sys.stderr)
        return None
    overrides = parse_overrides(args.overrides) if args.overrides else None
    if args.spec is None:
        return get_scenario(args.scenario, overrides)
    return load_spec_file(args.spec, overrides)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.campaign.runner import run_spec

    spec = _spec_from_run_args(args)
    if spec is None:
        return 2
    # Every source of the spec validated it; the run does not again.
    spec = ValidatedSpec.copy_of(spec)
    # Events are streamed live over the observability bus while the
    # simulation runs, never materialized in memory; without --events-out
    # nothing reads them, so none is encoded (a store fill encodes its own).
    result = run_spec(spec, collect_events=False,
                      events_stream=args.events_out or None,
                      store=_store_from_args(args), refresh=args.refresh)
    print(_run_summary_table([result.metrics]))
    timing = result.timing
    if result.cached:
        print(
            f"cache hit: replayed stored artifacts in "
            f"{timing['wall_clock_seconds']:.3f} s (no simulation)"
        )
    elif timing.get("wall_clock_seconds") is not None:
        print(
            f"wall clock R = {timing['wall_clock_seconds']:.3f} s   "
            f"R/S = {timing['r_over_s']:.3f}   S/R = {timing['s_over_r']:.2f}"
        )
    if args.events_out:
        target = "stdout" if args.events_out == "-" else args.events_out
        print(f"events  -> {target} ({result.events_streamed} events, streamed)")
    if args.metrics_out:
        result.write_metrics(args.metrics_out)
        print(f"metrics -> {args.metrics_out}")
    return 0


def _telemetry_recorder(args: argparse.Namespace):
    """A TelemetryRecorder when ``--telemetry`` was given, else the null
    recorder."""
    if args.telemetry:
        from repro.analytics.telemetry import TelemetryRecorder

        return TelemetryRecorder()
    from repro.sweep.hooks import NULL_TELEMETRY

    return NULL_TELEMETRY


def _finish_telemetry(recorder, out_dir: str) -> None:
    """Write the sidecar and print the per-phase summary (no-op for the
    null recorder).  The sidecar sits beside the outputs, never inside
    them."""
    if not recorder.enabled:
        return
    from repro.analytics.telemetry import format_telemetry_summary

    os.makedirs(out_dir, exist_ok=True)
    sidecar = os.path.join(out_dir, "telemetry.jsonl")
    recorder.write_jsonl(sidecar)
    print(format_telemetry_summary(recorder.summary()))
    print(f"telemetry -> {sidecar} ({len(recorder)} spans)")


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.sweep.batch import run_batch
    from repro.sweep.engine import default_workers
    from repro.sweep.envelope import write_failures

    telemetry = _telemetry_recorder(args)
    with telemetry.span("plan"):
        specs = _selected_specs(args)
    store = _store_from_args(args)
    workers = 1 if args.serial else args.workers
    if workers is None:
        workers = default_workers(len(specs))
    workers = max(1, min(workers, len(specs)))
    print(f"batch: {len(specs)} runs on {workers} worker(s)")

    policy = _policy_from_args(args)
    batch = run_batch(specs, workers=workers, store=store,
                      refresh=args.refresh, telemetry=telemetry, policy=policy,
                      events_dir=None if args.no_events else args.out)
    manifest = batch.write_outputs(args.out)
    _finish_telemetry(telemetry, args.out)

    print(_run_summary_table([result.metrics for result in batch.results]))
    aggregate = batch.aggregate
    print(
        f"\naggregate over {aggregate['runs']} runs: "
        f"{aggregate['total'].get('context_switches', 0):.0f} context switches, "
        f"{aggregate['total'].get('preemptions', 0):.0f} preemptions, "
        f"{aggregate['total'].get('energy_mj', 0.0):.4f} mJ"
    )
    if store is not None:
        print(f"cache: {batch.cache_hits} hit(s), "
              f"{len(batch.results) - batch.cache_hits} simulated")
    print(f"metrics -> {manifest['metrics']}")
    if not args.no_events:
        print(f"events  -> {len(manifest['events'])} JSONL files in {args.out}")
    if batch.failures or args.failures_out:
        failures_path = (args.failures_out
                         or os.path.join(args.out, "failures.jsonl"))
        written = write_failures(failures_path, batch.failures)
        print(f"failures -> {failures_path} ({written} record(s))")
    quarantined = batch.quarantined
    if quarantined:
        print(f"{len(quarantined)} of {len(specs)} run(s) quarantined:",
              file=sys.stderr)
        for record in quarantined:
            print(f"  {record.summary()}", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_shard_plan(args: argparse.Namespace) -> int:
    from repro.sweep.plan import plan_shard

    specs = _selected_specs(args)
    plan = plan_shard(specs, args.shards, args.index)
    if args.json:
        for global_index, spec in plan.runs:
            print(json.dumps(
                {"index": global_index, "spec": spec.to_dict()}, sort_keys=True
            ))
        return 0
    rows = [
        (global_index, spec.name, spec.kernel, spec.workload, spec.seed,
         f"{spec.duration_ms:g}")
        for global_index, spec in plan.runs
    ]
    print(
        _format_table(
            ["#", "scenario", "kernel", "workload", "seed", "duration [ms]"],
            rows,
            title=f"Shard {plan.index}/{plan.shards}: "
            f"{len(plan)} of {plan.total} runs",
        )
    )
    return 0


def _cmd_shard_run(args: argparse.Namespace) -> int:
    from repro.sweep.envelope import load_failures, write_failures
    from repro.sweep.plan import plan_shard
    from repro.sweep.shard import run_shard

    telemetry = _telemetry_recorder(args)
    with telemetry.span("plan"):
        specs = _selected_specs(args)
        plan = plan_shard(specs, args.shards, args.index)
    out_dir = args.out or f"shard_{plan.index}_of_{plan.shards}"
    store = _store_from_args(args)
    print(f"shard {plan.index}/{plan.shards}: {len(plan)} of {plan.total} runs "
          f"-> {out_dir}" + ("" if store is None else f"  (cache: {store.root})"))
    policy = _policy_from_args(args)
    document = run_shard(plan, out_dir, store=store, refresh=args.refresh,
                         telemetry=telemetry, policy=policy)
    _finish_telemetry(telemetry, out_dir)
    print(_run_summary_table(
        [entry["run"]["metrics"] for entry in document["runs"]]
    ))
    print(f"shard complete: {document['executed']} simulated, "
          f"{document['cached']} from cache; metrics -> "
          f"{os.path.join(out_dir, 'shard.json')}")
    # The shard directory's sidecar holds every failure record, retried
    # successes included; --failures-out gets a copy, as for a batch.
    sidecar = os.path.join(out_dir, "failures.jsonl")
    records = load_failures(sidecar)[0] if os.path.exists(sidecar) else []
    if args.failures_out:
        write_failures(args.failures_out, records)
        sidecar = args.failures_out
    if records or args.failures_out:
        print(f"failures -> {sidecar} ({len(records)} record(s))")
    if document["failed"]:
        print(f"{document['failed']} of {len(plan)} run(s) quarantined; "
              f"failures -> {sidecar}", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_shard_merge(args: argparse.Namespace) -> int:
    from repro.sweep.shard import merge_shards

    telemetry = _telemetry_recorder(args)
    manifest = merge_shards(
        args.shard_dirs, args.out, include_events=not args.no_events,
        telemetry=telemetry, allow_partial=args.allow_partial,
    )
    _finish_telemetry(telemetry, args.out)
    print(f"merged {manifest['merged']} runs from {manifest['shards']} shard(s)")
    print(f"metrics   -> {manifest['metrics']}")
    print(f"aggregate -> {manifest['aggregate']}")
    if not args.no_events:
        print(f"events    -> {len(manifest['events'])} JSONL files in {args.out}")
    if manifest["missing"]:
        print(f"partial merge: {manifest['merged']} of {manifest['runs']} "
              f"runs; missing indices {manifest['missing']}; "
              f"coverage -> {manifest['coverage']}", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    store = _store_from_args(args, required=True)
    stats = store.stats()
    print(f"store {stats['root']}")
    print(f"  entries : {stats['entries']} "
          f"({stats['valid']} valid, {stats['stale']} stale, "
          f"{stats['corrupt']} corrupt)")
    print(f"  size    : {stats['bytes']:,} bytes, "
          f"{stats['events_lines']:,} stored events")
    if stats["scenarios"]:
        rows = sorted(stats["scenarios"].items())
        print(_format_table(["scenario", "entries"], rows, title="By scenario"))
    return 0


def _cmd_cache_gc(args: argparse.Namespace) -> int:
    store = _store_from_args(args, required=True)
    swept = store.gc()
    print(f"gc: removed {swept['removed']} unusable entr(y/ies), "
          f"kept {swept['kept']}, cleared {swept['staging_removed']} staging file(s)")
    return 0


def _cmd_cache_clear(args: argparse.Namespace) -> int:
    store = _store_from_args(args, required=True)
    removed = store.clear()
    print(f"clear: removed {removed} entr(y/ies) from {store.root}")
    return 0


def _cmd_cache_verify(args: argparse.Namespace) -> int:
    store = _store_from_args(args, required=True)
    report = store.verify(repair=args.repair)
    print(f"verify: {report['checked']} entr(y/ies) checked, "
          f"{len(report['bad'])} failing")
    for item in report["bad"]:
        scenario = f" ({item['scenario']})" if item["scenario"] else ""
        print(f"  {item['key'][:16]}{scenario}: {'; '.join(item['problems'])}")
    if args.repair and report["quarantined"]:
        print(f"repair: moved {report['quarantined']} entr(y/ies) to "
              f"{store.quarantine_dir()}")
    if report["bad"] and not args.repair:
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_index_build(args: argparse.Namespace) -> int:
    from repro.analytics.corpus import build_index

    store = _store_from_args(args, required=True)
    stats = build_index(store)
    print(f"index built: {stats['runs']} run(s), {stats['columns']} column(s)")
    print(f"index   -> {stats['path']}")
    print(f"corpus  -> {stats['corpus_fingerprint']}")
    return 0


def _cmd_index_status(args: argparse.Namespace) -> int:
    from repro.analytics.corpus import index_status

    store = _store_from_args(args, required=True)
    status = index_status(store)
    print(f"index {status['path']}")
    if not status["present"]:
        print("  present : no  (run 'repro index build')")
        return 0
    if status["unreadable"]:
        print(f"  present : yes  (unreadable: {status['unreadable']})")
    else:
        print(f"  present : yes  (schema {status['schema']})")
    print(f"  fresh   : {'yes' if status['fresh'] else 'no  (rebuild needed)'}")
    print(f"  runs    : {status['runs']}, columns: {status['columns']}")
    print(f"  recorded: {status['recorded_fingerprint']}")
    print(f"  store   : {status['corpus_fingerprint']}")
    return 0


def _open_corpus(args: argparse.Namespace, auto_build: bool = True):
    """The report/query handlers' shared open-index prologue."""
    from repro.analytics.corpus import open_index

    store = _store_from_args(args, required=True)
    index = open_index(store, auto_build=auto_build)
    if index.rebuilt:
        print(f"note: corpus index rebuilt ({index.path})", file=sys.stderr)
    return index


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.obs.bus import canonical_json

    index = _open_corpus(args, auto_build=not args.no_build)
    with index:
        headers, rows = index.query(
            select=args.select or None,
            where=args.where,
            group_by=args.group_by,
            aggregate=args.agg,
            limit=args.limit,
        )
        documents = index.documents(headers, rows)
    if args.json:
        print(canonical_json(documents))
        return 0
    rendered = [
        tuple("" if value is None else value for value in row) for row in rows
    ]
    print(_format_table(list(headers), rendered,
                       title=f"Corpus query ({len(rows)} row(s))"))
    return 0


def _report_documents(args: argparse.Namespace, documents, headers, title) -> int:
    """Render one report as canonical JSON (``--json``) or a table."""
    from repro.obs.bus import canonical_json

    if args.json:
        print(canonical_json(documents))
        return 0
    rows = [
        tuple("" if doc.get(h) is None else doc.get(h) for h in headers)
        for doc in documents
    ]
    print(_format_table(list(headers), rows, title=title))
    return 0


def _cmd_report_audit(args: argparse.Namespace) -> int:
    from repro.analytics.reports import schedulability_audit

    index = _open_corpus(args)
    with index:
        audit = schedulability_audit(index, where=args.where)
    return _report_documents(
        args, audit,
        ["key", "name", "kernel", "periodic_tasks", "requested_utilization",
         "rm_bound", "measured_utilization", "verdict"],
        "Schedulability audit",
    )


def _cmd_report_deadlines(args: argparse.Namespace) -> int:
    from repro.analytics.reports import deadline_report

    index = _open_corpus(args)
    with index:
        report = deadline_report(index, where=args.where)
    return _report_documents(
        args, report,
        ["key", "name", "kernel", "jobs", "misses", "miss_ratio",
         "response_p50_ms", "response_p99_ms"],
        "Deadline report (generated periodic task sets)",
    )


def _cmd_report_latency(args: argparse.Namespace) -> int:
    from repro.analytics.reports import latency_report
    from repro.obs.bus import canonical_json

    index = _open_corpus(args)
    with index:
        report = latency_report(index, where=args.where)
    if args.json:
        print(canonical_json(report))
        return 0
    headers = ["key", "name", "kernel", "slices", "p50_us", "p90_us",
               "p99_us", "max_us"]
    rows = [tuple(doc.get(h, "") for h in headers) for doc in report["runs"]]
    aggregate = report["aggregate"]
    rows.append(tuple(
        ["(aggregate)", "", ""] + [aggregate[h] for h in headers[3:]]
    ))
    print(_format_table(headers, rows, title="Execution-slice latency"))
    return 0


def _cmd_report_family(args: argparse.Namespace) -> int:
    from repro.analytics.reports import FAMILY_METRICS, family_report

    index = _open_corpus(args)
    metrics = tuple(args.metrics) if args.metrics else FAMILY_METRICS
    with index:
        report = family_report(
            index, where=args.where, metrics=metrics, baseline=args.baseline,
        )
    headers: List[str] = ["family", "runs"]
    for document in report:
        for column in document:
            if column not in headers:
                headers.append(column)
    rendered = []
    for document in report:
        rendered.append(tuple(
            "" if document.get(h) is None else document.get(h) for h in headers
        ))
    if args.json:
        from repro.obs.bus import canonical_json

        print(canonical_json(report))
        return 0
    print(_format_table(headers, rendered, title="Per-family metrics"))
    return 0


def _cmd_report_telemetry(args: argparse.Namespace) -> int:
    from repro.analytics.telemetry import (
        format_telemetry_summary,
        load_telemetry,
        summarize_spans,
    )
    from repro.obs.bus import canonical_json

    spans = load_telemetry(args.telemetry_path)
    summary = summarize_spans(spans)
    if args.json:
        print(canonical_json(summary))
        return 0
    print(format_telemetry_summary(
        summary, title=f"Telemetry ({len(spans)} span(s))"
    ))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.campaign.metrics import compare_metrics

    left = _load_comparable(args.left)
    right = _load_comparable(args.right)
    rows = compare_metrics(left, right)
    print(
        _format_table(
            ["metric", args.left, args.right, "delta"],
            rows,
            title="Metrics comparison",
        )
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf.bench import (
        default_report_path,
        render_report,
        run_benchmarks,
        write_report,
    )

    document = run_benchmarks()
    if args.out == "-":
        # Keep stdout pure JSON so '-' mode is pipeable; summary to stderr.
        print(render_report(document), file=sys.stderr)
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    print(render_report(document))
    out_path = args.out or default_report_path()
    write_report(document, out_path)
    print(f"report  -> {out_path}")
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from repro.perf.compare import (
        ReportError,
        compare_reports,
        format_compare,
        load_report,
    )

    try:
        old = load_report(args.old)
        new = load_report(args.new)
    except ReportError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    document = compare_reports(old, new)
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(format_compare(document))
    return 1 if document["rows"] else 0


def _load_comparable(path: str) -> Dict[str, Any]:
    """Reduce a metrics file (single run or batch aggregate) to one dict.

    Missing files surface as ``OSError`` and malformed JSON as
    ``JSONDecodeError`` (both turned into one-line errors by ``main``); a
    JSON document that is not a metrics-shaped object raises
    :class:`GridError` instead of tracebacking downstream.
    """
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise GridError(
            f"{path!r} is not a metrics document (expected a JSON object, "
            f"got {type(document).__name__})"
        )
    if "aggregate" in document:
        return {"aggregate": document["aggregate"]}
    if "metrics" in document:
        metrics = document["metrics"]
        if not isinstance(metrics, dict):
            raise GridError(
                f"{path!r} is not a metrics document ('metrics' is not an object)"
            )
        return metrics
    return document


def _format_table(headers, rows, title: str) -> str:
    from repro.analysis.report import format_table

    return format_table(headers, rows, title=title)


def _run_summary_table(metrics_list: List[Dict[str, Any]]) -> str:
    rows = []
    for metrics in metrics_list:
        rows.append(
            (
                metrics["scenario"],
                metrics["kernel"],
                metrics["seed"],
                f"{metrics['simulated_ms']:g}",
                metrics["context_switches"],
                metrics["preemptions"],
                metrics["interrupts"],
                metrics["syscall_total"],
                f"{metrics['cpu_utilization']:.3f}",
                f"{metrics['energy_mj']:.4f}",
            )
        )
    return _format_table(
        ["scenario", "kernel", "seed", "S [ms]", "ctx sw", "preempt",
         "irq", "syscalls", "CPU util", "CEE [mJ]"],
        rows,
        title="Run metrics",
    )


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    verb = next((name for name, _, _ in VERBS if argv[:1] == [name]), None)
    args = build_parser(verb).parse_args(argv)
    try:
        return args.handler(args)
    except ResilienceAbort as error:
        print(f"error: fail-fast abort: {error}", file=sys.stderr)
        return EXIT_UNUSABLE
    except SpecError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_UNUSABLE
    except GridError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_UNUSABLE
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_UNUSABLE
    except json.JSONDecodeError as error:
        print(f"error: not a metrics JSON file: {error}", file=sys.stderr)
        return EXIT_UNUSABLE


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
