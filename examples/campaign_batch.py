#!/usr/bin/env python3
"""A simulation campaign: one parameter matrix, many parallel runs.

Expands the scheduler-comparison scenario across both RTK-Spec kernels and
a seed sweep, fans the runs out over a process pool, and prints the
aggregate — the programmatic twin of:

    python -m repro batch --scenario rtk-round-robin --scenario rtk-priority \
        --matrix seed=1,2 --matrix task_count=4,6 --out campaign_out

Pooled sweeps carry many members per worker payload, and each run composes
its spec once, in the worker that builds it; every run streams its events to
its artifact file in the output directory as it finishes.  An in-process sweep
(``workers=1``, or ``--serial`` on the CLI) writes byte-identical
artifacts.  The work each run does is pinned exactly across PRs — any
moved count is listed (exit 1):

    python -m repro bench compare BENCH_PR17.json BENCH_PR18.json

The script then repeats the sweep through a grid result store
(``repro.grid.ResultStore``): the second pass completes entirely from
cache — zero simulations — with the deterministic aggregate byte-identical
to the fresh one.

The same sweep scales out across hosts with the shard verbs.  Every worker
expands the same matrix and takes its deterministic slice; the merge is
byte-identical (``aggregate.json`` + per-run event streams) to running the
whole batch on one host:

    SWEEP="--scenario rtk-round-robin --scenario rtk-priority \
           --matrix seed=1,2 --matrix task_count=4,6"
    python -m repro shard plan  --shards 4 --index 3 $SWEEP   # what runs where
    python -m repro shard run   --shards 4 --index $I $SWEEP \
        --cache sweep_cache --out shard$I                     # per host/process
    python -m repro shard merge shard0 shard1 shard2 shard3 --out merged

Interrupted shards resume from the cache, skipping completed runs.

Run with:  python examples/campaign_batch.py [workers]
"""

import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.sweep import plan_batch, run_batch


def main():
    workers = int(sys.argv[1]) if len(sys.argv) > 1 else None

    specs = plan_batch(
        ["rtk-round-robin", "rtk-priority"],
        matrix={"seed": [1, 2], "task_count": [4, 6]},
        overrides={"duration_ms": 150.0},
    )
    print(f"matrix expanded to {len(specs)} runs:")
    for spec in specs:
        print(f"  {spec.name:<40} kernel={spec.kernel:<9} seed={spec.seed}")

    # One worker per core; each run's events stream into out_dir.
    out_dir = os.path.join(tempfile.gettempdir(), "repro_campaign_example")
    batch = run_batch(specs, workers=workers, events_dir=out_dir)
    print(f"\nexecuted on {batch.workers} worker(s)")

    # Running in-process instead produces the same bytes.
    serial = run_batch(specs, workers=1)
    assert serial.aggregate == batch.aggregate

    print("\nper-run completions (workload metrics):")
    for result in batch.results:
        workload = result.metrics["workload_metrics"]
        print(f"  {result.metrics['scenario']:<40} "
              f"completions={workload['completions']} "
              f"makespan={workload['makespan_ms']} ms "
              f"preemptions={result.metrics['preemptions']}")

    aggregate = batch.aggregate
    print(f"\naggregate over {aggregate['runs']} runs:")
    for key in ("context_switches", "preemptions", "energy_mj"):
        print(f"  total {key:<18} {aggregate['total'][key]:g}")

    manifest = batch.write_outputs(out_dir)
    print(f"\nartifacts: {manifest['metrics']} + {len(manifest['events'])} event files")

    # The grid result store: repeat the sweep, simulate nothing.
    from repro.grid import ResultStore
    from repro.obs.bus import canonical_json

    store = ResultStore(os.path.join(out_dir, "cache"))
    warm = run_batch(specs, workers=workers, store=store)     # fills the store
    cached = run_batch(specs, workers=workers, store=store)   # replays it
    assert cached.cache_hits == len(specs)
    assert canonical_json(cached.deterministic_document()) == \
        canonical_json(warm.deterministic_document())
    print(f"cached re-run: {cached.cache_hits}/{len(specs)} hits, "
          f"aggregate byte-identical ({len(store)} entries in {store.root})")


if __name__ == "__main__":
    main()
