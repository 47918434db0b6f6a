"""Grid result-store guard: a cache hit must stay cheap, forever.

The whole point of the content-addressed store is *never recompute*: a hit
replays stored artifacts without building a simulator or advancing a single
delta cycle.  Three properties are pinned here, each as an exact count
that any host reproduces:

* **No re-simulation.**  On a warm store, the scenario builder is never
  invoked — structurally asserted by poisoning ``build_scenario``.
* **Exact hit work.**  A metrics-only hit (``collect_events=False``) makes
  no call into a simulator package, touches ``repro.obs`` only to encode
  the spec key, opens the entry file once and reads it once, creates
  four hashers (the spec key, one digest per section and the stored spec
  member, which must hash to the key) and decodes JSON twice: the
  manifest line with ``json.loads``, and the ``metrics`` member of the
  metrics section with one ``raw_decode`` — never that whole run
  document, whose ``spec`` member is the looked-up spec.  Re-simulating on a hit, hashing per event,
  re-parsing the stream for a metrics-only replay or decoding the stored
  spec each break a count.
* **Flat across horizons.**  A hit on a 4x longer run makes exactly the
  same calls: verification hashes each section in one call, so hit work
  grows with no per-event step.
"""

import builtins
import cProfile
import json
import os
import pstats
from collections import Counter
from unittest import mock

import pytest

import repro.grid.store as store_module
from repro.campaign import get_scenario, run_spec, spec_hash
from repro.grid import ResultStore
from repro.perf.bench import repro_calls

#: Packages a simulation calls into; a hit calls none of them.
SIMULATOR_PACKAGES = ("sysc", "core", "tkernel", "rtkspec", "bfm", "app",
                      "workload")

#: ``repro.obs`` work of a metrics-only hit: the spec key's encoding.
HIT_OBS_CALLS = {os.path.join("obs", "bus.py") + ":canonical_json": 1}

#: ``repro.grid`` calls of one hit (lookup, verification, replay); lower it
#: when the hit path gets cheaper.
HIT_GRID_CALLS = 5

#: Hashers one hit creates: the spec key, one digest per section and the
#: stored spec member, which the entry check hashes against the key.
HIT_HASHERS = 4


@pytest.fixture
def store(tmp_path):
    return ResultStore(str(tmp_path / "cache"))


def hit_work(store, spec):
    """A warm metrics-only hit of *spec*:
    ``(result, stats, opened, reads, loaded)``.

    *opened* counts the opens of each path under the store root,
    *reads* the reads ``cProfile`` saw on any file and *loaded* lists the
    documents ``json.loads`` returned.
    """
    run_spec(spec, collect_events=False, store=store)  # lazy imports
    opened = Counter()
    loaded = []
    real_open = builtins.open
    real_loads = json.loads

    def counting_open(file, *args, **kwargs):
        path = os.path.abspath(str(file))
        if path.startswith(store.root + os.sep):
            opened[path] += 1
        return real_open(file, *args, **kwargs)

    def recording_loads(*args, **kwargs):
        loaded.append(real_loads(*args, **kwargs))
        return loaded[-1]

    profiler = cProfile.Profile()
    with mock.patch.object(builtins, "open", counting_open), \
            mock.patch.object(json, "loads", recording_loads):
        profiler.enable()
        try:
            result = run_spec(spec, collect_events=False, store=store)
        finally:
            profiler.disable()
    stats = pstats.Stats(profiler).stats
    reads = sum(calls for (_, _, function), (_, calls, _, _, _) in stats.items()
                if function.startswith("<method 'read"))
    return result, stats, opened, reads, loaded


def package_calls(stats, package):
    return sum(repro_calls(stats, package).values())


def calls_from(stats, function, caller_file):
    """Calls of the Python *function* made from code in *caller_file*."""
    code = function.__code__
    entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
    if entry is None:
        return 0
    return sum(counts[0] for caller, counts in entry[4].items()
               if caller[0] == caller_file)


def test_cache_hit_never_rebuilds_the_scenario(store, monkeypatch):
    spec = get_scenario("synthetic-rtk")
    run_spec(spec, collect_events=False, store=store)

    import repro.campaign.runner as runner_module

    def forbidden(_spec, *args, **kwargs):
        raise AssertionError("cache hit re-simulated: build_scenario was called")

    monkeypatch.setattr(runner_module, "build_scenario", forbidden)
    hit = run_spec(spec, collect_events=False, store=store)
    assert hit.cached
    assert hit.metrics["scenario"] == spec.name


def test_cache_hit_work_budget(store):
    spec = get_scenario("synthetic-rtk")  # 150 ms horizon: a real simulation
    fresh = run_spec(spec, collect_events=False, store=store)
    assert not fresh.cached

    hit, stats, opened, reads, loaded = hit_work(store, spec)
    assert hit.cached and hit.metrics == fresh.metrics
    simulator_calls = {package: package_calls(stats, package)
                       for package in SIMULATOR_PACKAGES}
    hashers = sum(
        calls for (_, _, function), (_, calls, _, _, _) in stats.items()
        if function == "<built-in method _hashlib.openssl_sha256>")
    print(f"\nhit: {package_calls(stats, 'grid')} grid calls, "
          f"{dict(opened)} opens, {reads} reads, {hashers} hashers")
    assert not any(simulator_calls.values()), (
        f"a cache hit called into the simulator: {simulator_calls}")
    assert dict(repro_calls(stats, "obs")) == HIT_OBS_CALLS, (
        "a metrics-only hit did stream work (decoding or encoding events)")
    assert opened == {store.entry_path(spec_hash(spec)): 1}, (
        f"a hit opened {dict(opened)}: only its entry file, once")
    assert reads == 1, f"a hit read its entry file {reads} times, not once"
    assert hashers == HIT_HASHERS, (
        f"a hit created {hashers} hashers — hashing is per artifact, "
        f"never per event")
    assert [document.get("schema") for document in loaded] == [
        store_module.STORE_SCHEMA], (
        "a hit decoded a document other than its manifest with json.loads")
    assert calls_from(stats, json.JSONDecoder.raw_decode,
                      store_module.__file__) == 1, (
        "a hit must decode the metrics member of its run document once")
    assert hit.spec == spec.to_dict()
    assert package_calls(stats, "grid") <= HIT_GRID_CALLS


def test_cache_hit_does_not_scale_with_simulated_horizon(store):
    """A 4x horizon multiplies simulation work, not hit work: the hit's
    calls — every function, builtins included — are the same."""
    work, lines = {}, {}
    for duration_ms in (50.0, 200.0):
        spec = get_scenario("synthetic-tkernel").with_overrides(
            {"duration_ms": duration_ms}).validate()
        run_spec(spec, collect_events=False, store=store)
        work[duration_ms] = hit_work(store, spec)
        lines[duration_ms] = store.lookup(spec).events_blob.count(b"\n")
    assert lines[200.0] > lines[50.0]
    (_, short, _, _, _), (_, long, _, _, _) = work[50.0], work[200.0]
    short_calls = {key: stat[1] for key, stat in short.items()}
    long_calls = {key: stat[1] for key, stat in long.items()}
    print(f"\nhit @50ms: {sum(short_calls.values())} calls   "
          f"hit @200ms: {sum(long_calls.values())} calls")
    assert long_calls == short_calls, (
        "hit work grew with the horizon: "
        + ", ".join(f"{key[2]} {short_calls.get(key, 0)} -> {count}"
                    for key, count in long_calls.items()
                    if short_calls.get(key) != count)
    )
