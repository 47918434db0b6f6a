"""``aggregate.json`` has one assembler and one byte form.

``write_sweep_documents`` splices each run's canonical ``metrics_json()``
text into the sweep document instead of encoding the decoded document, so
its bytes must equal ``canonical_json(sweep_document(...))`` for every
input — and every way of running one sweep (serial, pooled, replayed
from the store, sharded and merged) must write the same bytes.
"""

import json
import os
import tempfile
from collections import OrderedDict
from enum import IntEnum
from types import MappingProxyType
from typing import Mapping

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.cli import main
from repro.campaign.metrics import (
    RunResult,
    aggregate_metrics,
    canonical_json,
    flatten_numeric,
)
from repro.sweep.outputs import sweep_document, write_sweep_documents
from repro.workload import FamilySpec

#: Floats whose shortest repr is easy to get wrong when splicing text.
EDGE_FLOATS = (0.1, 1e-07, -0.0, 0.0, 1e16, 2.5e-308, -123456.789)

numbers = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-(2 ** 80), max_value=2 ** 80),
)
names = st.text(min_size=1, max_size=8)  # non-ASCII included
leaves = st.one_of(numbers, st.booleans(), st.none(), names)
values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(names, inner, max_size=3),
    ),
    max_leaves=8,
)
run_documents = st.fixed_dictionaries({
    "spec": st.dictionaries(names, values, max_size=4),
    "metrics": st.fixed_dictionaries(
        {"scenario": names},
        optional={"simulated_ms": numbers, "context_switches": numbers,
                  "syscalls": st.dictionaries(names, values, max_size=3),
                  "kernel_stats": st.dictionaries(names, values, max_size=3),
                  "energy_mj": numbers},
    ),
})


@settings(max_examples=80, deadline=None)
@given(documents=st.lists(run_documents, max_size=5), data=st.data())
def test_spliced_documents_are_the_canonical_encoding(documents, data):
    # A replayed run carries the text it was stored with; a fresh run
    # encodes its own.
    results = [
        RunResult(spec=document["spec"], metrics=document["metrics"],
                  metrics_json=(canonical_json(document)
                                if data.draw(st.booleans()) else None))
        for document in documents
    ]
    aggregate = aggregate_metrics(document["metrics"] for document in documents)
    timing = {"workers": 1, "per_run": [{} for _ in documents]}
    expected = sweep_document(documents, aggregate)
    with tempfile.TemporaryDirectory() as out_dir:
        metrics_path, aggregate_path = write_sweep_documents(
            out_dir, results, aggregate, timing)
        with open(aggregate_path, "rb") as handle:
            assert handle.read() == (
                canonical_json(expected) + "\n").encode("utf-8")
        with open(metrics_path, "rb") as handle:
            assert handle.read() == (canonical_json(
                {**expected, "timing": timing}) + "\n").encode("utf-8")


class Level(IntEnum):
    LOW = 1


def reference_flatten(document: Mapping, prefix: str = "") -> dict:
    """``flatten_numeric`` as the ABC checks alone define it."""
    flat = {}
    for key, value in document.items():
        dotted = f"{prefix}{key}"
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            flat[dotted] = float(value)
        elif isinstance(value, Mapping):
            flat.update(reference_flatten(value, prefix=f"{dotted}."))
    return flat


odd_leaves = st.one_of(leaves, st.just(Level.LOW),
                       st.builds(MappingProxyType, st.dictionaries(names, numbers,
                                                                   max_size=2)))
odd_values = st.recursive(
    odd_leaves,
    lambda inner: st.one_of(
        st.dictionaries(names, inner, max_size=3),
        st.dictionaries(names, inner, max_size=3).map(OrderedDict),
    ),
    max_leaves=10,
)


@settings(max_examples=100, deadline=None)
@given(document=st.dictionaries(names, odd_values, max_size=5))
def test_flatten_fast_path_keeps_every_result(document):
    flat = flatten_numeric(document)
    expected = reference_flatten(document)
    assert flat == expected and list(flat) == list(expected)


def reference_aggregate(results) -> dict:
    """``aggregate_metrics`` as flatten-then-sum defines it."""
    totals, counts, runs = {}, {}, 0
    for metrics in results:
        runs += 1
        for key, value in reference_flatten(metrics).items():
            totals[key] = totals.get(key, 0.0) + value
            counts[key] = counts.get(key, 0) + 1
    return {"runs": runs,
            "total": {key: totals[key] for key in sorted(totals)},
            "mean": {key: totals[key] / counts[key] for key in sorted(totals)}}


#: A few shared keys, so runs overlap and miss keys, and nested and dotted
#: keys flatten to the same name ("a" -> {"b": 1} and "a.b").
shared_keys = st.sampled_from(("a", "b", "a.b", "b.a", "1", ""))
summable = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(min_value=-1e300, max_value=1e300),
    st.integers(min_value=-(2 ** 80), max_value=2 ** 80),
)
metric_leaves = st.one_of(summable, st.booleans(), st.none(), names,
                          st.lists(summable, max_size=2), st.just(Level.LOW))
metric_values = st.recursive(
    metric_leaves,
    lambda inner: st.one_of(
        st.dictionaries(shared_keys | names, inner, max_size=3),
        st.dictionaries(shared_keys, inner, max_size=3).map(OrderedDict),
        st.dictionaries(shared_keys, inner, max_size=3).map(MappingProxyType),
    ),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(runs=st.lists(st.dictionaries(shared_keys | names, metric_values,
                                     max_size=5), max_size=6))
def test_aggregate_equals_flatten_then_sum(runs):
    assert canonical_json(aggregate_metrics(iter(runs))) == \
        canonical_json(reference_aggregate(runs))


def test_every_sweep_path_writes_the_same_aggregate(tmp_path, capsys):
    family = FamilySpec(name="one-assembler", count=5, seed=4,
                        kernels=("tkernel", "rtkspec1", "rtkspec2"),
                        duration_ms=6.0)
    family_path = tmp_path / "family.json"
    family_path.write_text(json.dumps(family.to_dict()))
    selection = ["--family", str(family_path)]
    cache = ["--cache", str(tmp_path / "cache")]

    def aggregate(out):
        return (tmp_path / out / "aggregate.json").read_bytes()

    assert main(["batch", *selection, "--serial",
                 "--out", str(tmp_path / "serial")]) == 0
    assert main(["batch", *selection, "--workers", "2",
                 "--out", str(tmp_path / "pooled")]) == 0
    assert main(["batch", *selection, *cache, "--out", str(tmp_path / "fill")]) == 0
    capsys.readouterr()
    assert main(["batch", *selection, *cache, "--out", str(tmp_path / "warm")]) == 0
    assert "5 hit(s), 0 simulated" in capsys.readouterr().out
    shard_dirs = [str(tmp_path / f"shard{index}") for index in range(3)]
    for index, shard_dir in enumerate(shard_dirs):
        assert main(["shard", "run", "--shards", "3", "--index", str(index),
                     *selection, "--out", shard_dir]) == 0
    assert main(["shard", "merge", *shard_dirs,
                 "--out", str(tmp_path / "merged")]) == 0

    reference = aggregate("serial")
    assert json.loads(reference)["campaign"]["runs"] == 5
    for out in ("pooled", "fill", "warm", "merged"):
        assert aggregate(out) == reference, out
    assert sorted(os.listdir(tmp_path / "merged")) == sorted(
        os.listdir(tmp_path / "serial"))
