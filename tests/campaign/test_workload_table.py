"""The workload table: every knob a spec may set, checked at plan time.

``repro.campaign.spec.WORKLOADS`` lists each workload's kernels and knobs.
A knob the workload does not have is a one-line ``SpecError`` (exit 2)
through every CLI entry point, before any simulator exists, and the
knobs the workloads actually read are exactly the table's rows.
"""

import json

import pytest

from repro.campaign.cli import main
from repro.campaign.spec import LABELS, WORKLOADS, ScenarioSpec, SpecError
from repro.sysc.kernel import Simulator
from repro.sysc.time import SimTime
from repro.workload.components import compose, describe_parts


@pytest.fixture
def no_simulator(monkeypatch):
    def forbidden(self, *args, **kwargs):
        raise AssertionError("an invalid spec reached a Simulator")

    monkeypatch.setattr(Simulator, "__init__", forbidden)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)


def _spec_document(tmp_path, **extra):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"name": "doc", "extra": extra}))
    return path


ENTRY_POINTS = {
    "run --set": lambda tmp: ["run", "quickstart", "--set", "itmes=5"],
    "describe --set": lambda tmp: ["describe", "quickstart", "--set",
                                   "itmes=5"],
    "batch --matrix": lambda tmp: ["batch", "--scenario", "quickstart",
                                   "--matrix", "itmes=1,2,3",
                                   "--out", str(tmp / "out")],
    "batch --spec-dir": lambda tmp: ["batch", "--spec-dir",
                                     str(_spec_document(tmp, itmes=5).parent),
                                     "--out", str(tmp / "out")],
    "run --spec": lambda tmp: ["run", "--spec",
                               str(_spec_document(tmp, itmes=5))],
    "shard plan --matrix": lambda tmp: ["shard", "plan", "--shards", "2",
                                        "--index", "0", "--scenario",
                                        "quickstart", "--matrix", "itmes=1,2"],
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_unknown_knob_exits_2_before_any_simulation(
        entry, tmp_path, capsys, no_simulator):
    assert main(ENTRY_POINTS[entry](tmp_path)) == 2
    [error] = capsys.readouterr().err.strip().splitlines()
    assert error.startswith("error:")
    assert "'itmes' is not a knob of workload 'quickstart'" in error
    assert "(knobs: items, heartbeat_ms)" in error
    assert not (tmp_path / "out").exists()


def test_family_batch_with_an_unknown_knob_exits_2(tmp_path, capsys,
                                                    no_simulator):
    from repro.workload.families import FamilySpec

    family = tmp_path / "family.json"
    family.write_text(json.dumps(
        FamilySpec(name="f", count=3, seed=1).validate().to_dict()))
    assert main(["batch", "--family", str(family), "--set", "bogus=1",
                 "--out", str(tmp_path / "out")]) == 2
    [error] = capsys.readouterr().err.strip().splitlines()
    assert "'bogus' is not a knob" in error
    assert "(knobs: tasks, cyclics, platform)" in error


def test_the_tkernel_priority_bound_is_the_kernel_models():
    """The spec layer states T-Kernel's range as a literal, because it
    loads no kernel module; it must be the model's own bound."""
    from repro.campaign.spec import MAX_PRIORITY
    from repro.core.scheduler import PRIORITY_LEVELS
    from repro.tkernel.types import MAX_TASK_PRIORITY, MIN_TASK_PRIORITY

    assert MIN_TASK_PRIORITY == 1
    assert MAX_PRIORITY["tkernel"] == MAX_TASK_PRIORITY
    assert MAX_PRIORITY["rtkspec1"] == MAX_PRIORITY["rtkspec2"] \
        == PRIORITY_LEVELS - 1


@pytest.mark.parametrize("kernel, workload, lowest", [
    ("tkernel", "synthetic", 140),
    ("rtkspec2", "synthetic", 255),
    ("rtkspec1", "scheduler_comparison", 255),
])
def test_priorities_past_the_kernel_range_are_refused(kernel, workload,
                                                      lowest):
    spec = ScenarioSpec(name="x", kernel=kernel, workload=workload,
                        task_count=2, priorities=[1, lowest])
    spec.validate()
    spec.priorities = [1, lowest + 1]
    with pytest.raises(SpecError, match=rf"priorities must be in "
                       rf"\[1, {lowest}\] on kernel '{kernel}'"):
        spec.validate()


def test_a_priority_past_the_range_exits_2_before_any_simulation(
        capsys, no_simulator):
    assert main(["run", "synthetic-tkernel",
                 "--set", "priorities=1000,1000,1000,1000"]) == 2
    [error] = capsys.readouterr().err.strip().splitlines()
    assert "priorities must be in [1, 140] on kernel 'tkernel'" in error


def test_a_workload_without_knobs_says_so():
    spec = ScenarioSpec(name="x", kernel="rtkspec2",
                        workload="scheduler_comparison", extra={"jobs": 3})
    with pytest.raises(SpecError, match=r"'jobs' is not a knob of workload "
                       r"'scheduler_comparison' \(knobs: none\)"):
        spec.validate()


def test_labels_are_accepted_by_every_workload():
    for workload, (kernels, knobs) in WORKLOADS.items():
        extra = {"family": "f", "member": 0}
        if "tasks" in knobs:
            extra["tasks"] = [{"name": "t0"}]
        ScenarioSpec(name="x", kernel=kernels[0], workload=workload,
                     extra=extra).validate()
    assert LABELS == ("family", "member")


class ReadRecorder(dict):
    """An ``extra`` mapping that records every key a reader asks for."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


#: A value for each structured knob: the one generated task set.
STRUCTURED = {"tasks": [{"name": "t0"}], "cyclics": [], "platform": "bare"}


def _walk(workload, kernel, extra):
    """Compose, describe, build and briefly run one spec; the knob names
    the workload read from ``extra``."""
    spec = ScenarioSpec(name=f"walk-{workload}", kernel=kernel,
                        workload=workload, duration_ms=2.0,
                        extra=ReadRecorder(extra))
    workload = compose(spec)
    describe_parts(spec, workload)
    simulator = Simulator(spec.name)
    try:
        workload.build(spec, simulator)
        simulator.run(SimTime.ms(1))
    finally:
        simulator.close()
    return spec.extra.read


@pytest.mark.parametrize("workload, kernel", [
    (workload, kernel)
    for workload, (kernels, _) in WORKLOADS.items() for kernel in kernels
])
@pytest.mark.parametrize("knobs_set", ["required", "all"])
def test_workloads_read_exactly_their_table_knobs(workload, kernel,
                                                  knobs_set):
    knobs = WORKLOADS[workload][1]
    extra = {"family": "walk", "member": 0}
    if "tasks" in knobs:
        extra["tasks"] = STRUCTURED["tasks"]
    if knobs_set == "all":
        for name, row in knobs.items():
            if row is None:
                extra[name] = STRUCTURED[name]
            else:
                kind, default, minimum = row
                extra[name] = kind(minimum if default is None else default)
    assert _walk(workload, kernel, extra) == set(knobs)
