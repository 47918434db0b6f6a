"""Each fresh run validates its spec once.

The sweep validates where it plans and runs a validated copy
(:class:`~repro.campaign.spec.ValidatedSpec`), ``repro run`` validates
where it loads, and ``run_spec`` called directly validates what it is
handed — and none of them checks the same spec a second time in
``run_spec`` or ``compose``.
"""

import json

import pytest

from repro.campaign.cli import main
from repro.campaign.runner import run_spec
from repro.campaign.spec import ScenarioSpec, SpecError
from repro.sweep.batch import run_batch
from repro.workload.families import FamilySpec, expand_family


@pytest.fixture
def validations(monkeypatch):
    """A list that gets one entry per ``ScenarioSpec.validate`` call."""
    calls = []
    real = ScenarioSpec.validate

    def counting(self):
        calls.append(self.name)
        return real(self)

    monkeypatch.setattr(ScenarioSpec, "validate", counting)
    return calls


def family_specs(count):
    return expand_family(FamilySpec(
        name="validate-once", count=count, seed=5,
        kernels=("tkernel", "rtkspec1", "rtkspec2"), duration_ms=5.0))


def test_a_serial_sweep_validates_each_fresh_run_once(validations):
    specs = family_specs(12)
    batch = run_batch(specs, workers=1)
    assert len(batch.results) == 12
    assert sorted(validations) == sorted(spec.name for spec in specs)


def test_run_spec_validates_what_a_library_caller_hands_it(validations):
    spec = ScenarioSpec(name="lib", workload="quickstart", duration_ms=20)
    result = run_spec(spec, collect_events=False)
    assert validations == ["lib"]
    assert result.spec["duration_ms"] == 20.0  # normalised by validate
    with pytest.raises(SpecError):
        run_spec(ScenarioSpec(name="bad", workload="quickstart",
                              duration_ms=-1.0))


def test_a_plain_repro_run_validates_once(validations, capsys):
    assert main(["run", "quickstart"]) == 0
    capsys.readouterr()
    assert validations == ["quickstart"]


def test_a_repro_run_with_overrides_validates_once(validations, capsys):
    assert main(["run", "quickstart", "--set", "duration_ms=30",
                 "--set", "seed=4"]) == 0
    capsys.readouterr()
    assert validations == ["quickstart"]


def test_an_override_of_a_validated_copy_is_validated_again(validations):
    from repro.campaign.spec import ValidatedSpec

    checked = ValidatedSpec.copy_of(
        ScenarioSpec(name="copy", workload="quickstart").validate())
    changed = checked.with_overrides({"duration_ms": -1.0})
    assert type(changed) is ScenarioSpec
    with pytest.raises(SpecError):
        run_spec(changed)


def test_planning_a_named_scenario_with_overrides_validates_once(validations):
    from repro.sweep.plan import plan_batch

    specs = plan_batch(["rtk-priority"], overrides={"duration_ms": 30.0})
    assert [spec.duration_ms for spec in specs] == [30.0]
    assert validations == ["rtk-priority"]


def test_a_repro_run_of_a_spec_file_with_overrides_validates_once(
        validations, capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(
        ScenarioSpec(name="doc", workload="quickstart").to_dict()))
    assert main(["run", "--spec", str(path), "--set", "duration_ms=30"]) == 0
    assert "doc" in capsys.readouterr().out
    assert validations == ["doc"]
    assert main(["run", "--spec", str(path), "--set", "duration_ms=-1"]) == 2
    assert "duration_ms" in capsys.readouterr().err
