"""Spec validation, serialization and matrix expansion."""

import pytest

from repro.campaign import ScenarioSpec, SpecError, derive_seed, expand_matrix
from repro.campaign.spec import (
    coerce_value,
    spec_hash,
    parse_matrix_axis,
    parse_overrides,
)


class TestValidation:
    def test_valid_spec_passes_and_chains(self):
        spec = ScenarioSpec(name="ok")
        assert spec.validate() is spec

    @pytest.mark.parametrize(
        "overrides, needle",
        [
            ({"kernel": "freertos"}, "unknown kernel"),
            ({"workload": "raytracer"}, "unknown workload"),
            ({"duration_ms": 0}, "duration_ms"),
            ({"task_count": 0}, "task_count"),
            ({"period_ms": -1}, "period_ms"),
            ({"bfm_access_period_ms": 0}, "bfm_access_period_ms"),
            ({"tick_ms": 0}, "tick_ms"),
            ({"time_slice_ticks": 0}, "time_slice_ticks"),
            ({"priorities": [1, 2, 3]}, "priorities"),
        ],
    )
    def test_bad_field_raises_with_message(self, overrides, needle):
        spec = ScenarioSpec(name="bad", task_count=4)
        for key, value in overrides.items():
            setattr(spec, key, value)
        with pytest.raises(SpecError, match=needle):
            spec.validate()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field_name", ["duration_ms", "period_ms", "tick_ms"])
    def test_non_finite_time_rejected(self, field_name, value):
        spec = ScenarioSpec(name="x")
        setattr(spec, field_name, value)
        with pytest.raises(SpecError, match=f"{field_name} must be a finite"):
            spec.validate()

    def test_time_that_rounds_to_zero_ns_rejected(self):
        spec = ScenarioSpec(name="x", tick_ms=1e-300)
        with pytest.raises(SpecError, match="tick_ms must be positive"):
            spec.validate()
        spec.tick_ms = 1e-6  # exactly 1 ns
        assert spec.validate() is spec

    def test_non_numeric_field_rejected(self):
        spec = ScenarioSpec(name="x")
        spec.duration_ms = "abc"
        with pytest.raises(SpecError, match="must be a number"):
            spec.validate()

    def test_bool_rejected_for_integer_field(self):
        spec = ScenarioSpec(name="x")
        spec.task_count = True
        with pytest.raises(SpecError, match="must be an integer"):
            spec.validate()

    def test_tkernel_only_workload_rejects_rtk_kernels(self):
        spec = ScenarioSpec(name="x", kernel="rtkspec1", workload="videogame")
        with pytest.raises(SpecError, match="requires kernel 'tkernel'"):
            spec.validate()

    def test_scheduler_comparison_rejects_tkernel(self):
        spec = ScenarioSpec(name="x", kernel="tkernel",
                            workload="scheduler_comparison")
        with pytest.raises(SpecError, match="rtkspec1"):
            spec.validate()

    def test_multiple_problems_reported_together(self):
        spec = ScenarioSpec(name="x", kernel="nope", duration_ms=-1)
        with pytest.raises(SpecError, match="unknown kernel.*duration_ms"):
            spec.validate()


class TestSerialization:
    def test_round_trip(self):
        spec = ScenarioSpec(
            name="rt", kernel="rtkspec2", workload="synthetic",
            duration_ms=75.0, task_count=3, seed=42, extra={"jobs": 2},
        )
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError, match="unknown spec fields"):
            ScenarioSpec.from_dict({"name": "x", "cpu_count": 4})

    def test_missing_name_rejected(self):
        with pytest.raises(SpecError, match="name"):
            ScenarioSpec.from_dict({"kernel": "tkernel"})

    def test_overrides_split_between_fields_and_extra(self):
        spec = ScenarioSpec(name="x", extra={"jobs": 3})
        updated = spec.with_overrides({"duration_ms": 9.0, "render_cycles": 40})
        assert updated.duration_ms == 9.0
        assert updated.extra == {"jobs": 3, "render_cycles": 40}
        # the original is untouched
        assert spec.duration_ms == 100.0 and spec.extra == {"jobs": 3}


class TestOneKeyPerSimulation:
    """An int given for a float field or knob is stored as the equal float:
    30 and 30.0 are one spec document and one cache key."""

    @pytest.mark.parametrize("field", ["duration_ms", "period_ms", "tick_ms"])
    def test_float_fields(self, field):
        as_int = ScenarioSpec(name="x", **{field: 2}).validate()
        as_float = ScenarioSpec(name="x", **{field: 2.0}).validate()
        assert type(getattr(as_int, field)) is float
        assert spec_hash(as_int) == spec_hash(as_float)

    def test_float_knobs_and_not_int_knobs(self):
        base = ScenarioSpec(name="x", workload="sync_tour")
        as_int = base.with_overrides({"sample_ms": 2, "samples": 3}).validate()
        as_float = base.with_overrides({"sample_ms": 2.0, "samples": 3}).validate()
        assert as_int.extra == {"sample_ms": 2.0, "samples": 3}
        assert type(as_int.extra["sample_ms"]) is float
        assert type(as_int.extra["samples"]) is int
        assert spec_hash(as_int) == spec_hash(as_float)

    def test_an_int_past_the_float_range_is_refused(self):
        with pytest.raises(SpecError, match="finite"):
            ScenarioSpec(name="x", duration_ms=10 ** 400).validate()
        with pytest.raises(SpecError, match="finite"):
            ScenarioSpec(name="x", workload="sync_tour",
                         extra={"sample_ms": 10 ** 400}).validate()

class TestMatrixExpansion:
    def test_empty_matrix_yields_single_run(self):
        specs = expand_matrix(ScenarioSpec(name="solo"))
        assert len(specs) == 1 and specs[0].name == "solo"

    def test_cross_product_order_is_deterministic(self):
        base = ScenarioSpec(name="m", kernel="rtkspec2", workload="synthetic")
        specs = expand_matrix(base, {"task_count": [2, 3], "period_ms": [5, 10]})
        names = [spec.name for spec in specs]
        assert names == [
            "m[task_count=2-period_ms=5]",
            "m[task_count=2-period_ms=10]",
            "m[task_count=3-period_ms=5]",
            "m[task_count=3-period_ms=10]",
        ]

    def test_derived_seeds_are_stable_and_distinct(self):
        base = ScenarioSpec(name="m", seed=9)
        first = expand_matrix(base, {"task_count": [1, 2, 3]})
        second = expand_matrix(base, {"task_count": [1, 2, 3]})
        assert [s.seed for s in first] == [s.seed for s in second]
        assert len({s.seed for s in first}) == 3
        assert first[0].seed == derive_seed(9, 0, "m")

    def test_matrix_sweeping_seed_wins_over_derivation(self):
        base = ScenarioSpec(name="m")
        specs = expand_matrix(base, {"seed": [100, 200]})
        assert [s.seed for s in specs] == [100, 200]

    def test_invalid_expanded_spec_raises(self):
        base = ScenarioSpec(name="m")
        with pytest.raises(SpecError):
            expand_matrix(base, {"duration_ms": [10, -5]})

    def test_only_copies_an_axis_changes_are_validated_again(
            self, monkeypatch):
        base = ScenarioSpec(name="m").validate()
        validated = []
        real = ScenarioSpec.validate

        def counting(spec):
            validated.append(spec.name)
            return real(spec)

        monkeypatch.setattr(ScenarioSpec, "validate", counting)
        [copy] = expand_matrix(base)
        assert copy is not base and copy.seed == derive_seed(0, 0, "m")
        assert expand_matrix(base, derive_seeds=False) == [base]
        assert validated == []
        expand_matrix(base, {"seed": [1, 2]})
        assert validated == ["m[seed=1]", "m[seed=2]"]

    def test_empty_axis_rejected(self):
        with pytest.raises(SpecError, match="non-empty"):
            expand_matrix(ScenarioSpec(name="m"), {"seed": []})


class TestCliParsing:
    def test_coerce_value(self):
        assert coerce_value("true") is True
        assert coerce_value("off") is False
        assert coerce_value("3") == 3
        assert coerce_value("2.5") == 2.5
        assert coerce_value("tkernel") == "tkernel"

    def test_parse_matrix_axis(self):
        key, values = parse_matrix_axis("seed=1,2,3")
        assert key == "seed" and values == [1, 2, 3]
        with pytest.raises(SpecError):
            parse_matrix_axis("seed")
        with pytest.raises(SpecError):
            parse_matrix_axis("seed=")

    def test_parse_overrides(self):
        assert parse_overrides(["duration_ms=25", "gui_enabled=false"]) == {
            "duration_ms": 25,
            "gui_enabled": False,
        }
        with pytest.raises(SpecError):
            parse_overrides(["oops"])

    def test_parse_overrides_comma_value_becomes_list(self):
        assert parse_overrides(["priorities=5,10,15"]) == {
            "priorities": [5, 10, 15]
        }

    def test_non_list_priorities_rejected(self):
        spec = ScenarioSpec(name="x")
        spec.priorities = "1,2"
        with pytest.raises(SpecError, match="priorities must be a list"):
            spec.validate()


class TestValidationHardening:
    """PR-5 hardening: type errors surface as one-line SpecErrors."""

    def test_gui_enabled_must_be_a_bool(self):
        spec = ScenarioSpec(name="x", gui_enabled="yes")
        with pytest.raises(SpecError, match="gui_enabled"):
            spec.validate()

    def test_extra_must_be_a_string_keyed_mapping(self):
        with pytest.raises(SpecError, match="extra"):
            ScenarioSpec(name="x", extra=[("items", 3)]).validate()
        with pytest.raises(SpecError, match="extra"):
            ScenarioSpec(name="x", extra={3: "items"}).validate()

    def test_name_must_be_a_string(self):
        with pytest.raises(SpecError, match="name"):
            ScenarioSpec(name=7).validate()

    def test_generated_workload_is_known(self):
        spec = ScenarioSpec(name="x", workload="generated")
        assert spec.validate() is spec

    def test_empty_override_key_rejected(self):
        from repro.campaign.spec import parse_overrides

        with pytest.raises(SpecError, match="empty key"):
            parse_overrides(["=3"])
        with pytest.raises(SpecError, match="empty key"):
            parse_overrides([" =3"])

    def test_empty_matrix_axis_key_rejected(self):
        from repro.campaign.spec import parse_matrix_axis

        with pytest.raises(SpecError, match="empty key"):
            parse_matrix_axis("=1,2")
