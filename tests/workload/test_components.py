"""Scenario construction from a spec: compose(), components, task model."""

import pytest

from repro.campaign.spec import ScenarioSpec, SpecError
from repro.workload import TaskDef, compose, platform_kind
from repro.workload.components import describe_parts, instantiate_kernel
from repro.workload.tasks import CyclicDef, parse_taskset


class TestCompose:
    def test_every_spec_workload_has_a_component(self):
        from repro.campaign.spec import WORKLOADS
        from repro.workload.builtins import COMPONENTS

        assert sorted(COMPONENTS) == sorted(WORKLOADS)

    def test_composition_parts_resolve_from_the_spec(self):
        from repro.workload.builtins import SchedulerComparisonWorkload

        spec = ScenarioSpec(
            name="x", kernel="rtkspec1", workload="scheduler_comparison",
            tick_ms=2.0, time_slice_ticks=7,
        )
        workload = compose(spec)
        assert isinstance(workload, SchedulerComparisonWorkload)
        document = describe_parts(spec, workload)
        assert document["platform"] == {"kind": "bare", "tick_ms": 2.0}
        assert document["kernel"] == {
            "model": "rtkspec1", "tick_ms": 2.0, "time_slice_ticks": 7}
        assert document["workload"]["name"] == "scheduler_comparison"

    def test_framework_workloads_compose_the_i8051_platform(self):
        spec = ScenarioSpec(
            name="x", kernel="tkernel", workload="videogame",
            gui_enabled=True, bfm_access_period_ms=25,
        )
        assert platform_kind(spec) == "i8051"
        described = describe_parts(spec, compose(spec))["platform"]
        assert described["bfm_access_period_ms"] == 25
        assert "interrupt_controller" in described["controllers"]
        assert "lcd" in described["peripherals"]

    def test_describe_is_json_safe_and_fully_resolved(self):
        from repro.obs.bus import canonical_json

        spec = ScenarioSpec(name="x", kernel="rtkspec2", workload="synthetic",
                            seed=11, task_count=3)
        document = describe_parts(spec, compose(spec))
        canonical_json(document)  # must not raise
        assert len(document["workload"]["tasks"]) == 3
        assert document["kernel"] == {"model": "rtkspec2", "tick_ms": 1.0}

    def test_workload_kernel_mismatch_is_a_spec_error(self):
        spec = ScenarioSpec(name="x", kernel="rtkspec2", workload="quickstart")
        with pytest.raises(SpecError):
            compose(spec)

    def test_unknown_component_name_is_a_spec_error(self):
        with pytest.raises(SpecError, match="unknown workload"):
            compose(ScenarioSpec(name="x", workload="nope"))


class TestKernelInstantiation:
    def test_instantiate_kernel_builds_the_spec_model(self):
        from repro.rtkspec import RTKSpec1, RTKSpec2
        from repro.sysc.kernel import Simulator
        from repro.tkernel import TKernelOS

        kernel = instantiate_kernel(ScenarioSpec(
            name="t", kernel="rtkspec1", time_slice_ticks=9), Simulator("t"))
        assert isinstance(kernel, RTKSpec1)
        assert kernel.time_slice_ticks == 9
        assert isinstance(instantiate_kernel(ScenarioSpec(
            name="t2", kernel="rtkspec2"), Simulator("t2")), RTKSpec2)
        assert isinstance(instantiate_kernel(ScenarioSpec(
            name="t3"), Simulator("t3")), TKernelOS)


class TestTaskModel:
    def test_law_specific_round_trip(self):
        task = TaskDef(name="t0", law="sporadic", min_gap_ms=2.0,
                       max_gap_ms=8.0, services=("sem",)).validate()
        document = task.to_dict()
        assert document["law"] == "sporadic"
        assert "period_ms" not in document  # only the law's fields serialize
        assert TaskDef.from_dict(document) == TaskDef.from_dict(document)

    def test_unknown_fields_and_laws_are_rejected(self):
        with pytest.raises(SpecError, match="unknown task fields"):
            TaskDef.from_dict({"name": "t", "wcet": 3})
        with pytest.raises(SpecError, match="arrival law"):
            TaskDef(name="t", law="poisson").validate()
        with pytest.raises(SpecError, match="service calls"):
            TaskDef(name="t", services=("rpc",)).validate()

    def test_gaps_are_deterministic_per_seed(self):
        import random

        task = TaskDef(name="t", law="jittered", period_ms=10.0, jitter_ms=4.0)
        gaps_a = [task.gap_ms(random.Random(7), j) for j in range(5)]
        gaps_b = [task.gap_ms(random.Random(7), j) for j in range(5)]
        assert gaps_a == gaps_b
        assert all(10.0 <= gap <= 14.0 for gap in gaps_a)

    def test_bursty_gap_alternates_intra_and_burst(self):
        import random

        task = TaskDef(name="t", law="bursty", burst_size=2,
                       intra_gap_ms=1.0, burst_gap_ms=30.0)
        rng = random.Random(0)
        assert [task.gap_ms(rng, j) for j in range(4)] == [1.0, 30.0, 1.0, 30.0]

    def test_parse_taskset_rejects_duplicates_and_empties(self):
        with pytest.raises(SpecError, match="non-empty"):
            parse_taskset([])
        with pytest.raises(SpecError, match="duplicate"):
            parse_taskset([{"name": "t"}, {"name": "t"}])
        tasks, cyclics = parse_taskset(
            [{"name": "a"}, {"name": "b"}],
            [{"name": "c", "period_ms": 5, "execution_us": 80}],
        )
        assert [task.name for task in tasks] == ["a", "b"]
        assert isinstance(cyclics[0], CyclicDef)


class TestGeneratedWorkload:
    def _spec(self, **kwargs):
        base = dict(
            name="gen", kernel="tkernel", workload="generated",
            duration_ms=20.0, seed=5,
            extra={"tasks": [
                {"name": "t0", "law": "periodic", "period_ms": 5.0,
                 "execution_ms": 1.0, "jobs": 2, "services": ["sem"]},
                {"name": "t1", "law": "sporadic", "min_gap_ms": 2.0,
                 "max_gap_ms": 6.0, "execution_ms": 0.5, "jobs": 2},
            ]},
        )
        base.update(kwargs)
        return ScenarioSpec(**base)

    def test_runs_and_counts_jobs_and_service_rounds(self):
        from repro.campaign.runner import run_spec

        result = run_spec(self._spec())
        workload = result.metrics["workload_metrics"]
        assert workload["jobs_completed"] == 4
        assert workload["service_rounds"] == 2
        assert result.metrics["syscall_total"] > 0

    def test_is_deterministic(self):
        from repro.campaign.runner import run_spec

        first = run_spec(self._spec())
        second = run_spec(self._spec())
        assert first.metrics_json() == second.metrics_json()
        assert first.events == second.events

    def test_cyclic_handler_pattern_fires(self):
        from repro.campaign.runner import run_spec

        spec = self._spec()
        spec.extra["cyclics"] = [
            {"name": "cyc", "period_ms": 5, "execution_us": 100}
        ]
        result = run_spec(spec)
        assert result.metrics["workload_metrics"]["handler_fires"] > 0

    def test_rtc_platform_drives_the_kernel_tick(self):
        from repro.campaign.runner import run_spec

        spec = self._spec()
        spec.extra["platform"] = "rtc"
        assert platform_kind(spec) == "rtc"
        result = run_spec(spec)
        assert result.metrics["workload_metrics"]["jobs_completed"] == 4
        assert result.metrics["kernel_stats"]["tick_handler_runs"] > 0

    def test_rtk_members_reject_tkernel_only_features(self):
        from repro.campaign.registry import build_scenario, describe_scenario

        spec = self._spec(kernel="rtkspec2")
        with pytest.raises(SpecError, match="service-call mix"):
            build_scenario(spec)
        with pytest.raises(SpecError, match="service-call mix"):
            describe_scenario(spec)
        spec.extra["tasks"] = [{"name": "t0"}]
        spec.extra["cyclics"] = [{"name": "c", "period_ms": 5,
                                  "execution_us": 50}]
        with pytest.raises(SpecError, match="cyclic"):
            build_scenario(spec)
        del spec.extra["cyclics"]
        spec.extra["platform"] = "rtc"
        with pytest.raises(SpecError, match="rtc"):
            build_scenario(spec)  # rejected before any parse
        with pytest.raises(SpecError, match="rtc"):
            describe_scenario(spec)

    def _refused_past(self, kernel, lowest):
        """*kernel* builds a task of priority *lowest* and refuses one past
        it, at build and at describe alike."""
        from repro.campaign.registry import build_scenario, describe_scenario

        spec = self._spec(kernel=kernel)
        spec.extra["tasks"] = [{"name": "t0", "priority": lowest + 1}]
        for plan_time in (build_scenario, describe_scenario):
            with pytest.raises(SpecError, match=rf"\[1, {lowest}\]"):
                plan_time(spec)
        spec.extra["tasks"] = [{"name": "t0", "priority": lowest}]
        build_scenario(spec)

    def test_rtk_priority_outside_scheduler_range_is_a_spec_error(self):
        self._refused_past("rtkspec1", 255)
        self._refused_past("rtkspec2", 255)

    def test_tkernel_priority_outside_itron_range_is_a_spec_error(self):
        """No interpreter clamps a priority into T-Kernel's range."""
        self._refused_past("tkernel", 140)

    def test_a_task_the_kernel_refuses_fails_the_run(self):
        """T-Kernel holds ``MAX_OBJECTS`` tasks, the init task among them:
        the 256th task document is refused with ``E_LIMIT``, and the run
        fails naming the code and the task instead of running 255 of 300
        tasks.  RTK-Spec II has no such limit and runs all 300."""
        from repro.campaign.runner import run_spec

        tasks = [{"name": f"t{index}", "execution_ms": 0.1, "jobs": 1}
                 for index in range(300)]
        spec = self._spec(task_count=300, duration_ms=400.0,
                          extra={"tasks": tasks})
        with pytest.raises(SpecError,
                           match="'t255': tk_cre_tsk returned E_LIMIT"):
            run_spec(spec, collect_events=False)
        spec = self._spec(kernel="rtkspec2", task_count=300,
                          duration_ms=400.0, extra={"tasks": tasks})
        result = run_spec(spec, collect_events=False)
        assert result.metrics["threads"] == 300
        assert result.metrics["workload_metrics"]["jobs_completed"] == 300

    def test_rtk_generated_runs(self):
        from repro.campaign.runner import run_spec

        spec = self._spec(kernel="rtkspec2")
        spec.extra["tasks"] = [
            {"name": "t0", "law": "bursty", "burst_size": 2,
             "intra_gap_ms": 1.0, "burst_gap_ms": 8.0,
             "execution_ms": 1.0, "jobs": 3},
        ]
        result = run_spec(spec)
        assert result.metrics["workload_metrics"]["jobs_completed"] == 3

    def test_missing_tasks_is_a_one_line_spec_error(self):
        from repro.campaign.registry import build_scenario, describe_scenario

        spec = ScenarioSpec(name="gen", workload="generated")
        with pytest.raises(SpecError, match="non-empty 'tasks'"):
            build_scenario(spec)
        with pytest.raises(SpecError, match="non-empty 'tasks'"):
            describe_scenario(spec)


class TestLazyImportSeam:
    def test_scenario_build_reexports_resolve_lazily(self):
        import repro.campaign as campaign
        import repro.campaign.registry as registry
        from repro.workload.components import ScenarioBuild

        assert campaign.ScenarioBuild is ScenarioBuild
        with pytest.raises(AttributeError):
            registry.does_not_exist
