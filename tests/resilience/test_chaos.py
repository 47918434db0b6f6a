"""Chaos-injector contracts: explicit, targeted, deterministic, once."""

import os

import pytest

from repro.campaign.metrics import RunResult
from repro.grid.store import ResultStore, section_span
from repro.sweep.chaos import (
    ChaosError,
    ChaosInjection,
    ChaosInjector,
    TransientChaosError,
    chaos_active,
    choose_index,
)
from repro.sweep.hooks import chaos_enabled, chaos_point, phase_of


class TestInjectionSpec:
    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError):
            ChaosInjection(kind="meteor-strike")

    def test_matchers_narrow_by_phase_scenario_and_index(self):
        injection = ChaosInjection(kind="raise", phase="build",
                                   scenario="s", index=3)
        assert injection.matches("build", "s", 3)
        assert not injection.matches("run-start", "s", 3)
        assert not injection.matches("build", "other", 3)
        assert not injection.matches("build", "s", 4)

    def test_none_matchers_are_wildcards(self):
        injection = ChaosInjection(kind="raise")
        assert injection.matches("stored", "anything", 99)


class TestFiring:
    def test_production_chaos_point_is_a_no_op(self):
        assert not chaos_enabled()
        chaos_point("build", scenario="s", index=0)  # must not raise

    def test_chaos_active_installs_and_uninstalls(self):
        injector = ChaosInjector([], seed=1)
        with chaos_active(injector):
            assert chaos_enabled()
        assert not chaos_enabled()

    def test_raise_kinds_carry_phase_and_transience(self):
        injector = ChaosInjector([
            ChaosInjection(kind="raise", phase="stored"),
        ])
        with chaos_active(injector):
            with pytest.raises(ChaosError) as caught:
                chaos_point("stored", scenario="s", index=0)
        assert phase_of(caught.value) == "store"
        assert not getattr(caught.value, "transient")

        injector = ChaosInjector([
            ChaosInjection(kind="raise-transient", phase="run-start"),
        ])
        with chaos_active(injector):
            with pytest.raises(TransientChaosError) as caught:
                chaos_point("run-start", scenario="s", index=0)
        assert getattr(caught.value, "transient")

    def test_once_marker_burns_after_the_first_fire(self, tmp_path):
        marker = str(tmp_path / "fired")
        injector = ChaosInjector([
            ChaosInjection(kind="raise", once_marker=marker),
        ])
        with chaos_active(injector):
            with pytest.raises(ChaosError):
                chaos_point("build", scenario="s", index=0)
            chaos_point("build", scenario="s", index=0)  # burned: silent
        assert os.path.exists(marker)

    def _stored_entry(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        spec = {"name": "s", "kernel": "tkernel", "workload": "generated",
                "seed": 0, "duration_ms": 10.0}
        entry = store.put(RunResult(spec, {"context_switches": 1}),
                          b'{"t_ns": 100}\n{"t_ns": 200}\n' * 5)
        return store, spec, entry

    def test_corrupt_store_flips_one_byte_of_the_section(self, tmp_path):
        store, spec, entry = self._stored_entry(tmp_path)
        with open(entry.path, "rb") as handle:
            original = handle.read()
        injector = ChaosInjector([
            ChaosInjection(kind="corrupt-store", phase="stored"),
        ])
        with chaos_active(injector):
            chaos_point("stored", scenario="s", index=0,
                        entry_path=entry.path)
        with open(entry.path, "rb") as handle:
            mutated = handle.read()
        offset, size = section_span(entry.path, "events")
        changed = [i for i, (a, b) in enumerate(zip(mutated, original))
                   if a != b]
        assert len(mutated) == len(original)
        assert changed == [offset + size // 2]
        assert store.check_entry(entry.key, entry.path)[1] == [
            "events digest mismatch"]

    def test_torn_write_truncates_inside_the_section(self, tmp_path):
        store, spec, entry = self._stored_entry(tmp_path)
        offset, size = section_span(entry.path, "events")
        injector = ChaosInjector([
            ChaosInjection(kind="torn-write", phase="stored"),
        ])
        with chaos_active(injector):
            chaos_point("stored", scenario="s", index=0,
                        entry_path=entry.path)
        assert os.path.getsize(entry.path) == offset + (size * 3) // 5
        assert store.lookup(spec) is None


class TestChooseIndex:
    def test_stable_across_calls(self):
        assert choose_index(7, 24) == choose_index(7, 24)
        assert choose_index(7, 24, salt="kill") == \
            choose_index(7, 24, salt="kill")

    def test_in_range_and_seed_sensitive(self):
        picks = {choose_index(seed, 24) for seed in range(50)}
        assert all(0 <= pick < 24 for pick in picks)
        assert len(picks) > 1

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError):
            choose_index(0, 0)
