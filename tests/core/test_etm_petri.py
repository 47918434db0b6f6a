"""Unit tests for the ETM/EEM models and the Petri-net bookkeeping."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.etm import (
    AnnotationTable,
    EnergyModel,
    TimingAnnotation,
    TimingModel,
    default_service_call_annotations,
)
from repro.core.events import ExecutionContext, RunEvent
from repro.core.petri import PetriToken, Transition
from repro.sysc.time import SimTime


class TestTimingAnnotation:
    def test_negative_cycles_rejected(self):
        with pytest.raises(ValueError):
            TimingAnnotation(-1)

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            TimingAnnotation(10, energy_nj=-1.0)

    def test_scaled(self):
        scaled = TimingAnnotation(100, 50.0).scaled(2.0)
        assert scaled.cycles == 200
        assert scaled.energy_nj == 100.0

    def test_scaled_preserves_none_energy(self):
        assert TimingAnnotation(100).scaled(3.0).energy_nj is None


class TestTimingModel:
    def test_default_8051_cycle_is_one_microsecond(self):
        model = TimingModel()
        assert model.time_of(1) == SimTime.us(1)
        assert model.time_of(1000) == SimTime.ms(1)

    def test_cycles_roundtrip(self):
        model = TimingModel()
        assert model.cycles_of(SimTime.ms(2)) == 2000

    def test_custom_frequency(self):
        model = TimingModel(clock_hz=24_000_000, clocks_per_cycle=12)
        assert model.time_of(2) == SimTime.us(1)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TimingModel(clock_hz=0)
        with pytest.raises(ValueError):
            TimingModel(clocks_per_cycle=0)
        with pytest.raises(ValueError):
            TimingModel().time_of(-5)

    @given(st.integers(min_value=0, max_value=10**7))
    def test_time_of_is_monotonic(self, cycles):
        model = TimingModel()
        assert model.time_of(cycles + 1) >= model.time_of(cycles)


class TestEnergyModel:
    def test_explicit_energy_wins(self):
        model = EnergyModel(energy_per_cycle_nj=2.0)
        assert model.energy_of(TimingAnnotation(100, energy_nj=7.0)) == 7.0

    def test_derived_energy_from_cycles(self):
        model = EnergyModel(energy_per_cycle_nj=2.0)
        assert model.energy_of(TimingAnnotation(100)) == 200.0

    def test_idle_energy(self):
        model = EnergyModel(idle_power_mw=2.0)
        # 2 mW for 1 s = 2 mJ = 2e6 nJ
        assert model.idle_energy(SimTime.sec(1)) == pytest.approx(2e6)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            EnergyModel(energy_per_cycle_nj=-1)


class TestAnnotationTable:
    def test_lookup_returns_default_for_unknown_key(self):
        table = AnnotationTable()
        assert table.lookup("unknown") is table.default

    def test_annotate_and_lookup(self):
        table = AnnotationTable()
        table.annotate("svc:tk_sig_sem", 120, 90.0)
        annotation = table.lookup("svc:tk_sig_sem")
        assert annotation.cycles == 120
        assert annotation.energy_nj == 90.0

    def test_lookup_counts_are_tracked(self):
        table = AnnotationTable()
        table.lookup("a")
        table.lookup("a")
        assert table.lookups["a"] == 2

    def test_default_service_annotations_cover_core_services(self):
        table = default_service_call_annotations()
        for key in ("svc:tk_cre_tsk", "svc:tk_wai_sem", "svc:tk_slp_tsk", "svc:dispatch"):
            assert key in table


def _transition(name="T1", event=RunEvent.CONTINUE, context=ExecutionContext.TASK):
    return Transition(name, event, context)


class TestFiringSequence:
    """S̄ and its derived vectors; the sequence S itself is the sched stream."""

    def test_characteristic_vector_counts_firings(self):
        token = PetriToken("t")
        for _ in range(3):
            token.fire(_transition("Ta"))
        token.fire(_transition("Tb"))
        assert token.characteristic_vector == {"Ta": 3, "Tb": 1}
        # Equal transitions share one S̄ entry: memory grows with the net,
        # not with the number of firings.
        assert len(token.firings) == 2

    def test_event_and_context_vectors(self):
        token = PetriToken("t")
        token.fire(_transition("Ta", RunEvent.STARTUP, ExecutionContext.STARTUP))
        token.fire(_transition("Tb", RunEvent.CONTINUE, ExecutionContext.TASK))
        token.fire(_transition("Tc", RunEvent.CONTINUE, ExecutionContext.BFM_ACCESS))
        assert token.event_vector == {"Es": 1, "Ec": 2}
        assert token.context_vector == {
            "startup": 1,
            "task": 1,
            "bfm_access": 1,
        }


class TestPetriToken:
    def test_single_token_moves_through_places(self):
        token = PetriToken("t")
        assert token.marking() == 0
        token.fire(_transition())
        token.fire(_transition())
        assert token.marking() == 2

    def test_cet_cee_accumulate_over_cycles(self):
        token = PetriToken("t")
        for _ in range(4):
            token.fire(_transition(), 250_000, 1000.0)
            token.complete_cycle()
        assert token.consumed_execution_time == SimTime.ms(1)
        assert token.consumed_execution_energy_nj == pytest.approx(4000.0)
        assert token.consumed_execution_energy_mj == pytest.approx(4e-3)
        assert token.cycle_count == 4

    def test_context_breakdown(self):
        token = PetriToken("t")
        token.fire(_transition(context=ExecutionContext.TASK), 10_000, 1.0)
        token.fire(_transition(context=ExecutionContext.SERVICE_CALL), 5_000, 2.0)
        token.fire(_transition(context=ExecutionContext.TASK), 10_000, 3.0)
        cet = token.cet_by_context()
        cee = token.cee_by_context()
        assert cet[ExecutionContext.TASK] == SimTime.us(20)
        assert cet[ExecutionContext.SERVICE_CALL] == SimTime.us(5)
        assert cee[ExecutionContext.TASK] == pytest.approx(4.0)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10**6),
                st.floats(min_value=0, max_value=10**6, allow_nan=False),
            ),
            max_size=40,
        )
    )
    def test_cet_equals_sum_of_firings(self, firings):
        token = PetriToken("t")
        for duration_ns, energy in firings:
            token.fire(_transition(), duration_ns, energy)
        assert token.consumed_execution_time.to_ns() == sum(d for d, _ in firings)
        assert token.consumed_execution_energy_nj == pytest.approx(
            sum(e for _, e in firings)
        )
