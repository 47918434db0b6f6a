"""Pins of the ``kernel`` + ``sched`` event streams of four builtins.

The golden streams record only the ``sched`` topic, so they cannot see the
DES kernel's own events: every timed ``advance`` (with the number of queued
activations), every ``delta`` cycle (with its runnable count) and each
process's start and end.  These pins hash both topics together, interleaved
as published, for 200 ms of each scenario.  The digests must not drift:
a faster kernel loop is an optimisation, not a change of schedule.

The builtins exercise only the schedules their models produce, so a second
pin covers seeded random process programs (:mod:`tests.sysc.random_programs`):
timed, delta, event and event-with-timeout waits, immediate, delta and
timed notifications, signal writes, callbacks, ``stop()`` from a process,
advance and cycle hooks, and runs with and without a horizon.  A pin
proves only that nothing changed, so the same programs also run on the
reference kernel (:mod:`tests.sysc.reference_kernel`) and must agree with
it step by step.
"""

import hashlib
import io

import pytest

from repro.campaign.registry import get_scenario
from repro.campaign.runner import run_spec
from repro.obs.sinks import JsonlStreamSink
from repro.sysc import Simulator
from tests.sysc.random_programs import (
    assert_kernels_agree, pinned_program, run_program,
)

#: scenario → (lines, sha256 of the kernel+sched JSONL, delta_cycles,
#: timed_advances), each at ``duration_ms=200``.
KERNEL_SCHED_PINS = {
    "quickstart": (
        679, "68f82df9fb6daef462d1c6e4e46391d0a1a8a668dd4a3641413a1bbe6bf724cd",
        294, 258),
    "sync-tour": (
        618, "53213a4246dbd2e87ba18813fbc5095b218a1a1a995b8bb0fe35d62e8abc21b6",
        274, 258),
    "synthetic-rtk": (
        743, "785518e8934d06a87ebea69ad41f47d3661bac7a2dccfba5708c4d82ec65eecf",
        304, 294),
    "videogame": (
        4211, "36a3a9cfae595c65892c9a18cba350d8e13087cb0f3254ac24ce18af7b534298",
        1404, 1537),
}


@pytest.mark.parametrize("name", sorted(KERNEL_SCHED_PINS))
def test_kernel_and_sched_streams_match_pin(name):
    lines, digest, delta_cycles, timed_advances = KERNEL_SCHED_PINS[name]
    spec = get_scenario(name).with_overrides({"duration_ms": 200}).validate()
    buffer = io.StringIO()
    sink = JsonlStreamSink(buffer, topics=("kernel", "sched"))
    result = run_spec(spec, collect_events=False, sinks=(sink,))
    sink.close()
    data = buffer.getvalue().encode("utf-8")
    assert data.count(b"\n") == lines
    assert hashlib.sha256(data).hexdigest() == digest
    assert result.metrics["delta_cycles"] == delta_cycles
    assert result.metrics["timed_advances"] == timed_advances


#: sha256 over the per-seed digests of seeds ``0..RANDOM_SEEDS-1``.
RANDOM_SEEDS = 200
RANDOM_PROGRAMS_PIN = (
    "9740c84e1269456825f8591ac6ed1c5ceb07b90c19134a5b63a8a1a311406285")

def random_program(seed):
    """The digest of the pinned random program of *seed*: its action log
    (every step, resume reason, hook call and callback with its time) and
    its ``kernel`` JSONL stream."""
    log, stream, _ = run_program(Simulator, pinned_program(seed), detailed=False)
    return hashlib.sha256(
        repr(log).encode("utf-8") + stream.encode("utf-8")).hexdigest()


def test_random_process_programs_match_pin():
    digest = hashlib.sha256()
    for seed in range(RANDOM_SEEDS):
        digest.update(random_program(seed).encode("ascii"))
    assert digest.hexdigest() == RANDOM_PROGRAMS_PIN


def test_random_process_programs_match_the_reference_kernel():
    """The pinned programs agree with the literal IEEE 1666 scheduler:
    per-step log with delta indexes, callbacks, the ``kernel`` stream and
    the advance and delta counts."""
    for seed in range(RANDOM_SEEDS):
        assert_kernels_agree(pinned_program(seed))
