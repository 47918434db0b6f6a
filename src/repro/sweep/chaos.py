"""Deterministic chaos injection for the sweep failure test suite.

Nothing in this module ever runs in production: the execution pipeline
carries only the no-op :func:`repro.sweep.hooks.chaos_point` calls,
and this module loads solely when a harness builds a
:class:`ChaosInjector` and installs it (usually via :func:`chaos_active`).

A :class:`ChaosInjection` is an explicit, declarative fault — *what* kind
of failure, at *which* pipeline phase, against *which* run — and an
injector is just a list of them plus a seed.  Determinism is the whole
point: the same injection spec against the same sweep fires at the same
run on every host, so recovery paths are provable with byte-identity
assertions rather than flaky timing games.

Fault kinds:

``raise``            raise a persistent :class:`ChaosError` (quarantines).
``raise-transient``  raise a :class:`TransientChaosError` (retries succeed,
                     because the injection's once-marker burns on first fire).
``kill-worker``      ``SIGKILL`` the current process — from a pool worker
                     this is the mid-sweep crash the bisection path recovers.
``clock-overrun``    sleep past a wall-clock budget (watchdog proof).
``corrupt-store``    flip a byte of a section of a just-stored entry
                     (``stored`` phase).
``torn-write``       truncate a just-stored entry inside a section, mid-line,
                     emulating a process death between ``write`` and
                     ``flush``.

Cross-process "fire once" works without shared memory: a marker file is
claimed with ``O_CREAT | O_EXCL``, which is atomic on every platform we
run on, so exactly one attempt in one process wins even under a pool.
"""

from __future__ import annotations

import contextlib
import os
import signal
import time
import zlib
from typing import Any, Iterator, List, Optional, Sequence

from repro.grid.store import section_span
from repro.sweep.hooks import install_injector, uninstall_injector

KINDS = (
    "raise",
    "raise-transient",
    "kill-worker",
    "clock-overrun",
    "corrupt-store",
    "torn-write",
)

#: Phase label a failure record shows for a fault at each injection phase.
_PHASE_LABEL = {"build": "build", "run-start": "run",
                "store": "store", "stored": "store"}


class ChaosError(RuntimeError):
    """A persistent injected fault — retries fail identically."""

    transient = False


class TransientChaosError(RuntimeError):
    """A transient injected fault — eligible for retry."""

    transient = True


class ChaosInjection:
    """One declarative fault: kind + phase + target matchers."""

    __slots__ = ("kind", "phase", "scenario", "index", "seconds", "section",
                 "once_marker")

    def __init__(self, kind: str, phase: Optional[str] = None,
                 scenario: Optional[str] = None, index: Optional[int] = None,
                 seconds: float = 0.05, section: str = "events",
                 once_marker: Optional[str] = None):
        if kind not in KINDS:
            raise ValueError(f"unknown chaos kind: {kind!r}")
        self.kind = kind
        #: Pipeline phase to fire at (``build`` / ``run-start`` / ``store``
        #: / ``stored``); ``None`` matches any phase.
        self.phase = phase
        #: Scenario-name matcher (``None`` = any scenario).
        self.scenario = scenario
        #: Global run-index matcher (``None`` = any run).
        self.index = index
        #: Sleep duration for ``clock-overrun``.
        self.seconds = seconds
        #: Entry section (``metrics`` or ``events``, see
        #: :data:`repro.grid.store.SECTIONS`) that ``corrupt-store`` /
        #: ``torn-write`` damage.
        self.section = section
        #: Marker-file path making this injection fire exactly once across
        #: all processes; ``None`` fires on every match.
        self.once_marker = once_marker

    def matches(self, phase: str, scenario: Optional[str],
                index: Optional[int]) -> bool:
        if self.phase is not None and self.phase != phase:
            return False
        if self.scenario is not None and self.scenario != scenario:
            return False
        if self.index is not None and self.index != index:
            return False
        return True


class ChaosInjector:
    """Fires a list of :class:`ChaosInjection` at matching chaos points.

    Install with :func:`chaos_active` (or ``hooks.install_injector``)
    *before* a pool forks so workers inherit it; the injections' marker
    files then coordinate which process actually fires.
    """

    def __init__(self, injections: Sequence[ChaosInjection], seed: int = 0):
        self.injections: List[ChaosInjection] = list(injections)
        self.seed = seed

    def fire(self, phase: str, scenario: Optional[str] = None,
             index: Optional[int] = None, **info: Any) -> None:
        for injection in self.injections:
            if not injection.matches(phase, scenario, index):
                continue
            if not _claim_once(injection.once_marker):
                continue
            _apply(injection, phase, scenario, index, info)


def _claim_once(marker: Optional[str]) -> bool:
    """Atomically claim *marker*; ``True`` exactly once per marker path."""
    if marker is None:
        return True
    try:
        handle = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(handle)
    return True


def _apply(injection: ChaosInjection, phase: str, scenario: Optional[str],
           index: Optional[int], info: Any) -> None:
    label = _PHASE_LABEL.get(phase, phase)
    where = f"phase {phase}, scenario {scenario!r}, run {index}"
    if injection.kind == "raise":
        error = ChaosError(f"injected fault at {where}")
        error._repro_phase = label
        raise error
    if injection.kind == "raise-transient":
        error = TransientChaosError(f"injected transient fault at {where}")
        error._repro_phase = label
        raise error
    if injection.kind == "kill-worker":
        os.kill(os.getpid(), signal.SIGKILL)
        raise RuntimeError("unreachable: SIGKILL did not terminate")
    if injection.kind == "clock-overrun":
        time.sleep(injection.seconds)
        return
    if injection.kind in ("corrupt-store", "torn-write"):
        path = info.get("entry_path")
        span = section_span(path, injection.section) if path else None
        if span is None:
            return
        if injection.kind == "corrupt-store":
            _flip_byte(path, *span)
        else:
            _tear(path, *span)
        return
    raise AssertionError(f"unhandled chaos kind {injection.kind!r}")


def _flip_byte(path: str, offset: int, size: int) -> None:
    """Flip the middle byte of the *size* bytes at *offset* — a silent
    single-bit-rot stand-in."""
    if size == 0:
        return
    offset += size // 2
    with open(path, "r+b") as handle:
        handle.seek(offset)
        original = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([original[0] ^ 0xFF]))


def _tear(path: str, offset: int, size: int) -> None:
    """Truncate the file ~60% into the *size* bytes at *offset* — a write
    that died between buffer and disk."""
    with open(path, "r+b") as handle:
        handle.truncate(offset + max(1, (size * 3) // 5))


def choose_index(seed: int, total: int, salt: str = "") -> int:
    """Deterministically pick a victim run index in ``[0, total)``.

    Seed-stable across hosts and Python versions (crc32, not ``hash()``),
    so "kill the worker at the n-th run" means the same n everywhere.
    """
    if total <= 0:
        raise ValueError("total must be positive")
    payload = f"{seed}:{salt}".encode("utf-8")
    return zlib.crc32(payload) % total


@contextlib.contextmanager
def chaos_active(injector: ChaosInjector) -> Iterator[ChaosInjector]:
    """Install *injector* for the duration of the block, then uninstall."""
    install_injector(injector)
    try:
        yield injector
    finally:
        uninstall_injector()
