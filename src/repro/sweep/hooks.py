"""Production-side attachment points for the sweep plane.

This module is the sweep import the execution hot path carries: a
chaos-injection point that is a no-op unless a test harness explicitly
installed an injector (:mod:`repro.sweep.chaos` never loads otherwise),
the current-run-index slot the sweep engine publishes for failure
attribution, the phase tagger that lets the runner label where in the
pipeline an exception escaped, and the null telemetry recorder every
un-instrumented run and sweep holds (the real recorder lives in
:mod:`repro.analytics.telemetry`, which loads only with ``--telemetry``).

Everything here is deliberately tiny and import-free so that
``repro.campaign.runner`` can depend on it without pulling the rest of
the sweep machinery into every simulation.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Optional

#: The installed chaos injector, or ``None`` in production (the default —
#: every :func:`chaos_point` call is then a dict lookup plus a branch).
_INJECTOR: Optional[Any] = None

#: Global run index of the run currently executing in this process, set by
#: the sweep engine so failure records and chaos matching can name
#: the run even from code that only sees the spec.
_RUN_INDEX: Optional[int] = None


def chaos_point(phase: str, scenario: Optional[str] = None,
                index: Optional[int] = None, **info: Any) -> None:
    """Fire the installed chaos injector at a named pipeline *phase*.

    Phases used by the execution pipeline: ``build`` (before scenario
    construction), ``run-start`` (before the simulation loop), ``store``
    (before a result-store fill) and ``stored`` (after a fill, with the
    entry file's path as ``entry_path`` in *info*).  With no injector installed — always, in
    production — this returns immediately.
    """
    injector = _INJECTOR
    if injector is None:
        return
    if index is None:
        index = _RUN_INDEX
    injector.fire(phase, scenario=scenario, index=index, **info)


def chaos_enabled() -> bool:
    """Whether a chaos injector is currently installed in this process."""
    return _INJECTOR is not None


def install_injector(injector: Any) -> None:
    """Install *injector* (an object with ``fire(phase, **ctx)``)."""
    global _INJECTOR
    _INJECTOR = injector


def uninstall_injector() -> None:
    """Remove the installed injector; :func:`chaos_point` becomes a no-op."""
    global _INJECTOR
    _INJECTOR = None


def set_run_index(index: Optional[int]) -> None:
    """Publish the global run index the current process is executing."""
    global _RUN_INDEX
    _RUN_INDEX = index


def clear_run_index() -> None:
    global _RUN_INDEX
    _RUN_INDEX = None


def tag_phase(error: BaseException, phase: str) -> None:
    """Label *error* with the pipeline phase it escaped from.

    First tag wins — an exception tagged ``build`` deep in the stack keeps
    that attribution when an outer wrapper re-tags.  Exceptions with
    ``__slots__`` silently stay untagged (they fall back to ``run``).
    """
    if getattr(error, "_repro_phase", None) is None:
        try:
            error._repro_phase = phase  # type: ignore[attr-defined]
        except (AttributeError, TypeError):  # pragma: no cover - slotted
            pass


def phase_of(error: BaseException) -> str:
    """The pipeline phase recorded on *error* (default: ``run``)."""
    return getattr(error, "_repro_phase", None) or "run"


class _NoSpan:
    """The null recorder's span: a reusable context that times nothing."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *_exc: Any) -> None:
        return None


_NO_SPAN = _NoSpan()


class NullTelemetry:
    """The recorder of an un-instrumented pipeline: every call is a no-op.

    :meth:`span` hands back one shared context object, so an idle phase
    costs a method call and no allocation; the null recorder is never
    subscribed to a simulator's bus.
    """

    enabled = False
    spans = ()

    def span(self, phase: str, **meta: Any) -> _NoSpan:
        return _NO_SPAN

    def record(self, phase: str, seconds: float, **meta: Any) -> None:
        return None

    def adopt(self, spans: Iterable[Mapping[str, Any]], **extra_meta: Any) -> None:
        return None


#: The default telemetry of every runner, batch and shard entry point.
NULL_TELEMETRY = NullTelemetry()
