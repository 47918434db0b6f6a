"""Declarative scenario specifications and parameter-matrix expansion.

A :class:`ScenarioSpec` is everything the campaign runner needs to execute
one simulation run: which kernel model (RTK-Spec TRON, I or II), which
workload (the paper's video-game co-simulation, the sync-primitives tour,
the energy profile, the scheduler comparison, or seeded synthetic task
sets), and the knobs of that run (duration, task count, periods, BFM access
period, GUI on/off, seed, ...).

:data:`WORKLOADS` is the one table of each workload's kernels and knobs
(kind, default, minimum), and :meth:`ScenarioSpec.validate` checks specs
against it: a knob the workload does not read is a :class:`SpecError` at
plan time, not a new spec hash for the same simulation.  The table is
plain data, so importing this module loads no workload.

Specs are plain data: they round-trip through ``to_dict``/``from_dict`` so
the CLI, the batch engine and the pool workers can all pass them
around as JSON.  :func:`expand_matrix` turns one base spec plus a parameter
matrix into the full cross product of runs, each with a deterministic
per-run seed derived from the base seed and the run's position.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import zlib
from collections.abc import Mapping
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Kernel models a scenario can run on.
KERNELS = ("tkernel", "rtkspec1", "rtkspec2")

#: The workload table: name -> (the kernels it runs on, its knobs).  A
#: knob row is ``(kind, default, minimum)``: an ``int`` or ``float`` (any
#: real) that is finite and at least ``minimum``; a ``None`` default is
#: resolved only when set.  A ``None`` row is a structured knob that its
#: workload (:mod:`repro.workload.builtins`) parses itself.
WORKLOADS = {
    "quickstart": (("tkernel",), {
        "items": (int, 5, 1),              # items per producer/consumer pair
        "heartbeat_ms": (int, 10, 1)}),    # cyclic heartbeat period
    "sync_tour": (("tkernel",), {
        "samples": (int, 4, 0),            # samples the sensor task sends
        "sample_ms": (float, 2.0, 0)}),    # compute time per sample
    "videogame": (("tkernel",), {
        "key_period_ms": (int, 80, 1),     # keypad press period
        "gui_callback_us": (float, None, 0)}),  # host cost of a GUI callback
    "energy_profile": (("tkernel",), {
        "key_period_ms": (int, 80, 1),
        "render_cycles": (int, 400, 0),    # Fig. 7 render budget per frame
        "gui_callback_us": (float, None, 0)}),
    "scheduler_comparison": (("rtkspec1", "rtkspec2"), {}),
    "synthetic": (KERNELS, {"jobs": (int, 3, 0)}),  # jobs per task
    "generated": (KERNELS, {
        "tasks": None, "cyclics": None,    # TaskDef / CyclicDef documents
        "platform": None}),                # "bare" or "rtc"
}

#: Each kernel model's task priorities are [1, MAX_PRIORITY]: T-Kernel's
#: ``MAX_TASK_PRIORITY``, and the RTK-Spec schedulers' ready bitmap.
MAX_PRIORITY = {"tkernel": 140, "rtkspec1": 255, "rtkspec2": 255}

#: Tags any spec's ``extra`` may carry; no workload reads them.
LABELS = ("family", "member")


class SpecError(ValueError):
    """Raised when a scenario spec is inconsistent."""


def fields_equal(record: Any, other: Any) -> Any:
    """``__eq__`` of a record class with a ``FIELDS`` table: equal when
    *other* is of the same class and every field compares equal."""
    if other.__class__ is not record.__class__:
        return NotImplemented
    return all(
        getattr(record, name) == getattr(other, name) for name in record.FIELDS)


def _as_float(value: int) -> float:
    """An int *value* as a float (``inf`` past the float range, which the
    finiteness checks then refuse)."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


class ScenarioSpec:
    """Declarative description of one simulation run.

    Specs compare by value, field by field.  ``priorities`` and ``extra``
    default (also when given as ``None``) to a fresh empty list and dict.
    """

    #: The field table: constructor keywords, slots and ``to_dict`` keys.
    FIELDS = (
        "name", "kernel", "workload", "duration_ms", "task_count",
        "period_ms", "priorities", "bfm_access_period_ms", "gui_enabled",
        "tick_ms", "seed", "time_slice_ticks", "extra",
    )
    __slots__ = FIELDS

    def __init__(
        self,
        name: str,
        kernel: str = "tkernel",
        workload: str = "quickstart",
        duration_ms: float = 100.0,
        task_count: int = 4,
        period_ms: float = 10.0,
        priorities: Optional[List[int]] = None,
        bfm_access_period_ms: int = 10,
        gui_enabled: bool = False,
        tick_ms: float = 1.0,
        seed: int = 0,
        time_slice_ticks: int = 4,
        extra: Optional[Dict[str, Any]] = None,
    ):
        #: Scenario name (registry key for built-ins; free-form otherwise).
        self.name = name
        #: Kernel model: ``tkernel`` | ``rtkspec1`` | ``rtkspec2``.
        self.kernel = kernel
        #: Workload family, a key of :data:`WORKLOADS`.
        self.workload = workload
        #: Simulated duration of the run in milliseconds.
        self.duration_ms = duration_ms
        #: Number of application tasks (synthetic / scheduler workloads).
        self.task_count = task_count
        #: Base task period in milliseconds (workload-specific meaning).
        self.period_ms = period_ms
        #: Explicit task priorities; empty means the workload derives them.
        self.priorities: List[int] = [] if priorities is None else priorities
        #: BFM access period driving the LCD widget (the Table 2 knob).
        self.bfm_access_period_ms = bfm_access_period_ms
        #: Whether GUI widgets (and their host callback cost) are enabled.
        self.gui_enabled = gui_enabled
        #: System tick in milliseconds.
        self.tick_ms = tick_ms
        #: Random seed for workloads that draw task sets.
        self.seed = seed
        #: Round-robin time slice in ticks (rtkspec1 only).
        self.time_slice_ticks = time_slice_ticks
        #: Workload knobs (see :data:`WORKLOADS`) and :data:`LABELS`.
        self.extra: Dict[str, Any] = {} if extra is None else extra

    __eq__ = fields_equal

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> "ScenarioSpec":
        """Check internal consistency; returns self so calls can chain."""
        problems: List[str] = []
        for field_name in ("duration_ms", "period_ms", "tick_ms"):
            value = getattr(self, field_name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SpecError(
                    f"invalid scenario {self.name!r}: {field_name} must be a "
                    f"number, got {value!r}"
                )
            # An int is stored as the equal float, so that 30 and 30.0 are
            # one spec document and one cache key.
            if value.__class__ is int:
                value = _as_float(value)
                setattr(self, field_name, value)
            # Floats are scaled to int ns when the run starts: nan, ±inf
            # and values that overflow there must fail here, as SpecError.
            if not math.isfinite(value * 1_000_000):
                raise SpecError(
                    f"invalid scenario {self.name!r}: {field_name} must be a "
                    f"finite number of ms, got {value!r}"
                )
        for field_name in ("task_count", "bfm_access_period_ms", "seed",
                           "time_slice_ticks"):
            value = getattr(self, field_name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise SpecError(
                    f"invalid scenario {self.name!r}: {field_name} must be an "
                    f"integer, got {value!r}"
                )
        # Plain loops and an exact ``dict`` check: a generator or an ABC
        # check costs Python-level calls on every validated spec.
        priorities_ok = isinstance(self.priorities, (list, tuple))
        lowest = MAX_PRIORITY.get(self.kernel)
        out_of_range = False
        if priorities_ok:
            for priority in self.priorities:
                if isinstance(priority, bool) or not isinstance(priority, int):
                    priorities_ok = False
                    break
                if priority < 1 or lowest is not None and priority > lowest:
                    out_of_range = True
        if not priorities_ok:
            raise SpecError(
                f"invalid scenario {self.name!r}: priorities must be a list "
                f"of integers, got {self.priorities!r}"
            )
        if not isinstance(self.name, str):
            raise SpecError(
                f"invalid scenario: name must be a string, got {self.name!r}"
            )
        if not isinstance(self.gui_enabled, bool):
            raise SpecError(
                f"invalid scenario {self.name!r}: gui_enabled must be a "
                f"boolean, got {self.gui_enabled!r}"
            )
        # Its keys are checked against the workload's knobs below.
        if not (type(self.extra) is dict or isinstance(self.extra, Mapping)):
            raise SpecError(
                f"invalid scenario {self.name!r}: extra must be a mapping "
                f"with string keys, got {self.extra!r}"
            )
        if not self.name:
            problems.append("name must not be empty")
        if self.kernel not in KERNELS:
            problems.append(f"unknown kernel {self.kernel!r} (choose from {KERNELS})")
        workload_row = WORKLOADS.get(self.workload)
        if workload_row is None:
            problems.append(
                f"unknown workload {self.workload!r} "
                f"(choose from {tuple(WORKLOADS)})"
            )
        elif self.kernel in KERNELS and self.kernel not in workload_row[0]:
            problems.append(
                f"workload {self.workload!r} requires kernel "
                + " or ".join(map(repr, workload_row[0]))
                + f", not {self.kernel!r}"
            )
        if round(self.duration_ms * 1_000_000) < 1:
            problems.append("duration_ms must be positive (at least 1 ns)")
        if self.task_count < 1:
            problems.append("task_count must be at least 1")
        if round(self.period_ms * 1_000_000) < 1:
            problems.append("period_ms must be positive (at least 1 ns)")
        if self.bfm_access_period_ms < 1:
            problems.append("bfm_access_period_ms must be at least 1 ms")
        if round(self.tick_ms * 1_000_000) < 1:
            problems.append("tick_ms must be positive (at least 1 ns)")
        if self.time_slice_ticks < 1:
            problems.append("time_slice_ticks must be at least 1")
        if self.priorities and len(self.priorities) != self.task_count:
            problems.append(
                f"priorities has {len(self.priorities)} entries for "
                f"{self.task_count} tasks"
            )
        if out_of_range:
            problems.append(
                "priorities must be positive" if lowest is None else
                f"priorities must be in [1, {lowest}] on kernel {self.kernel!r}")
        if problems:
            raise SpecError(
                f"invalid scenario {self.name!r}: " + "; ".join(problems)
            )
        knobs = workload_row[1]
        as_floats = {}
        for key, value in self.extra.items():
            if key not in knobs:
                if key in LABELS:
                    continue
                raise SpecError(
                    f"invalid scenario {self.name!r}: extra key {key!r} is "
                    f"not a knob of workload {self.workload!r} "
                    f"(knobs: {', '.join(knobs) or 'none'})"
                )
            row = knobs[key]
            if row is None:  # a structured knob: its workload parses it
                continue
            kind, _, minimum = row
            if kind is float and value.__class__ is int:
                value = as_floats[key] = _as_float(value)
            if (value.__class__ is bool
                    or not isinstance(value, int if kind is int else (int, float))
                    or not minimum <= value < math.inf):
                noun = "an integer" if kind is int else "a finite number"
                raise SpecError(f"{key} must be {noun} >= {minimum}, got {value!r}")
        if as_floats:  # one spec document per value, as for the fields
            self.extra = {**self.extra, **as_floats}
        return self

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe plain-dict view of the spec."""
        return {
            "name": self.name,
            "kernel": self.kernel,
            "workload": self.workload,
            "duration_ms": self.duration_ms,
            "task_count": self.task_count,
            "period_ms": self.period_ms,
            "priorities": list(self.priorities),
            "bfm_access_period_ms": self.bfm_access_period_ms,
            "gui_enabled": self.gui_enabled,
            "tick_ms": self.tick_ms,
            "seed": self.seed,
            "time_slice_ticks": self.time_slice_ticks,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (unknown keys rejected)."""
        unknown = set(data).difference(cls.FIELDS)
        if unknown:
            raise SpecError(f"unknown spec fields: {sorted(unknown)}")
        if "name" not in data:
            raise SpecError("spec needs a 'name'")
        return cls(**dict(data))

    def with_overrides(self, overrides: Mapping[str, Any]) -> "ScenarioSpec":
        """A copy with *overrides* applied; a key that is not a spec field
        goes into ``extra``, as a workload knob (see :meth:`validate`).
        The copy is a plain, unvalidated :class:`ScenarioSpec`."""
        values = {name: getattr(self, name) for name in self.FIELDS}
        extra = {}
        for key, value in overrides.items():
            if key in values and key != "extra":
                values[key] = value
            else:
                extra[key] = value
        spec = ScenarioSpec(**values)
        if extra:
            spec.extra = {**self.extra, **extra}
        return spec


class ValidatedSpec(ScenarioSpec):
    """A private copy of a spec that passed :meth:`ScenarioSpec.validate`.

    :func:`repro.campaign.runner.run_spec` and
    :func:`repro.workload.components.compose` validate every spec they are
    handed except one of this class.  Whoever validated a spec upstream —
    the sweep where it plans its runs, ``repro run`` where it loads its
    spec, ``run_spec`` itself before it builds — hands the run a copy of
    this class: each fresh run validates once, and no later change to the
    caller's spec object can reach a run unchecked.
    """

    __slots__ = ()

    @classmethod
    def copy_of(cls, spec: ScenarioSpec) -> "ValidatedSpec":
        """A copy of *spec*, which the caller has validated, as
        :meth:`ScenarioSpec.to_dict` copies it: ``priorities`` and
        ``extra`` are new containers."""
        copy = cls.__new__(cls)
        for name in cls.FIELDS:
            setattr(copy, name, getattr(spec, name))
        copy.priorities = list(spec.priorities)
        copy.extra = dict(spec.extra)
        return copy


# ----------------------------------------------------------------------
# Content addressing
# ----------------------------------------------------------------------
def spec_hash_from_document(document: Mapping[str, Any]) -> str:
    """SHA-256 of the canonical JSON of a spec document.

    This is the grid result store's cache key: two specs hash identically
    exactly when their ``to_dict`` forms are equal, on every host and in
    every process.  :meth:`ScenarioSpec.validate` stores an int given for
    a float field or knob as the equal float, so two validated specs that
    compare equal also hash identically.  The canonical encoder (sorted keys, tight separators) is
    the same one behind the metrics/event files, so the key contract cannot
    drift from the artifact contract.
    """
    import hashlib

    from repro.obs.bus import canonical_json

    return hashlib.sha256(canonical_json(document).encode("utf-8")).hexdigest()


def spec_hash(spec: "ScenarioSpec") -> str:
    """SHA-256 cache key of a scenario spec (see :func:`spec_hash_from_document`)."""
    return spec_hash_from_document(spec.to_dict())


# ----------------------------------------------------------------------
# Spec documents on disk
# ----------------------------------------------------------------------
def load_spec_file(path: str, overrides: Optional[Mapping] = None) -> ScenarioSpec:
    """Load one ``ScenarioSpec`` JSON document from *path*, apply
    *overrides* (:meth:`ScenarioSpec.with_overrides`) and validate it once.

    The file holds the ``to_dict`` form of a spec (a batch metrics file's
    ``spec`` section works verbatim).  Anything that is not a valid spec —
    unreadable file, malformed JSON, a non-object document, unknown fields,
    inconsistent knobs — raises :class:`SpecError` with a one-line message.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as error:
        raise SpecError(f"cannot read spec file {path!r}: {error}") from None
    except json.JSONDecodeError as error:
        raise SpecError(f"spec file {path!r} is not valid JSON: {error}") from None
    if not isinstance(document, Mapping):
        raise SpecError(
            f"spec file {path!r} must hold a JSON object, got "
            f"{type(document).__name__}"
        )
    try:
        spec = ScenarioSpec.from_dict(document)
        return (spec.with_overrides(overrides) if overrides else spec).validate()
    except SpecError as error:
        raise SpecError(f"spec file {path!r}: {error}") from None


def load_spec_dir(directory: str) -> List[ScenarioSpec]:
    """Load every ``*.json`` spec document under *directory*, sorted by name.

    Sorting makes the resulting run order (and therefore derived seeds and
    shard assignments) independent of filesystem enumeration order.
    """
    try:
        names = sorted(
            name for name in os.listdir(directory) if name.endswith(".json")
        )
    except OSError as error:
        raise SpecError(f"cannot read spec directory {directory!r}: {error}") from None
    if not names:
        raise SpecError(f"spec directory {directory!r} has no *.json documents")
    return [load_spec_file(os.path.join(directory, name)) for name in names]


# ----------------------------------------------------------------------
# Deterministic per-run seeds
# ----------------------------------------------------------------------
def derive_seed(base_seed: int, index: int, name: str = "") -> int:
    """A stable per-run seed from the base seed and the run's identity.

    Uses CRC32 over a canonical string so the same (seed, index, name)
    always maps to the same value on every platform and process.
    """
    return zlib.crc32(f"{base_seed}:{index}:{name}".encode("utf-8")) & 0x7FFFFFFF


# ----------------------------------------------------------------------
# Matrix expansion
# ----------------------------------------------------------------------
def expand_matrix(
    base: ScenarioSpec,
    matrix: Optional[Mapping[str, Sequence[Any]]] = None,
    derive_seeds: bool = True,
) -> List[ScenarioSpec]:
    """Expand *base* × *matrix* into the full list of runs.

    The matrix maps spec field names (or the workload's knob names, see
    :data:`WORKLOADS`) to the list of values to sweep.  Expansion order is
    the cross product with the matrix's key order as the significance
    order (first key varies slowest), so the run list is deterministic.
    When *derive_seeds* is true each run is given a per-run seed derived
    from the base spec's seed and the run index — unless the matrix itself
    sweeps ``seed``, which then wins.  Each run a matrix axis changes is
    validated.  Without an axis nothing but the derived seed changes
    *base*, so its copy is not validated again, and with no seed to derive
    either the run list is ``[base]`` itself (the sweep engine validates
    every run it executes).
    """
    matrix = dict(matrix or {})
    for key, values in matrix.items():
        if not isinstance(values, (list, tuple)) or not values:
            raise SpecError(f"matrix axis {key!r} must be a non-empty sequence")
    if not matrix and not derive_seeds:
        return [base]
    axes = list(matrix.items())
    specs: List[ScenarioSpec] = []
    for index, combo in enumerate(
        itertools.product(*(values for _, values in axes)) if axes else [()]
    ):
        overrides: Dict[str, Any] = {key: value for (key, _), value in zip(axes, combo)}
        spec = base.with_overrides(overrides)
        if derive_seeds and "seed" not in matrix:
            spec.seed = derive_seed(base.seed, index, spec.name)
        suffix = "-".join(f"{key}={value}" for key, value in overrides.items())
        if suffix:
            spec.name = f"{spec.name}[{suffix}]"
        specs.append(spec.validate() if overrides else spec)
    return specs


def parse_matrix_axis(text: str) -> Tuple[str, List[Any]]:
    """Parse a CLI ``key=v1,v2,...`` matrix axis with literal value coercion."""
    if "=" not in text:
        raise SpecError(f"matrix axis {text!r} is not of the form key=v1,v2,...")
    key, _, values_text = text.partition("=")
    key = key.strip()
    if not key:
        raise SpecError(f"matrix axis {text!r} has an empty key")
    values = [coerce_value(v) for v in values_text.split(",") if v != ""]
    if not values:
        raise SpecError(f"matrix axis {key!r} has no values")
    return key, values


def coerce_value(text: str) -> Any:
    """Coerce a CLI string to bool/int/float when it looks like one."""
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            continue
    return text.strip()


def parse_overrides(pairs: Iterable[str]) -> Dict[str, Any]:
    """Parse CLI ``--set key=value`` pairs into an overrides dict.

    A comma-separated value becomes a list of coerced items, so list fields
    are settable from the shell: ``--set priorities=5,10,15``.
    """
    overrides: Dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SpecError(f"override {pair!r} is not of the form key=value")
        key, _, value = pair.partition("=")
        key = key.strip()
        if not key:
            raise SpecError(f"override {pair!r} has an empty key")
        if "," in value:
            overrides[key] = [coerce_value(v) for v in value.split(",")]
        else:
            overrides[key] = coerce_value(value)
    return overrides
