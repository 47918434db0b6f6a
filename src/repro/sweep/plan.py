"""Planning a sweep: expand a matrix into its run list and shard it.

:func:`plan_batch` crosses scenario names/specs with overrides and a
parameter matrix into the sweep's global run order.  Scale-out across
hosts needs no coordinator: every worker expands the same scenario
selection (same scenarios, same matrix, same overrides — therefore the
same global run order and the same derived per-run seeds) and takes the
slice :func:`plan_shard` deterministically assigns to its index.  Runs
keep their *global* index through execution and into artifact names, so
a merge is a pure reassembly and the aggregate is byte-identical to a
single-host batch over the full matrix.

Partitioning is round-robin (``global_index % shards == shard_index``):
every shard count yields a balanced split (sizes differ by at most one) and
adjacent matrix points — often the most expensive neighbours, e.g. a swept
``task_count`` axis — spread across shards instead of clumping on one.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Sequence, Tuple, Union

from repro.campaign.registry import get_scenario
from repro.campaign.spec import ScenarioSpec, expand_matrix
from repro.grid.errors import GridError


def plan_batch(
    scenarios: Sequence[Union[str, ScenarioSpec]],
    matrix: Optional[Mapping[str, Sequence[Any]]] = None,
    overrides: Optional[Mapping[str, Any]] = None,
    derive_seeds: bool = True,
) -> List[ScenarioSpec]:
    """Expand scenario names/specs × overrides × matrix into the run list.

    ``derive_seeds=False`` keeps every run's stated seed instead of deriving
    per-run seeds from the expansion index — the right mode for explicit
    spec documents loaded from files.  A spec that no override, matrix
    axis or seed derivation changes enters the run list as it is, without
    a copy; the sweep engine validates every run before it executes.
    """
    specs: List[ScenarioSpec] = []
    for scenario in scenarios:
        if isinstance(scenario, str):
            base = get_scenario(scenario, overrides)
        elif overrides:
            base = scenario.with_overrides(overrides).validate()
        else:
            base = scenario
        specs.extend(expand_matrix(base, matrix, derive_seeds=derive_seeds))
    return specs


class ShardPlan:
    """One shard's slice of a sweep: (global index, spec) pairs."""

    __slots__ = ("shards", "index", "total", "runs")

    def __init__(self, shards: int, index: int, total: int,
                 runs: Tuple[Tuple[int, ScenarioSpec], ...]):
        #: Total number of shards the sweep is split into.
        self.shards = shards
        #: This shard's index, ``0 <= index < shards``.
        self.index = index
        #: Total runs in the full (unsharded) sweep.
        self.total = total
        #: This shard's runs, ascending by global index.
        self.runs = runs

    def __len__(self) -> int:
        return len(self.runs)


def plan_shard(
    specs: Sequence[ScenarioSpec], shards: int, index: int
) -> ShardPlan:
    """The slice of *specs* that shard *index* of *shards* executes."""
    if shards < 1:
        raise GridError(f"shard count must be at least 1, got {shards}")
    if not 0 <= index < shards:
        raise GridError(
            f"shard index must be in [0, {shards - 1}], got {index}"
        )
    runs = tuple(
        (global_index, spec)
        for global_index, spec in enumerate(specs)
        if global_index % shards == index
    )
    return ShardPlan(shards=shards, index=index, total=len(specs), runs=runs)


def plan_all_shards(specs: Sequence[ScenarioSpec], shards: int) -> List[ShardPlan]:
    """Every shard's plan — the planner's view of the whole sweep."""
    return [plan_shard(specs, shards, index) for index in range(shards)]
