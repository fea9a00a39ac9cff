"""Declarative experiment plans.

An :class:`ExperimentPlan` is an ordered list of :class:`Cell`\\ s, each
one fully resolved simulation (config + derived seed) tagged with the
logical *point* it belongs to — the parent config before per-seed seed
splitting.  Plans are built declaratively (cartesian grids, load sweeps,
single points), combined with ``+``, and handed to
:class:`repro.exec.runner.Runner` for serial or parallel execution.

Per-repetition seeds are derived up front (``split_seed(master, 100 +
s)``), so results are bit-identical regardless of execution order or
parallelism.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

from repro.config import SimulationConfig
from repro.errors import AnalysisError, SimulationError
from repro.exec.serialize import config_digest, plan_digest
from repro.traffic.patterns import pattern_name
from repro.utils.rng import split_seed

__all__ = ["Cell", "ExperimentPlan", "Shard"]

#: seed-stream offset used per averaged repetition (historical protocol).
_SEED_STREAM_BASE = 100


def _point_cells(config: SimulationConfig, seeds: int) -> list["Cell"]:
    if seeds < 1:
        raise AnalysisError("seeds must be >= 1")
    return [
        Cell(
            config=config.with_(seed=split_seed(config.seed, _SEED_STREAM_BASE + s)),
            parent=config,
            seed_index=s,
        )
        for s in range(seeds)
    ]


@dataclass(frozen=True)
class Cell:
    """One concrete simulation: resolved config, parent point, seed slot."""

    config: SimulationConfig
    parent: SimulationConfig
    seed_index: int = 0

    @property
    def digest(self) -> str:
        """Stable identity of the resolved config (cache/dedup key)."""
        return config_digest(self.config)

    @property
    def parent_digest(self) -> str:
        """Stable identity of the logical point this cell belongs to."""
        return config_digest(self.parent)

    def label(self) -> str:
        """Short human-readable cell description for plan listings."""
        t = self.parent.traffic
        return (
            f"{self.parent.routing:12s} {pattern_name(t):7s} "
            f"load={t.load:<5.3g} seed#{self.seed_index}"
        )


@dataclass(frozen=True)
class Shard:
    """One slice ``index`` of a plan partitioned into ``count`` slices.

    Validation raises :class:`repro.errors.SimulationError` because a bad
    shard spec means a distributed run would silently execute the wrong
    (or no) cells — that is a broken simulation campaign, not an analysis
    problem.
    """

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise SimulationError(f"shard count must be >= 1, got {self.count}")
        if not 0 <= self.index < self.count:
            raise SimulationError(
                f"shard index {self.index} out of range for "
                f"{self.count} shard(s)"
            )

    @classmethod
    def parse(cls, spec: str) -> "Shard":
        """Parse the CLI form ``"K/N"`` (e.g. ``"0/4"``)."""
        index, sep, count = spec.partition("/")
        try:
            if not sep:
                raise ValueError(spec)
            return cls(int(index), int(count))
        except ValueError:
            raise SimulationError(
                f"shard spec must look like K/N (e.g. 0/4), got {spec!r}"
            ) from None

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"


@dataclass(frozen=True)
class ExperimentPlan:
    """An ordered, immutable collection of simulation cells."""

    cells: tuple[Cell, ...] = ()

    # -- constructors -------------------------------------------------------
    @classmethod
    def point(cls, config: SimulationConfig, *, seeds: int = 1) -> "ExperimentPlan":
        """One logical point: *seeds* repetitions of one config."""
        return cls(tuple(_point_cells(config, seeds)))

    @classmethod
    def sweep(
        cls,
        config: SimulationConfig,
        loads: Sequence[float],
        *,
        seeds: int = 1,
    ) -> "ExperimentPlan":
        """A load sweep of one (routing, pattern) combination."""
        if not loads:
            raise AnalysisError("sweep needs at least one load")
        cells: list[Cell] = []
        for load in loads:
            cells.extend(_point_cells(config.with_traffic(load=load), seeds))
        return cls(tuple(cells))

    @classmethod
    def grid(
        cls,
        base: SimulationConfig,
        *,
        routings: Sequence[str] | None = None,
        patterns: Sequence[str] | None = None,
        loads: Sequence[float] | None = None,
        seeds: int = 1,
    ) -> "ExperimentPlan":
        """Cartesian product over routings x patterns x loads x seeds.

        ``None`` for an axis means "keep the base config's value"; an
        explicitly empty axis is an error (a silently empty grid would
        misattribute results).
        """
        routings = [base.routing] if routings is None else list(routings)
        patterns = [base.traffic.pattern] if patterns is None else list(patterns)
        loads = [base.traffic.load] if loads is None else list(loads)
        if not (routings and patterns and loads):
            raise AnalysisError("grid axes must be None or non-empty")
        cells: list[Cell] = []
        for routing in routings:
            for pattern in patterns:
                cfg = base.with_(routing=routing).with_traffic(pattern=pattern)
                for load in loads:
                    cells.extend(_point_cells(cfg.with_traffic(load=load), seeds))
        return cls(tuple(cells))

    @classmethod
    def merge(cls, plans: Iterable["ExperimentPlan"]) -> "ExperimentPlan":
        """Concatenate several plans into one (order preserved)."""
        cells: list[Cell] = []
        for plan in plans:
            cells.extend(plan.cells)
        return cls(tuple(cells))

    # -- collection protocol ------------------------------------------------
    def __add__(self, other: "ExperimentPlan") -> "ExperimentPlan":
        return ExperimentPlan(self.cells + other.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells)

    # -- sharding -----------------------------------------------------------
    @cached_property
    def digest(self) -> str:
        """Order-independent identity of the plan's unique cell set.

        Two workers that built the "same" plan through different code
        paths (grid vs merged sweeps, shuffled axes, repeated cells) get
        the same digest iff they will simulate the same set of configs —
        print it before launching shards to check the fleet agrees.
        """
        return plan_digest(cell.digest for cell in self.cells)

    def cell_digests(self) -> tuple[str, ...]:
        """Sorted unique digests of every cell in the plan."""
        return tuple(sorted({cell.digest for cell in self.cells}))

    def shard(self, index: int, count: int) -> "ExperimentPlan":
        """The sub-plan owned by shard *index* of *count*.

        The partition walks the sorted unique digests round-robin, so it
        is deterministic, balanced to within one cell, and depends only
        on the plan's cell *set* — never on grid construction order.
        ``shard(0, 1)`` is the identity. A plan with fewer unique cells
        than *count* yields empty sub-plans for the surplus shards, which
        run (and merge) cleanly as no-ops.
        """
        Shard(index, count)  # validates the coordinates
        owned = set(self.cell_digests()[index::count])
        return ExperimentPlan(
            tuple(cell for cell in self.cells if cell.digest in owned)
        )

    # -- introspection ------------------------------------------------------
    def points(self) -> list[SimulationConfig]:
        """Unique parent configs, in first-appearance order."""
        seen: dict[str, SimulationConfig] = {}
        for cell in self.cells:
            seen.setdefault(cell.parent_digest, cell.parent)
        return list(seen.values())

    def unique_cells(self) -> int:
        """Number of distinct simulations the plan will execute."""
        return len({cell.digest for cell in self.cells})

    def describe(self) -> str:
        """Multi-line plan listing (one line per cell)."""
        lines = [
            f"ExperimentPlan: {len(self.cells)} cells "
            f"({len(self.points())} points, {self.unique_cells()} unique "
            "simulations)",
            f"  plan digest: {self.digest}",
        ]
        lines.extend(f"  [{i:3d}] {cell.label()}" for i, cell in enumerate(self.cells))
        return "\n".join(lines)
