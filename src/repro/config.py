"""Configuration dataclasses for the Dragonfly simulator.

Everything the paper's Table I parameterises lives here:

* :class:`NetworkConfig`   - topology shape (p, a, h) and arrangement.
* :class:`RouterConfig`    - buffering, VCs, pipeline, allocator priority.
* :class:`TrafficConfig`   - pattern, offered load, packet size.
* :class:`SimulationConfig`- the full bundle plus timing windows and seed.

Presets
-------
:func:`paper_config` builds the paper's h=6 / 5,256-node system;
:func:`small_config` builds the h=2 / 72-node system of the paper's Fig. 1
(the default for tests and benchmarks — :func:`small_config` says why it
stands in for h=6); :func:`tiny_config` is an h=1 / 6-node system for
fast unit tests.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError

__all__ = [
    "BASE_PATTERN_CHOICES",
    "JobSpec",
    "resolve_job_groups",
    "NetworkConfig",
    "PATTERN_CHOICES",
    "RouterConfig",
    "TrafficConfig",
    "SimulationConfig",
    "paper_config",
    "small_config",
    "medium_config",
    "tiny_config",
]

#: static single-phase patterns (legal inside ``phase_patterns``).
BASE_PATTERN_CHOICES = (
    "uniform",
    "adversarial",
    "advc",
    "permutation",
    "hotspot",
    "job",
)

#: valid ``TrafficConfig.pattern`` values (public: CLI choices etc.).
#: ``phased`` switches between base patterns every ``phase_length`` cycles;
#: ``multi_job`` places the ``jobs`` specs on disjoint group ranges.
PATTERN_CHOICES = BASE_PATTERN_CHOICES + (
    "phased",
    "multi_job",
)


def _is_int(value: object) -> bool:
    """True for an int that is not a bool (``True == 1``, but not in JSON)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _coerce_float(config: object, name: str) -> float:
    """Store field *name* of a frozen *config* as a ``float`` and return it.

    ``load=1`` and ``load=1.0`` compare equal, so they must be one config
    with one digest: the canonical JSON of an int would differ.
    """
    value = getattr(config, name)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    value = float(value)
    object.__setattr__(config, name, value)
    return value


@dataclass(frozen=True)
class JobSpec:
    """One job of a ``multi_job`` workload (see traffic.scenarios).

    Attributes
    ----------
    first_group:
        First group of the job's consecutive (wrapping) group range.
    groups:
        Number of consecutive groups the job occupies.
    pattern:
        Communication inside the job: ``"uniform"`` (uniform over the
        job's nodes) or ``"adversarial"`` (group ``k`` of the job sends
        to group ``k+1`` of the job, ADV-style).
    load_scale:
        Per-job thinning factor in ``(0, 1]`` applied on top of the
        global offered load (1.0 = full load).
    start_cycle:
        The job is idle before this cycle (staggered start).
    """

    first_group: int = 0
    groups: int = 2
    pattern: str = "uniform"
    load_scale: float = 1.0
    start_cycle: int = 0

    def __post_init__(self) -> None:
        if not _is_int(self.first_group) or self.first_group < 0:
            raise ConfigurationError(
                f"job first_group must be an int >= 0, got {self.first_group!r}"
            )
        if not _is_int(self.groups) or self.groups < 1:
            raise ConfigurationError(
                f"job groups must be an int >= 1, got {self.groups!r}"
            )
        if self.pattern not in ("uniform", "adversarial"):
            raise ConfigurationError(
                f"job pattern must be 'uniform' or 'adversarial', "
                f"got {self.pattern!r}"
            )
        if self.pattern == "adversarial" and self.groups < 2:
            raise ConfigurationError("an adversarial job needs at least 2 groups")
        if not (0.0 < _coerce_float(self, "load_scale") <= 1.0):
            raise ConfigurationError(
                f"job load_scale must be in (0, 1], got {self.load_scale}"
            )
        if not _is_int(self.start_cycle) or self.start_cycle < 0:
            raise ConfigurationError(
                f"job start_cycle must be an int >= 0, got {self.start_cycle!r}"
            )


def resolve_job_groups(
    jobs: Sequence[JobSpec], total_groups: int, nodes_per_group: int
) -> list[list[int]]:
    """Resolve and validate multi-job placement on a network shape.

    Returns one (wrapped) group-id list per job; raises
    :class:`repro.errors.ConfigurationError` when a job does not fit,
    is too small to communicate, or overlaps another job.  Shared by
    config cross-validation (which knows the shape but not the
    topology) and :class:`repro.traffic.scenarios.MultiJobTraffic`.
    """
    claimed: dict[int, int] = {}
    resolved: list[list[int]] = []
    for idx, job in enumerate(jobs):
        if job.groups > total_groups:
            raise ConfigurationError(
                f"job {idx} spans {job.groups} groups but the network "
                f"has only {total_groups}"
            )
        if job.groups * nodes_per_group < 2:
            raise ConfigurationError(
                f"job {idx} has fewer than 2 nodes; it cannot communicate"
            )
        groups = [(job.first_group + k) % total_groups for k in range(job.groups)]
        for g in groups:
            if g in claimed:
                raise ConfigurationError(
                    f"jobs {claimed[g]} and {idx} both claim group {g}; "
                    "multi_job jobs must occupy disjoint group ranges"
                )
            claimed[g] = idx
        resolved.append(groups)
    return resolved


@dataclass(frozen=True)
class NetworkConfig:
    """Shape of a canonical Dragonfly network.

    Attributes
    ----------
    p:
        Computing nodes attached to every router.
    a:
        Routers per group (groups are complete local graphs).
    h:
        Global links per router.  A *balanced* Dragonfly has
        ``a = 2h, p = h``; the constructor accepts any positive values but
        requires the canonical complete inter-group graph
        ``groups = a*h + 1``.
    arrangement:
        Global link arrangement name: ``"palmtree"`` (paper default),
        ``"consecutive"`` or ``"random"``.
    local_link_latency / global_link_latency / node_link_latency:
        One-way propagation latency of each link class, in router cycles
        (Table I: 10 local, 100 global; node links are modelled as 1).
    """

    p: int = 2
    a: int = 4
    h: int = 2
    arrangement: str = "palmtree"
    local_link_latency: int = 10
    global_link_latency: int = 100
    node_link_latency: int = 1

    def __post_init__(self) -> None:
        for name in ("p", "a", "h"):
            v = getattr(self, name)
            if not _is_int(v) or v < 1:
                raise ConfigurationError(f"{name} must be a positive int, got {v!r}")
        for name in (
            "local_link_latency",
            "global_link_latency",
            "node_link_latency",
        ):
            v = getattr(self, name)
            if not _is_int(v) or v < 1:
                raise ConfigurationError(
                    f"{name} must be a positive int number of cycles, got {v!r}"
                )
        if self.arrangement not in ("palmtree", "consecutive", "random"):
            raise ConfigurationError(
                f"unknown arrangement {self.arrangement!r}; "
                "expected 'palmtree', 'consecutive' or 'random'"
            )

    # -- derived quantities -------------------------------------------------
    @property
    def groups(self) -> int:
        """Number of groups in the canonical (complete-graph) Dragonfly."""
        return self.a * self.h + 1

    @property
    def routers_per_group(self) -> int:
        """Alias of ``a`` for readability at call sites."""
        return self.a

    @property
    def num_routers(self) -> int:
        """Total routers in the system (``groups * a``)."""
        return self.groups * self.a

    @property
    def num_nodes(self) -> int:
        """Total computing nodes (``groups * a * p``)."""
        return self.num_routers * self.p

    @property
    def local_ports(self) -> int:
        """Local ports per router (``a - 1``, complete group graph)."""
        return self.a - 1

    @property
    def router_radix(self) -> int:
        """Total router ports: p injection + (a-1) local + h global."""
        return self.p + self.a - 1 + self.h

    def describe(self) -> str:
        """One-line human-readable summary of the network shape."""
        return (
            f"Dragonfly(p={self.p}, a={self.a}, h={self.h}): "
            f"{self.groups} groups, {self.num_routers} routers, "
            f"{self.num_nodes} nodes, {self.arrangement} arrangement"
        )


@dataclass(frozen=True)
class RouterConfig:
    """Router microarchitecture parameters (paper Table I).

    Attributes
    ----------
    pipeline_latency:
        Cycles from switch-allocation grant to arrival in the output
        buffer (Table I: 5).
    speedup:
        Internal crossbar frequency multiplier.  With ``speedup = 2`` the
        switch moves 2 phits/cycle, so an 8-phit packet occupies an input
        or output of the crossbar for 4 cycles while the external link
        needs 8.
    local_input_buffer / global_input_buffer:
        Input buffer capacity per virtual channel, in phits (32 / 256).
    output_buffer:
        Output FIFO capacity per port, in phits (32).
    local_vcs / global_vcs:
        Virtual channels per local and global port.  4 local VCs cover the
        longest Valiant-to-node path and our escape-VC scheme, which
        deviates from Table I's 3-VC OLM reuse (:mod:`repro.routing.vc`
        documents both schemes).
    transit_priority:
        When True the allocator strictly prefers in-transit candidates over
        new injections (the Blue Gene-style priority the paper evaluates in
        Figures 2-4 / Table II, and removes in Figures 5-6 / Table III).
    """

    pipeline_latency: int = 5
    speedup: int = 2
    local_input_buffer: int = 32
    global_input_buffer: int = 256
    output_buffer: int = 32
    local_vcs: int = 4
    global_vcs: int = 2
    transit_priority: bool = True

    def __post_init__(self) -> None:
        for name in (
            "pipeline_latency",
            "speedup",
            "local_input_buffer",
            "global_input_buffer",
            "output_buffer",
            "local_vcs",
            "global_vcs",
        ):
            v = getattr(self, name)
            if not _is_int(v) or v < 1:
                raise ConfigurationError(f"{name} must be a positive int, got {v!r}")
        if not isinstance(self.transit_priority, bool):
            raise ConfigurationError(
                f"transit_priority must be a bool, got {self.transit_priority!r}"
            )
        if self.global_vcs < 2:
            raise ConfigurationError(
                "global_vcs must be >= 2: non-minimal paths traverse two "
                "global hops and the deadlock-avoidance scheme assigns them "
                "ascending VCs"
            )
        if self.local_vcs < 4:
            raise ConfigurationError(
                "local_vcs must be >= 4: Valiant-to-node paths take up to 4 "
                "local hops and the escape scheme reserves the last VC"
            )


@dataclass(frozen=True)
class TrafficConfig:
    """Traffic workload description.

    Attributes
    ----------
    pattern:
        ``"uniform"`` (UN), ``"adversarial"`` (ADV+k), ``"advc"``
        (adversarial consecutive), ``"permutation"``, ``"hotspot"`` or
        ``"job"`` (consecutive job placement, the scenario that motivates
        ADVc in Section III).
    load:
        Offered load in phits/(node*cycle), in ``(0, 1]``.
    packet_size:
        Packet length in phits (Table I: 8).
    adv_offset:
        Destination-group offset for ADV+k (default +1).
    job_groups:
        Number of consecutive groups a ``"job"`` workload spans
        (default ``h + 1``, the paper's motivating case).
    hotspot_fraction:
        For ``"hotspot"``: fraction of traffic aimed at the hot node.
    burst_on / burst_off:
        On/off bursty injection: nodes generate for ``burst_on`` cycles,
        stay silent for ``burst_off`` cycles, repeating.  Both zero (the
        default) disables bursting; otherwise both must be positive.
        Applies on top of any pattern.
    ramp_cycles:
        Ramped load: the effective injection probability rises linearly
        from 0 to the configured ``load`` over the first ``ramp_cycles``
        cycles (0 disables).  Applies on top of any pattern.
    phase_patterns / phase_length:
        For ``"phased"``: the base patterns cycled through, switching
        every ``phase_length`` cycles.
    jobs:
        For ``"multi_job"``: one :class:`JobSpec` per job; jobs must
        occupy disjoint group ranges.
    """

    pattern: str = "uniform"
    load: float = 0.5
    packet_size: int = 8
    adv_offset: int = 1
    job_groups: int | None = None
    hotspot_fraction: float = 0.2
    burst_on: int = 0
    burst_off: int = 0
    ramp_cycles: int = 0
    phase_patterns: tuple[str, ...] = ()
    phase_length: int = 0
    jobs: tuple[JobSpec, ...] = ()

    _PATTERNS = PATTERN_CHOICES

    def __post_init__(self) -> None:
        if self.pattern not in self._PATTERNS:
            raise ConfigurationError(
                f"unknown traffic pattern {self.pattern!r}; "
                f"expected one of {self._PATTERNS}"
            )
        if not (0.0 < _coerce_float(self, "load") <= 1.0):
            raise ConfigurationError(
                f"load must be in (0, 1] phits/(node*cycle), got {self.load}"
            )
        if not _is_int(self.packet_size) or self.packet_size < 1:
            raise ConfigurationError(
                f"packet_size must be a positive int, got {self.packet_size!r}"
            )
        if not _is_int(self.adv_offset) or self.adv_offset == 0:
            raise ConfigurationError(
                f"adv_offset must be a nonzero int, got {self.adv_offset!r}"
            )
        if not (0.0 < _coerce_float(self, "hotspot_fraction") <= 1.0):
            raise ConfigurationError(
                f"hotspot_fraction must be in (0, 1], got {self.hotspot_fraction}"
            )
        if self.job_groups is not None and (
            not _is_int(self.job_groups) or self.job_groups < 2
        ):
            raise ConfigurationError(
                f"job_groups must be an int >= 2 (or None), got {self.job_groups!r}"
            )
        self._validate_scenario_fields()

    def _validate_scenario_fields(self) -> None:
        # Normalise sequences (JSON round-trips deliver lists of dicts).
        object.__setattr__(self, "phase_patterns", tuple(self.phase_patterns))
        object.__setattr__(
            self,
            "jobs",
            tuple(j if isinstance(j, JobSpec) else JobSpec(**j) for j in self.jobs),
        )
        for name in ("burst_on", "burst_off", "ramp_cycles", "phase_length"):
            v = getattr(self, name)
            if not _is_int(v) or v < 0:
                raise ConfigurationError(f"{name} must be an int >= 0, got {v!r}")
        if (self.burst_on > 0) != (self.burst_off > 0):
            raise ConfigurationError(
                "burst_on and burst_off must both be zero (no bursting) "
                "or both positive (on/off windows)"
            )
        if self.pattern == "phased":
            if not self.phase_patterns or self.phase_length < 1:
                raise ConfigurationError(
                    "pattern 'phased' needs non-empty phase_patterns and "
                    "phase_length >= 1"
                )
            for p in self.phase_patterns:
                if p not in BASE_PATTERN_CHOICES:
                    raise ConfigurationError(
                        f"phase pattern {p!r} must be one of "
                        f"{BASE_PATTERN_CHOICES} (no nesting)"
                    )
        elif self.phase_patterns or self.phase_length:
            raise ConfigurationError(
                "phase_patterns/phase_length are only valid with "
                "pattern 'phased'"
            )
        if self.pattern == "multi_job":
            if not self.jobs:
                raise ConfigurationError(
                    "pattern 'multi_job' needs at least one JobSpec in jobs"
                )
        elif self.jobs:
            raise ConfigurationError("jobs is only valid with pattern 'multi_job'")


@dataclass(frozen=True)
class SimulationConfig:
    """Full simulation bundle: network + router + traffic + timing + seed.

    Attributes
    ----------
    warmup_cycles:
        Cycles simulated before statistics collection starts.
    measure_cycles:
        Length of the measurement window (paper: 15,000).
    routing:
        Routing mechanism name, one of
        ``min``, ``obl-rrg``, ``obl-crg``, ``src-rrg``, ``src-crg``,
        ``in-trns-rrg``, ``in-trns-crg``, ``in-trns-mm``
        (matching the paper's figure legends).
    seed:
        Master seed; child streams are derived per component.
    misroute_threshold:
        In-transit adaptive congestion threshold as a fraction of the
        minimal port's credit capacity (Table I: 43%).
    pb_threshold_local / pb_threshold_global:
        PiggyBack saturation offsets in *packets* (Table I: T=5 local,
        T=3 global).
    pb_update_period:
        Cycles between group-wide saturation-bit snapshots; models the
        piggybacked-ECN propagation delay.
    deadlock_cycles:
        Watchdog: raise :class:`repro.errors.SimulationError` if packets
        are in flight but nothing is delivered or moved for this many
        cycles.
    oracle:
        Run the :class:`repro.metrics.oracle.SimOracle` alongside the
        stats collector: after the measurement window the network is
        drained and end-of-run conservation invariants (packet
        conservation, credit balance, per-job closure) are verified,
        raising :class:`repro.errors.OracleError` on any violation.
        Draining changes ``in_flight_at_end``/``events_processed`` (never
        the measurement-window metrics), so the flag is part of the
        config digest.
    """

    network: NetworkConfig = field(default_factory=NetworkConfig)
    router: RouterConfig = field(default_factory=RouterConfig)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    routing: str = "min"
    warmup_cycles: int = 2000
    measure_cycles: int = 15000
    seed: int = 1
    misroute_threshold: float = 0.43
    pb_threshold_local: int = 5
    pb_threshold_global: int = 3
    pb_update_period: int = 8
    deadlock_cycles: int = 50_000
    oracle: bool = False

    _ROUTINGS = (
        "min",
        "obl-rrg",
        "obl-crg",
        "src-rrg",
        "src-crg",
        "in-trns-rrg",
        "in-trns-crg",
        "in-trns-mm",
    )

    def __post_init__(self) -> None:
        if self.routing not in self._ROUTINGS:
            raise ConfigurationError(
                f"unknown routing {self.routing!r}; expected one of {self._ROUTINGS}"
            )
        for name, minimum in (
            ("warmup_cycles", 0),
            ("measure_cycles", 1),
            ("pb_threshold_local", 0),
            ("pb_threshold_global", 0),
            ("pb_update_period", 1),
            ("deadlock_cycles", 1000),
        ):
            v = getattr(self, name)
            if not _is_int(v) or v < minimum:
                raise ConfigurationError(
                    f"{name} must be an int >= {minimum}, got {v!r}"
                )
        if not _is_int(self.seed):
            raise ConfigurationError(f"seed must be an int, got {self.seed!r}")
        if not isinstance(self.oracle, bool):
            raise ConfigurationError(f"oracle must be a bool, got {self.oracle!r}")
        if not (0.0 < _coerce_float(self, "misroute_threshold") < 1.0):
            raise ConfigurationError(
                f"misroute_threshold must be in (0,1), got {self.misroute_threshold}"
            )
        # Cross-checks: the traffic pattern must fit the topology.
        patterns_used = (
            self.traffic.phase_patterns
            if self.traffic.pattern == "phased"
            else (self.traffic.pattern,)
        )
        if "adversarial" in patterns_used:
            if abs(self.traffic.adv_offset) >= self.network.groups:
                raise ConfigurationError(
                    "adv_offset must be smaller than the number of groups"
                )
        if "job" in patterns_used:
            jg = self.traffic.job_groups or (self.network.h + 1)
            if jg > self.network.groups:
                raise ConfigurationError(
                    f"job_groups={jg} exceeds total groups {self.network.groups}"
                )
        if self.traffic.pattern == "multi_job":
            self._validate_jobs()
        if self.network.num_nodes < 2:
            raise ConfigurationError("network must have at least 2 nodes")

    def _validate_jobs(self) -> None:
        """Multi-job placement must fit the network on disjoint groups."""
        resolve_job_groups(
            self.traffic.jobs,
            self.network.groups,
            self.network.a * self.network.p,
        )

    # -- convenience --------------------------------------------------------
    @property
    def total_cycles(self) -> int:
        """End-of-simulation time (warmup + measurement)."""
        return self.warmup_cycles + self.measure_cycles

    def with_(self, **kwargs) -> "SimulationConfig":
        """Return a copy with top-level fields replaced (frozen-safe)."""
        return replace(self, **kwargs)

    def with_traffic(self, **kwargs) -> "SimulationConfig":
        """Return a copy with traffic fields replaced."""
        return replace(self, traffic=replace(self.traffic, **kwargs))

    def with_router(self, **kwargs) -> "SimulationConfig":
        """Return a copy with router fields replaced."""
        return replace(self, router=replace(self.router, **kwargs))

    def with_network(self, **kwargs) -> "SimulationConfig":
        """Return a copy with network fields replaced."""
        return replace(self, network=replace(self.network, **kwargs))


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def paper_config(**overrides) -> SimulationConfig:
    """The paper's full-size system: h=6, a=12, p=6, 73 groups, 5,256 nodes.

    Warning: a load sweep at this scale in pure Python takes hours; it is
    exercised by one smoke benchmark only.  Keyword overrides are applied
    with :meth:`SimulationConfig.with_`.
    """
    cfg = SimulationConfig(
        network=NetworkConfig(p=6, a=12, h=6),
        warmup_cycles=5000,
        measure_cycles=15000,
    )
    return cfg.with_(**overrides) if overrides else cfg


def medium_config(**overrides) -> SimulationConfig:
    """A balanced h=3 Dragonfly: a=6, p=3, 19 groups, 342 nodes."""
    cfg = SimulationConfig(
        network=NetworkConfig(p=3, a=6, h=3),
        warmup_cycles=1500,
        measure_cycles=4000,
    )
    return cfg.with_(**overrides) if overrides else cfg


def small_config(**overrides) -> SimulationConfig:
    """The paper's Fig. 1 scale: h=2, a=4, p=2, 9 groups, 72 nodes.

    This is the default experiment scale because it is fast: every
    mechanism runs at h=2, and a cell takes seconds.  It is not the
    paper's scale: Tables II/III were measured at h=6
    (:mod:`repro.analysis.paper_reference`), and the fairness numbers do
    not carry over unchanged — compare against the tables at h=6.
    """
    cfg = SimulationConfig(
        network=NetworkConfig(p=2, a=4, h=2),
        warmup_cycles=1500,
        measure_cycles=4000,
    )
    return cfg.with_(**overrides) if overrides else cfg


def tiny_config(**overrides) -> SimulationConfig:
    """Minimal h=1 Dragonfly (a=2, p=1, 3 groups, 6 nodes) for unit tests."""
    cfg = SimulationConfig(
        network=NetworkConfig(
            p=1, a=2, h=1, local_link_latency=2, global_link_latency=5
        ),
        warmup_cycles=200,
        measure_cycles=800,
    )
    return cfg.with_(**overrides) if overrides else cfg
