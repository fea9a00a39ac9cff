"""The :class:`SimOracle`: end-of-run conservation invariants.

The statistics collector *summarises* a run; the oracle *audits* it.
It keeps its own independent packet counters through the same
generation/delivery hooks, and at the end of a run — after the
simulation has drained the network — verifies that the run was
internally consistent:

* **conservation** — every generated packet was delivered: the oracle's
  own counts, the collector's all-time totals, the in-flight ledger and
  the physical injection-queue backlog all agree on "nothing lost,
  nothing invented";
* **credit balance** — every router's per-(port, VC) credit counters,
  input occupancies and output FIFOs returned to zero, i.e. the VCT
  credit loop leaked nothing in either direction;
* **monotone delivery** — delivery callbacks observed non-decreasing
  timestamps (an event-queue ordering audit);
* **phit accounting** — generated and delivered phit totals match;
* **per-job closure** — for job-structured traffic (``job``/
  ``multi_job``), each job's generated count equals its delivered count
  and no packet crossed a job boundary.

The oracle is enabled with ``SimulationConfig(oracle=True)``; violations
raise :class:`repro.errors.OracleError` (fail loudly), and the passing
report is recorded on the :class:`repro.core.results.SimulationResult`
(and therefore in the on-disk result store) as a per-cell verdict.

Like the collector, the hooks ride the engine's phase boundaries: with
the oracle enabled the simulation's composed sink feeds
:meth:`SimOracle.on_delivery` right after the collector's hook on every
``OP_DELIVER`` dispatch, and :meth:`verify` runs after
:meth:`EventQueue.drain <repro.engine.events.EventQueue.drain>` has
flushed every remaining activation — the credit-balance check then reads
the routers' phase-boundary state (credits, occupancies, FIFOs) at rest.

The hooks cost two counter bumps and a dict probe per packet — cheap
enough to keep the oracle on by default in tests and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import OracleError
from repro.hardware.packet import Packet

__all__ = ["OracleCheck", "OracleReport", "SimOracle"]


@dataclass(frozen=True)
class OracleCheck:
    """Outcome of one invariant: name, verdict, human-readable detail."""

    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class OracleReport:
    """All invariant outcomes of one audited run."""

    checks: tuple[OracleCheck, ...]

    @property
    def passed(self) -> bool:
        """True iff every invariant held."""
        return all(c.ok for c in self.checks)

    def failures(self) -> list[OracleCheck]:
        """The violated invariants (empty when :attr:`passed`)."""
        return [c for c in self.checks if not c.ok]

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready verdict (stored per cell in the result store)."""
        return {
            "passed": self.passed,
            "checks": {
                c.name: {"ok": c.ok, "detail": c.detail} for c in self.checks
            },
        }

    def summary(self) -> str:
        """One line per check, pass/fail marked."""
        return "\n".join(
            f"[{'ok' if c.ok else 'FAIL'}] {c.name}: {c.detail}"
            for c in self.checks
        )


class SimOracle:
    """Independent auditor running alongside the stats collector.

    Construction binds the traffic pattern's ``job_of`` hook; the
    simulation calls :meth:`on_generate` / :meth:`on_delivery` next to
    the collector's hooks and :meth:`verify` after draining.
    """

    __slots__ = (
        "generated",
        "delivered",
        "generated_phits",
        "delivered_phits",
        "job_generated",
        "job_delivered",
        "cross_job",
        "last_delivery",
        "order_violations",
        "_job_of",
    )

    def __init__(self, traffic) -> None:
        self.generated = 0
        self.delivered = 0
        self.generated_phits = 0
        self.delivered_phits = 0
        self.job_generated: dict[int, int] = {}
        self.job_delivered: dict[int, int] = {}
        self.cross_job = 0
        self.last_delivery = -1
        self.order_violations = 0
        self._job_of = traffic.job_of

    # ------------------------------------------------------------------
    # hooks (hot-ish path: once per packet each)
    # ------------------------------------------------------------------
    def on_generate(self, src_node: int, dst_node: int, size: int) -> None:
        """Node *src_node* generated a *size*-phit packet for *dst_node*
        (its Packet is built later, when it reaches the head of the
        injection FIFO)."""
        self.generated += 1
        self.generated_phits += size
        j = self._job_of(src_node)
        if j is not None:
            self.job_generated[j] = self.job_generated.get(j, 0) + 1
            if self._job_of(dst_node) != j:
                self.cross_job += 1

    def on_delivery(self, pkt: Packet, now: int) -> None:
        """*pkt*'s tail reached its destination node at cycle *now*."""
        self.delivered += 1
        self.delivered_phits += pkt.size
        if now < self.last_delivery:
            self.order_violations += 1
        self.last_delivery = now
        j = self._job_of(pkt.src_node)
        if j is not None:
            self.job_delivered[j] = self.job_delivered.get(j, 0) + 1

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def verify(self, sim, *, strict: bool = True) -> OracleReport:
        """Audit the drained simulation *sim*; raise on violation.

        With ``strict`` (the default) a failed invariant raises
        :class:`repro.errors.OracleError` carrying the full report;
        ``strict=False`` returns the report for inspection instead.
        """
        checks = [
            self._check_conservation(sim),
            self._check_credit_balance(sim),
            self._check_monotone_delivery(),
            self._check_phit_accounting(),
            self._check_per_job_closure(),
        ]
        report = OracleReport(tuple(checks))
        if strict and not report.passed:
            raise OracleError(
                "simulation oracle detected broken invariant(s) "
                f"(routing={sim.config.routing}, "
                f"pattern={sim.traffic.name}, "
                f"load={sim.config.traffic.load}, seed={sim.config.seed}):\n"
                + report.summary()
            )
        return report

    # -- individual invariants ------------------------------------------
    def _check_conservation(self, sim) -> OracleCheck:
        stats = sim.stats
        backlog = sum(r.injection_backlog() for r in sim.routers)
        problems = []
        if self.generated != stats.total_generated:
            problems.append(
                f"oracle saw {self.generated} generated packets, collector "
                f"saw {stats.total_generated}"
            )
        if self.delivered != stats.total_delivered:
            problems.append(
                f"oracle saw {self.delivered} delivered packets, collector "
                f"saw {stats.total_delivered}"
            )
        if stats.in_flight() != 0:
            problems.append(f"{stats.in_flight()} packets still in flight after drain")
        if backlog != 0:
            problems.append(f"{backlog} packets still queued at injection after drain")
        if self.generated != self.delivered:
            problems.append(f"generated {self.generated} != delivered {self.delivered}")
        if problems:
            return OracleCheck("conservation", False, "; ".join(problems))
        return OracleCheck(
            "conservation",
            True,
            f"{self.generated} generated == {self.delivered} delivered, "
            "0 in flight, 0 queued",
        )

    def _check_credit_balance(self, sim) -> OracleCheck:
        problems: list[str] = []
        for r in sim.routers:
            kb, pb = r.kb, r.pb  # flat SoA base offsets (see engine.soa)
            for port in range(r.radix):
                nvc = r.credit_nvc[pb + port]
                for vc in range(nvc):
                    used = r.credits_used[kb + port * r.max_vcs + vc]
                    if used != 0:
                        problems.append(
                            f"router {r.router_id} port {port} vc {vc}: "
                            f"{used} credits still held"
                        )
                if r.out_occ[pb + port] != 0:
                    problems.append(
                        f"router {r.router_id} port {port}: output occupancy "
                        f"{r.out_occ[pb + port]} != 0"
                    )
                if r.out_fifo[pb + port]:
                    problems.append(
                        f"router {r.router_id} port {port}: "
                        f"{len(r.out_fifo[pb + port])} packets stuck in "
                        "output FIFO"
                    )
            for key in range(r.nkeys):
                if r.in_occ[kb + key] != 0:
                    problems.append(
                        f"router {r.router_id} input key {key}: occupancy "
                        f"{r.in_occ[kb + key]} != 0"
                    )
        if problems:
            # Cap the detail so a systemic failure stays readable.
            shown = "; ".join(problems[:5])
            if len(problems) > 5:
                shown += f"; … {len(problems) - 5} more"
            return OracleCheck("credit_balance", False, shown)
        return OracleCheck(
            "credit_balance",
            True,
            f"all {len(sim.routers)} routers returned to zero credits/occupancy",
        )

    def _check_monotone_delivery(self) -> OracleCheck:
        if self.order_violations:
            return OracleCheck(
                "monotone_delivery",
                False,
                f"{self.order_violations} deliveries observed out of time order",
            )
        return OracleCheck(
            "monotone_delivery",
            True,
            f"{self.delivered} deliveries in non-decreasing time order",
        )

    def _check_phit_accounting(self) -> OracleCheck:
        if self.generated_phits != self.delivered_phits:
            return OracleCheck(
                "phit_accounting",
                False,
                f"generated {self.generated_phits} phits != delivered "
                f"{self.delivered_phits} phits",
            )
        return OracleCheck(
            "phit_accounting",
            True,
            f"{self.generated_phits} phits conserved",
        )

    def _check_per_job_closure(self) -> OracleCheck:
        if not self.job_generated and not self.job_delivered:
            return OracleCheck("per_job_closure", True, "no job-structured traffic")
        problems = []
        if self.cross_job:
            problems.append(f"{self.cross_job} packets crossed a job boundary")
        jobs = sorted(set(self.job_generated) | set(self.job_delivered))
        for j in jobs:
            g = self.job_generated.get(j, 0)
            d = self.job_delivered.get(j, 0)
            if g != d:
                problems.append(f"job {j}: generated {g} != delivered {d}")
        if problems:
            return OracleCheck("per_job_closure", False, "; ".join(problems))
        per_job = ", ".join(f"job {j}={self.job_generated.get(j, 0)}" for j in jobs)
        return OracleCheck("per_job_closure", True, f"closed: {per_job}")
