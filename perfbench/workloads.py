"""The benchmark's workloads, each one seeded op at a time.

Every workload is driven only through the program's public API
(``Simulator``, ``default_design_factories``,
``synthesize_benchmark_trace``, ``run_campaign``).  An *op* is one whole
campaign: a pretrain phase and then one or more measured cells.

* ``paper-rl-canneal`` and ``faults-rl-blackscholes`` are one-cell
  campaigns run in this process: ``Simulator.pretrain`` -> ``freeze`` ->
  ``warmup`` -> ``measure_trace``, exactly the phase sequence of
  ``run_design_on_trace``, each phase timed from outside.
* ``campaign-grid`` is ``run_campaign`` itself (artifacts built
  serially in this process, cells fanned out over worker processes),
  followed by a warm replay that must come entirely from the caches.

An op returns an :class:`OpResult`: host timings, simulated cycle
counts, a digest of the simulated statistics and the correctness-gate
failures (empty when the op is correct).
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

from repro.noc.network import resolve_kernel
from repro.sim import (
    DESIGN_ORDER,
    CampaignSpec,
    Simulator,
    default_design_factories,
    read_policy_artifact_meta,
    run_campaign,
    scaled_config,
    synthesize_benchmark_trace,
)

__all__ = ["OpResult", "ClosedLoop", "Campaign", "WORKLOADS", "digest_of"]

#: Hard-fault events are placed this many cycles after the nominal start
#: of the measured window (pretrain + warm-up), so they land inside it.
_FAULT_OFFSETS = {"link": 1_400, "burst": 2_400, "router": 3_400}


def digest_of(payload: object) -> str:
    """Stable short hash of a JSON-serialisable value."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass
class OpResult:
    """What one op measured and produced."""

    #: host seconds of the whole op (pretrain + cells)
    wall_s: float = 0.0
    #: simulated cycles over every phase of the op
    sim_cycles: int = 0
    #: (simulated cycles, host seconds) of the pretrain phase(s)
    pretrain: Tuple[int, float] = (0, 0.0)
    #: (simulated cycles, host seconds) of the measured window(s)
    measure: Tuple[int, float] = (0, 0.0)
    #: host seconds of each cell (warm-up + measured trace)
    cell_s: List[float] = field(default_factory=list)
    digest: str = ""
    #: correctness-gate failures; empty means the op is correct
    failures: List[str] = field(default_factory=list)
    #: model outputs printed unchanged (not gated)
    detail: Dict[str, object] = field(default_factory=dict)


def _lifetime_failures(network) -> List[str]:
    """Message conservation over the simulator's whole life."""
    stats = network.stats
    failures = []
    if stats.messages_created != stats.packets_delivered + stats.messages_dropped:
        failures.append(
            "lifetime conservation: created "
            f"{stats.messages_created} != delivered {stats.packets_delivered}"
            f" + dropped {stats.messages_dropped}"
        )
    outstanding = network.scan_outstanding()
    if outstanding:
        failures.append(f"{outstanding} messages still outstanding after drain")
    return failures


@dataclass(frozen=True)
class ClosedLoop:
    """One 8x8 RL simulator: pretrain -> warm-up -> trace, in process."""

    name: str
    benchmark: str
    trace_cycles: int
    pretrain_cycles: int
    warmup_cycles: int
    #: host seconds one op takes on the reference host; ``--seconds``
    #: divided by this fixes how many ops a run makes
    nominal_op_s: float
    #: carry the combined hard/sensor/soft fault plan (adaptive routing)
    faults: bool = False
    #: the correctness gate also requires zero dropped messages
    lossless: bool = False

    def fault_plan(self, seed: int) -> Dict[str, object]:
        """Config overrides of the fault plan; targets derive from ``seed``."""
        rng = random.Random(seed * 7_919 + 17)
        interior = [y * 8 + x for y in range(1, 7) for x in range(1, 7)]
        link_node, router_node = rng.sample(interior, 2)
        port = rng.choice("NESW")
        start = self.pretrain_cycles + self.warmup_cycles
        link, burst, router = (start + _FAULT_OFFSETS[k] for k in ("link", "burst", "router"))
        return {
            "routing": "adaptive",
            "fault_spec": (
                f"link@{link}:{link_node}{port};burst@{burst}+1500:0.05;"
                f"router@{router}:{router_node}"
            ),
            "sensor_spec": (
                f"drop@0.2:util;stuck@r5.temp=0.9;noise@0.05:nack;"
                f"stale@r2+{burst}:4"
            ),
            "mode_hysteresis_epochs": 2,
            "soft_error_spec": f"qtable@2e-5;mode@r3+{link};burst@{router}:4",
            "ecc_protect": True,
            "scrub_every": 1,
        }

    def config(self, seed: int):
        overrides = self.fault_plan(seed) if self.faults else {}
        return scaled_config(
            pretrain_cycles=self.pretrain_cycles,
            warmup_cycles=self.warmup_cycles,
            **overrides,
        )

    def build(self, seed: int):
        """The platform and the trace: what set-up costs."""
        config = self.config(seed)
        policy = default_design_factories(seed)["rl"]()
        sim = Simulator(config, policy, seed=seed)
        records = synthesize_benchmark_trace(self.benchmark, config, self.trace_cycles, seed)
        return sim, records

    def setup(self, seed: int) -> None:
        self.build(seed)

    def op(self, seed: int, scratch: Path, clock) -> OpResult:
        """One op; ``clock`` is the run's :class:`HostClock`."""
        sim, records = self.build(seed)
        network = sim.network
        clock = clock.now
        t0 = clock()
        sim.pretrain()
        sim.policy.freeze()
        t1 = clock()
        pretrain_end = network.now
        sim.warmup()
        t2 = clock()
        measure_start = network.now
        result = sim.measure_trace(records, self.benchmark)
        t3 = clock()

        out = OpResult(
            wall_s=t3 - t0,
            sim_cycles=network.now,
            pretrain=(pretrain_end, t1 - t0),
            measure=(network.now - measure_start, t3 - t2),
            cell_s=[t3 - t1],
        )
        out.failures = _lifetime_failures(network)
        if self.lossless and network.stats.messages_dropped:
            out.failures.append(f"{network.stats.messages_dropped} messages dropped")
        payload = {
            "kernel": network.kernel,
            "cycles": network.now,
            "run": result.constructor_dict(),
            "lifetime": network.stats.as_dict(),
        }
        if self.faults:
            tallies, plan_failures = self._fault_tallies(sim, measure_start)
            payload["faults"] = tallies
            out.failures += plan_failures
        out.digest = digest_of(payload)
        out.detail = {
            "kernel": network.kernel,
            "window_delivered_fraction": result.delivered_fraction,
            "messages_dropped": network.stats.messages_dropped,
            "activity": network.activity.counters(),
        }
        return out

    @staticmethod
    def _fault_tallies(sim, measure_start: int):
        """The plan's simulated tallies, and gate failures if it never fired."""
        metrics = sim.metrics
        counters = {
            name: metrics.peek(name)
            for name in metrics.names()["counters"]
            if name.split(".")[0] in ("sensor", "softerror", "ecc")
        }
        applied = list(sim.hard_faults.applied)
        failures = []
        if len(applied) != len(sim.hard_faults.schedule.events):
            failures.append(f"hard-fault plan applied {len(applied)} events")
        early = [spec for spec, cycle in applied if cycle < measure_start]
        if early:
            failures.append(f"hard faults before the measured window: {early}")
        if not any(name.startswith("sensor.injected.") for name in counters):
            failures.append("no sensor injections")
        if not metrics.peek("ecc.scrubs"):
            failures.append("no ECC scrubs")
        return {"applied": applied, "counters": counters}, failures


@dataclass(frozen=True)
class Campaign:
    """``run_campaign`` over 4 designs x the benchmarks, then a warm replay."""

    name: str
    benchmarks: Tuple[str, ...]
    trace_cycles: int
    pretrain_cycles: int
    warmup_cycles: int
    nominal_op_s: float
    jobs: int = 2

    def config(self, seed: int):
        return scaled_config(
            pretrain_cycles=self.pretrain_cycles, warmup_cycles=self.warmup_cycles
        )

    def spec(self, seed: int) -> CampaignSpec:
        return CampaignSpec(
            config=self.config(seed),
            benchmarks=self.benchmarks,
            designs=DESIGN_ORDER,
            seed=seed,
            trace_cycles=self.trace_cycles,
        )

    def setup(self, seed: int) -> None:
        """Build what the grid's cells build: each trace, each platform."""
        spec = self.spec(seed)
        for benchmark in spec.benchmarks:
            synthesize_benchmark_trace(benchmark, spec.config, spec.trace_cycles, seed)
        factories = default_design_factories(seed)
        for design in spec.designs:
            Simulator(spec.config, factories[design](), seed=seed)

    def op(self, seed: int, scratch: Path, clock) -> OpResult:
        """One op; ``clock`` is the run's :class:`HostClock`.  It probes
        the host during the artifact builds only (while the cells run, a
        probe would measure its contention with the workers) and collects
        the epochs of the cells from the workers."""
        spec = self.spec(seed)
        scratch.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix="campaign-", dir=scratch))
        kwargs = {
            "jobs": self.jobs,
            "artifact_dir": tmp / "artifacts",
            "cache_dir": tmp / "cache",
        }
        clock.worker_dir = tmp
        try:
            t0 = clock.now()
            cold = run_campaign(spec, **kwargs)
            wall = clock.now() - t0
            clock.collect_worker_epochs()
            warm = run_campaign(spec, **kwargs)
            metas = {
                design: read_policy_artifact_meta(info["path"])
                for design, info in cold.artifacts.items()
            }
        finally:
            clock.worker_dir = None
            shutil.rmtree(tmp, ignore_errors=True)

        config = spec.config
        cells = [r for r in cold.results if r is not None and r.run is not None]
        cell_cycles = sum(config.warmup_cycles + r.run.execution_cycles for r in cells)
        pretrain_cycles = sum(int(m["pretrain_cycles"]) for m in metas.values())
        pretrain_s = sum(float(m["pretrain_seconds"]) for m in metas.values())
        out = OpResult(
            wall_s=wall,
            sim_cycles=pretrain_cycles + cell_cycles,
            pretrain=(pretrain_cycles, pretrain_s),
            measure=(cell_cycles, sum(r.elapsed for r in cells)),
            cell_s=[r.elapsed for r in cells],
        )
        suite, warm_suite = (
            {
                bench: {design: run.constructor_dict() for design, run in row.items()}
                for bench, row in result.suite.items()
            }
            for result in (cold, warm)
        )
        expected = len(spec.benchmarks) * len(spec.designs)
        if cold.report.quarantined:
            out.failures.append(f"quarantined cells: {cold.report.quarantined}")
        if len(cells) != expected:
            out.failures.append(f"{len(cells)} of {expected} cells produced a result")
        warm_counters = warm.counters()
        if warm_counters["artifacts_built"]:
            out.failures.append("warm replay rebuilt an artifact")
        if warm_counters["cells_executed"]:
            out.failures.append("warm replay executed a cell")
        if warm_suite != suite:
            out.failures.append("warm replay returned a different suite")
        out.digest = digest_of(
            {
                "kernel": resolve_kernel(None),
                "artifacts": {d: info["key"] for d, info in cold.artifacts.items()},
                "suite": suite,
            }
        )
        out.detail = {
            "kernel": resolve_kernel(None),
            "cold": cold.counters(),
            "warm_s": warm.elapsed_seconds,
            "report": cold.report.as_dict(),
            "warm_report": warm.report.as_dict(),
            "artifact_s": {d: float(m["pretrain_seconds"]) for d, m in metas.items()},
            "window_delivered_fraction": {
                bench: {design: run.delivered_fraction for design, run in row.items()}
                for bench, row in cold.suite.items()
            },
        }
        return out


#: Workloads by name.  Sizes keep one run near ``--seconds`` on a
#: 2-core host: ``nominal_op_s`` was measured there at the commit that
#: introduced the benchmark and is never re-tuned, so later commits run
#: the same work.
WORKLOADS = {
    w.name: w
    for w in (
        ClosedLoop(
            name="paper-rl-canneal",
            benchmark="canneal",
            trace_cycles=1_000,
            pretrain_cycles=1_500,
            warmup_cycles=500,
            nominal_op_s=2.8,
            lossless=True,
        ),
        ClosedLoop(
            name="faults-rl-blackscholes",
            benchmark="blackscholes",
            trace_cycles=6_000,
            pretrain_cycles=1_000,
            warmup_cycles=500,
            nominal_op_s=2.45,
            faults=True,
        ),
        Campaign(
            name="campaign-grid",
            benchmarks=("blackscholes", "x264"),
            trace_cycles=1_000,
            pretrain_cycles=1_500,
            warmup_cycles=500,
            nominal_op_s=4.9,
        ),
    )
}
