"""Parallel sweep orchestration with on-disk result caching.

The paper's evaluation (Figs 6-10) is a grid of (design x error-rate x
traffic x seed) measurement runs.  Each point is an independent,
deterministic simulation, so the grid parallelizes perfectly and every
completed point is worth persisting.  This module provides:

* :class:`SweepSpec` — a declarative grid specification that expands into
  :class:`SweepPoint` jobs, one per simulation;
* :func:`run_sweep_point` — the process-safe evaluator for a single
  point (also the ``--jobs 1`` serial path, so serial and parallel runs
  execute byte-identical code);
* :class:`SweepRunner` — fans pending points out over supervised
  ``multiprocessing`` workers, caches every result as JSON under
  ``.sweep_cache/`` keyed by a stable content hash of (config, point),
  and reports structured progress (done / cached / running, ETA).
  Re-running an identical grid — or resuming an interrupted one —
  replays cached points without executing a single simulation.

  The runner is a *supervisor*, not a fire-and-forget pool: each point
  runs in its own worker process with an optional wall-clock timeout,
  a crashed or killed worker is detected by its exit code and its slot
  replenished, and a failed point is retried with seeded exponential
  backoff before being quarantined.  Results flush to the cache the
  moment each point lands, so a SIGKILL mid-sweep loses at most the
  points in flight.  :attr:`SweepRunner.report` summarizes the outcome
  (completed / retried / quarantined / elapsed) as a
  :class:`SweepReport`.  A :class:`Prerequisite` (a campaign's
  per-design warm start) rides the same supervised pass: it launches
  first, and the points that need it wait for it;
* merge helpers that aggregate point results back into the
  benchmarks-x-designs shape :mod:`repro.sim.experiment` produces, so
  the normalized-to-baseline tables come out identical.

Point kinds
-----------
``trace``
    One design replays one synthesized benchmark trace with the full
    phase structure (``experiment.run_design_on_trace``).
``load``
    The classic load sweep: one design under open-loop synthetic traffic
    at one injection rate; reports latency / throughput / saturation.
``suite``
    One design over an ordered benchmark list: a single pre-training
    phase, snapshotted, then every benchmark runs a fresh clone of the
    frozen snapshot — exactly ``experiment.run_parsec_suite``'s
    per-design row, with online adaptation kept cell-local.
``campaign``
    One (benchmark, design) cell of the paper-figure campaign: the cell
    restores its design's warm-start snapshot from disk — a simulator
    whose policy was cloned from the pretrained artifact and which has
    already run the warm-up (``repro.sim.campaign``) — and only replays
    its trace, so the grid pays each design's pre-training and warm-up
    exactly once.
``mode_error``
    The raw mode trade-off surface: the whole mesh pinned to one
    operation mode under a flat channel error probability (used by
    ``examples/fault_sweep.py``).
``soft_error``
    One full closed-loop design under an SEU campaign that flips bits in
    the quantized Q-table SRAM and the per-router mode registers, with
    the SECDED/scrub/TMR defense layer on (``ecc_protect``) or off.

Determinism contract: every evaluator seeds all randomness from the
point's ``seed`` field (the simulators use only local
``random.Random`` instances), so a point's result is a pure function of
(config, point) — which is precisely what the cache key hashes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import multiprocessing
import os
import random
import sys
import time
import uuid
import zlib
from dataclasses import dataclass, field
from multiprocessing import connection
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.modes import OperationMode
from repro.faults.hardfaults import HardFaultModel, HardFaultSchedule
from repro.noc.network import Network
from repro.noc.packet import Packet
from repro.noc.routing import ROUTING_FUNCTIONS
from repro.noc.topology import MeshTopology
from repro.noc.watchdog import NoCInvariantError
from repro.sim.checkpoint import load_warm_start, warm_start_key
from repro.sim.config import SimulationConfig
from repro.sim.experiment import (
    DESIGN_ORDER,
    clone_policy,
    default_design_factories,
    normalize_to_baseline,
    pretrain_policy,
    run_design_on_trace,
    synthesize_benchmark_trace,
)
from repro.sim.metrics import RunResult
from repro.sim.simulator import Simulator
from repro.traffic.synthetic import SyntheticTraffic

__all__ = [
    "CACHE_SCHEMA",
    "DEFAULT_CACHE_DIR",
    "SweepPoint",
    "SweepSpec",
    "PointResult",
    "SweepProgress",
    "SweepReport",
    "SweepCache",
    "SweepRunner",
    "Prerequisite",
    "point_cache_key",
    "run_sweep_point",
    "merge_trace_grid",
    "merge_suite",
    "normalized_tables",
    "stderr_progress",
]

#: Bump when an evaluator's semantics change, invalidating cached points.
#: Schema 2: hard-fault campaigns (``chaos`` kind, ``fault_spec`` field).
#: Schema 3: entries carry a CRC32 over the canonical payload JSON, so a
#: bit-rotted or hand-mangled entry misses instead of replaying garbage.
#: Schema 4: sensor-fault campaigns (``sensor_chaos`` kind,
#: ``sensor_spec`` point field) — the key now hashes the sensor spec, so
#: a cached healthy point can never be served for a sensor-faulted one.
#: Schema 5: soft-error campaigns (``soft_error`` kind,
#: ``soft_error_spec`` point field) — SEU flips in Q-table SRAM and mode
#: registers change every evaluator's result surface, so the key hashes
#: the SEU spec (and the config now carries ecc_protect / scrub_every).
#: Schema 6: the paper-figure campaign (``campaign`` kind, with the
#: pretrained-artifact content hash in the key), the cross-benchmark
#: leakage fix (``suite`` cells now clone from a frozen post-pretrain
#: snapshot instead of chaining one live policy), and full-32-bit-CRC
#: benchmark trace seeding — every trace/suite result surface changed,
#: so schema-5 entries must miss.
CACHE_SCHEMA = 6

DEFAULT_CACHE_DIR = ".sweep_cache"

logger = logging.getLogger("repro.sim.sweep")

POINT_KINDS = (
    "trace", "load", "suite", "mode_error", "chaos", "sensor_chaos",
    "soft_error", "campaign",
)

MODE_DESIGNS = tuple(f"mode{int(m)}" for m in OperationMode)


# ----------------------------------------------------------------------
# Grid specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepPoint:
    """One independent simulation job of a sweep grid.

    ``traffic`` names a benchmark (``trace``), a synthetic pattern
    (``load`` / ``mode_error``), or a comma-joined ordered benchmark
    list (``suite``).  ``cycles`` is the trace injection span for trace
    kinds, the injection span for ``load``, and the packet count for
    ``mode_error``.  Unused numeric fields keep their defaults so cache
    keys stay stable across kinds.
    """

    kind: str
    design: str
    traffic: str
    seed: int
    cycles: int
    error_scale: float = 1.0
    rate: float = 0.0
    error_probability: float = 0.0
    #: hard-fault campaign spec ("" = healthy); part of the cache key, so
    #: identical schedules replay from cache and new ones re-simulate
    fault_spec: str = ""
    #: sensor-fault campaign spec ("" = healthy telemetry); also part of
    #: the cache key (schema 4)
    sensor_spec: str = ""
    #: soft-error (SEU) campaign spec ("" = upset-free SRAM); part of the
    #: cache key (schema 5)
    soft_error_spec: str = ""
    #: content hash of the pretrained-policy artifact a ``campaign`` cell
    #: clones from ("" = stateless design); part of the cache key, so a
    #: cell retrained under a different config can never replay stale
    #: results
    artifact_hash: str = ""
    #: filesystem location of that artifact; deliberately NOT in the
    #: cache key — moving or renaming the artifact directory must not
    #: invalidate results whose content hash is unchanged
    artifact_path: str = ""
    #: warmed-up simulator a ``campaign`` cell starts from; NOT in the
    #: cache key either: its content is a function of fields that are
    #: (config, design, seed, artifact_hash), and the cell checks it
    warm_start_path: str = ""

    def __post_init__(self) -> None:
        if self.kind not in POINT_KINDS:
            raise ValueError(f"unknown point kind {self.kind!r}")
        if self.kind == "mode_error":
            if self.design not in MODE_DESIGNS:
                raise ValueError(
                    f"mode_error points take designs {MODE_DESIGNS}, got {self.design!r}"
                )
        elif self.kind == "chaos":
            # Chaos points compare routing policies, not RL designs.
            if self.design not in ROUTING_FUNCTIONS:
                raise ValueError(
                    f"chaos points take routings "
                    f"{tuple(sorted(ROUTING_FUNCTIONS))}, got {self.design!r}"
                )
        elif self.design not in DESIGN_ORDER:
            raise ValueError(
                f"unknown design {self.design!r}; pick one of {', '.join(DESIGN_ORDER)}"
            )
        if self.cycles < 1:
            raise ValueError("cycles must be positive")

    def label(self) -> str:
        """Short human-readable identifier used in progress lines."""
        parts = [self.kind, self.design, self.traffic, f"s{self.seed}"]
        if self.kind in ("load", "chaos", "sensor_chaos", "soft_error") and self.rate:
            parts.append(f"r{self.rate:g}")
        if self.kind == "mode_error":
            parts.append(f"p{self.error_probability:g}")
        if self.error_scale != 1.0:
            parts.append(f"x{self.error_scale:g}")
        if self.fault_spec:
            parts.append(self.fault_spec)
        if self.sensor_spec:
            parts.append(self.sensor_spec)
        if self.soft_error_spec:
            parts.append(self.soft_error_spec)
        if self.artifact_hash:
            parts.append(f"a{self.artifact_hash[:8]}")
        return ":".join(parts)


@dataclass(frozen=True)
class SweepSpec:
    """Declarative grid: the cross product expanded by :meth:`expand`.

    Expansion order is deterministic — traffic (outer), error scale,
    rate / error probability, seed, design (inner) — so result lists
    line up across runs and ``--jobs`` settings.
    """

    config: SimulationConfig
    kind: str = "trace"
    designs: Tuple[str, ...] = DESIGN_ORDER
    traffics: Tuple[str, ...] = ("canneal",)
    seeds: Tuple[int, ...] = (0,)
    error_scales: Tuple[float, ...] = (1.0,)
    rates: Tuple[float, ...] = (0.0,)
    error_probabilities: Tuple[float, ...] = (0.0,)
    #: hard-fault campaign axis (chaos kinds only; "" = healthy baseline)
    fault_specs: Tuple[str, ...] = ("",)
    #: sensor-fault campaign axis (sensor_chaos kind only)
    sensor_specs: Tuple[str, ...] = ("",)
    #: soft-error campaign axis (soft_error kind only)
    soft_error_specs: Tuple[str, ...] = ("",)
    cycles: int = 3_000

    def __post_init__(self) -> None:
        if self.kind not in POINT_KINDS:
            raise ValueError(f"unknown sweep kind {self.kind!r}")
        for name in ("designs", "traffics", "seeds", "error_scales",
                     "fault_specs", "sensor_specs", "soft_error_specs"):
            if not getattr(self, name):
                raise ValueError(f"{name} cannot be empty")

    def expand(self) -> List[SweepPoint]:
        """The grid's jobs, in deterministic order."""
        points = []
        traffics = (",".join(self.traffics),) if self.kind == "suite" else self.traffics
        fault_specs = (
            self.fault_specs if self.kind in ("chaos", "sensor_chaos") else ("",)
        )
        sensor_specs = self.sensor_specs if self.kind == "sensor_chaos" else ("",)
        soft_error_specs = (
            self.soft_error_specs if self.kind == "soft_error" else ("",)
        )
        rated = ("load", "chaos", "sensor_chaos", "soft_error")
        for traffic in traffics:
            for scale in self.error_scales:
                for fault_spec in fault_specs:
                    for sensor_spec in sensor_specs:
                        for soft_error_spec in soft_error_specs:
                            for extra in self._extra_axis():
                                for seed in self.seeds:
                                    for design in self.designs:
                                        points.append(
                                            SweepPoint(
                                                kind=self.kind,
                                                design=design,
                                                traffic=traffic,
                                                seed=seed,
                                                cycles=self.cycles,
                                                error_scale=scale,
                                                rate=extra if self.kind in rated else 0.0,
                                                error_probability=(
                                                    extra
                                                    if self.kind == "mode_error"
                                                    else 0.0
                                                ),
                                                fault_spec=fault_spec,
                                                sensor_spec=sensor_spec,
                                                soft_error_spec=soft_error_spec,
                                            )
                                        )
        return points

    def _extra_axis(self) -> Tuple[float, ...]:
        if self.kind in ("load", "chaos", "sensor_chaos", "soft_error"):
            return self.rates
        if self.kind == "mode_error":
            return self.error_probabilities
        return (0.0,)

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        """JSON-able form (inverse of :meth:`from_dict`)."""
        out = dataclasses.asdict(self)
        out["config"] = dataclasses.asdict(self.config)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SweepSpec":
        """Build a spec from a plain dict (e.g. a JSON grid file)."""
        kwargs = dict(data)
        config = kwargs.pop("config", {})
        if not isinstance(config, SimulationConfig):
            config = dict(config)
            if "error_severity" in config:
                config["error_severity"] = tuple(config["error_severity"])
            config = SimulationConfig(**config)
        for name in ("designs", "traffics", "seeds", "error_scales",
                     "rates", "error_probabilities", "fault_specs",
                     "sensor_specs", "soft_error_specs"):
            if name in kwargs:
                kwargs[name] = tuple(kwargs[name])
        return cls(config=config, **kwargs)


# ----------------------------------------------------------------------
# Point evaluators (run inside worker processes — keep module-level)
# ----------------------------------------------------------------------
def _eval_trace(config: SimulationConfig, point: SweepPoint) -> Dict[str, object]:
    config = dataclasses.replace(config, error_scale=point.error_scale)
    policy = default_design_factories(point.seed)[point.design]()
    records = synthesize_benchmark_trace(point.traffic, config, point.cycles, point.seed)
    result = run_design_on_trace(
        policy, records, config, benchmark=point.traffic, seed=point.seed
    )
    return {"run": result.constructor_dict()}


def _eval_suite(config: SimulationConfig, point: SweepPoint) -> Dict[str, object]:
    """One design's row of the benchmark suite.

    The design is pre-trained once, snapshotted, and every benchmark in
    the row then runs a fresh clone of the frozen snapshot — matching
    ``run_parsec_suite`` and keeping online adaptation cell-local (the
    previous single-live-policy chain leaked learned state from each
    benchmark into the next, making results order-dependent).
    """
    config = dataclasses.replace(config, error_scale=point.error_scale)
    factory = default_design_factories(point.seed)[point.design]
    policy = factory()
    pretrain_policy(policy, config, seed=point.seed)
    snapshot = policy.to_state()
    suite = {}
    for benchmark in point.traffic.split(","):
        records = synthesize_benchmark_trace(benchmark, config, point.cycles, point.seed)
        result = run_design_on_trace(
            clone_policy(factory, snapshot), records, config,
            benchmark=benchmark, seed=point.seed, pretrained=True,
        )
        suite[benchmark] = result.constructor_dict()
    return {"suite": suite}


def _eval_campaign(config: SimulationConfig, point: SweepPoint) -> Dict[str, object]:
    """One campaign cell: a single (benchmark, design) measurement run
    from its design's warm-start snapshot (``repro.sim.campaign``).

    The snapshot is a simulator already built around a policy cloned
    from the design's pretrained, frozen artifact and run through the
    warm-up, so the cell only loads it, synthesizes its trace and
    measures.  The snapshot's container is validated (magic, version,
    body CRC) and its stored key must equal the :func:`warm_start_key`
    of this cell's config, design, seed and ``artifact_hash`` — a
    missing, torn, or mismatched snapshot is an evaluator failure, which
    the supervisor retries and then quarantines instead of measuring
    garbage.
    """
    config = dataclasses.replace(config, error_scale=point.error_scale)
    if not point.artifact_path and (
        default_design_factories(point.seed)[point.design]().trainable
    ):
        raise ValueError(
            f"campaign cell for trainable design {point.design!r} has no "
            "pretrained artifact; run it through repro.sim.campaign"
        )
    key = warm_start_key(config, point.design, point.seed, point.artifact_hash)
    if not point.warm_start_path:
        raise ValueError(
            f"campaign cell {point.label()} has no warm-start snapshot for "
            f"key {key!r}; run it through repro.sim.campaign"
        )
    sim = load_warm_start(point.warm_start_path, key)
    records = synthesize_benchmark_trace(point.traffic, config, point.cycles, point.seed)
    return {"run": sim.measure_trace(records, point.traffic).constructor_dict()}


def _eval_load(config: SimulationConfig, point: SweepPoint) -> Dict[str, object]:
    config = dataclasses.replace(config, error_scale=point.error_scale)
    policy = default_design_factories(point.seed)[point.design]()
    sim = Simulator(config, policy, seed=point.seed)
    sim.pretrain()
    sim.policy.freeze()
    source = SyntheticTraffic(
        sim.network.topology,
        pattern=point.traffic,
        injection_rate=point.rate,
        packet_size=config.packet_size,
        flit_bits=config.flit_bits,
        rng=random.Random(point.seed + 9),
    )
    sim.advance(source, point.cycles)
    try:
        sim.advance()
    except RuntimeError:
        return {
            "load": {"rate": point.rate, "latency": None,
                     "throughput": 0.0, "saturated": True},
        }
    stats = sim.network.stats
    return {
        "load": {"rate": point.rate, "latency": stats.mean_latency,
                 "throughput": stats.throughput, "saturated": False},
    }


def _eval_mode_error(config: SimulationConfig, point: SweepPoint) -> Dict[str, object]:
    mode = OperationMode(int(point.design[len("mode"):]))
    rng = random.Random(point.seed)
    net = Network(
        MeshTopology(config.width, config.height), rng=random.Random(point.seed + 1)
    )
    net.set_all_modes(mode)
    for _, model in net.channel_models():
        model.event_probability = point.error_probability
    nodes = net.topology.num_nodes
    created = 0
    while created < point.cycles or not net.quiescent:
        if created < point.cycles and net.now % 2 == 0:
            src, dst = rng.randrange(nodes), rng.randrange(nodes)
            if src != dst:
                net.inject(
                    Packet(
                        src, dst, config.packet_size, config.flit_bits, net.now,
                        payloads=[
                            rng.getrandbits(config.flit_bits)
                            for _ in range(config.packet_size)
                        ],
                    )
                )
                created += 1
        net.cycle()
        if net.now > 500_000:
            raise RuntimeError("network failed to drain")
    net.harvest_epoch_counters(1)
    stats = net.stats
    return {
        "stats": {
            "mean_latency": stats.mean_latency,
            "retransmission_events": stats.retransmission_events,
            "corrected_errors": stats.corrected_errors,
            "escaped_errors": stats.escaped_errors,
            "duplicate_flits": stats.duplicate_flits,
        },
    }


def _eval_chaos(
    config: SimulationConfig, point: SweepPoint, tracer=None
) -> Dict[str, object]:
    """Graceful-degradation run: one routing policy under a hard-fault
    campaign with open-loop uniform traffic.

    Invariant-watchdog trips do not fail the sweep — they come back as a
    structured ``diagnosis`` payload, because "this configuration
    deadlocks under this cut" *is* the measurement.

    ``tracer`` attaches an event tracer to the network (CLI
    ``chaos --trace``).  Traced runs execute in-process and bypass the
    result cache — a tracer cannot cross the worker-process boundary,
    and events are a side channel the cache key does not cover.
    """
    topology = MeshTopology(config.width, config.height)
    network = Network(
        topology,
        routing_fn=point.design,
        num_vcs=config.num_vcs,
        vc_depth=config.vc_depth,
        flit_bits=config.flit_bits,
        arq_capacity=config.arq_capacity,
        channel_latency=config.channel_latency,
        rng=random.Random(point.seed + 1),
        routing_seed=point.seed,
        watchdog_interval=config.watchdog_interval,
        deadlock_cycles=config.deadlock_cycles,
        max_packet_age=config.max_packet_age,
    )
    if tracer is not None:
        network.attach_tracer(tracer)
    model = HardFaultModel(network, HardFaultSchedule.parse(point.fault_spec))
    network.hard_faults = model
    rate = point.rate if point.rate > 0.0 else 0.1
    rng = random.Random(point.seed + 7)
    nodes = topology.num_nodes
    diagnosis = None
    message_id = 0
    try:
        for _ in range(point.cycles):
            if rng.random() < rate:
                src = rng.randrange(nodes)
                dst = rng.randrange(nodes)
                if src != dst:
                    network.inject(
                        Packet(
                            src, dst, config.packet_size, config.flit_bits,
                            network.now, message_id=message_id,
                        )
                    )
                    message_id += 1
            network.cycle()
        deadline = network.now + config.max_drain_cycles
        while not network.quiescent and network.now < deadline:
            network.cycle()
    except NoCInvariantError as exc:
        diagnosis = {
            "error": type(exc).__name__,
            "message": str(exc),
            "report": exc.report,
        }
    network.harvest_epoch_counters(0)
    stats = network.stats
    outstanding = sum(ni.outstanding_messages for ni in network.interfaces)
    return {
        "chaos": {
            "routing": point.design,
            "fault_spec": point.fault_spec,
            "applied": list(model.applied),
            "delivered_fraction": stats.delivered_fraction,
            "messages_created": stats.messages_created,
            "packets_delivered": stats.packets_delivered,
            "messages_dropped": stats.messages_dropped,
            "packets_dropped": stats.packets_dropped,
            "unreachable_drops": stats.unreachable_drops,
            "reroutes": stats.reroutes,
            "fault_recoveries": stats.fault_recoveries,
            "link_kills": stats.link_kills,
            "router_kills": stats.router_kills,
            "outstanding": outstanding,
            "pre_fault_latency": model.pre_fault_latency,
            "post_fault_latency": model.post_fault_latency,
            "diagnosis": diagnosis,
        },
    }


def _closed_loop_window(config: SimulationConfig, point: SweepPoint, tracer=None):
    """The measured window every closed-loop fault evaluator shares.

    Builds the full Simulator for ``config``, pretrains, freezes and warms
    up the point's design, then measures ``point.cycles`` of open-loop
    synthetic traffic plus a drain bounded by ``max_drain_cycles`` (a
    drain that runs out stops and leaves the rest ``outstanding``).
    Invariant-watchdog trips in the window come back as a structured
    ``diagnosis`` instead of failing the point.

    Returns ``(sim, result, outstanding, diagnosis)``.
    """
    policy = default_design_factories(point.seed)[point.design]()
    sim = Simulator(config, policy, seed=point.seed, tracer=tracer)
    sim.pretrain()
    sim.policy.freeze()
    sim.warmup()
    sim.begin_measurement()
    start = sim.network.now
    rate = point.rate if point.rate > 0.0 else 0.05
    source = SyntheticTraffic(
        sim.network.topology,
        pattern=point.traffic or "uniform",
        injection_rate=rate,
        packet_size=config.packet_size,
        flit_bits=config.flit_bits,
        rng=random.Random(point.seed + 7),
    )
    diagnosis = None
    try:
        sim.advance(source, point.cycles)
        sim.advance(strict=False)
    except NoCInvariantError as exc:
        diagnosis = {
            "error": type(exc).__name__,
            "message": str(exc),
            "report": exc.report,
        }
    result = sim.finish_measurement(point.traffic or "uniform", sim.network.now - start)
    outstanding = sum(ni.outstanding_messages for ni in sim.network.interfaces)
    return sim, result, outstanding, diagnosis


def _eval_sensor_chaos(
    config: SimulationConfig, point: SweepPoint, tracer=None
) -> Dict[str, object]:
    """Control-plane degradation run: one full closed-loop design under a
    sensor-fault campaign (and optionally a simultaneous hard-fault
    campaign via ``fault_spec``) with open-loop synthetic traffic.

    Unlike ``chaos`` (Network-only, no policy), this drives the complete
    Simulator — the sensor faults corrupt the observation path between
    ``observe_router`` and the policy, which is the thing under test.
    Invariant-watchdog trips during the measured window come back as a
    structured ``diagnosis``; with defenses disabled the corrupted
    telemetry may crash the policy, which surfaces as an evaluator
    failure (retry -> quarantine) — exactly the behavior the hardened
    path exists to prevent.
    """
    config = dataclasses.replace(
        config,
        error_scale=point.error_scale,
        fault_spec=point.fault_spec,
        sensor_spec=point.sensor_spec,
    )
    sim, result, outstanding, diagnosis = _closed_loop_window(config, point, tracer)
    guard = sim.obs_guard
    return {
        "sensor_chaos": {
            "design": point.design,
            "sensor_spec": point.sensor_spec,
            "fault_spec": point.fault_spec,
            "defenses": bool(config.sensor_defenses),
            "delivered_fraction": result.delivered_fraction,
            "messages_created": result.messages_created,
            "packets_delivered": result.packets_delivered,
            "messages_dropped": result.messages_dropped,
            "mean_latency": result.mean_latency,
            "rejected_observations": result.rejected_observations,
            "sensor_holds": result.sensor_holds,
            "sensor_clamps": result.sensor_clamps,
            "sensor_defaults": int(sim.metrics.peek("sensor.defaults")),
            "debounced_switches": int(sim.metrics.peek("sensor.debounced_switches")),
            "injected": dict(sim.sensors.injected) if sim.sensors is not None else {},
            "quarantined_routers": sorted(guard.quarantined) if guard is not None else [],
            "safe_mode_entries": result.safe_mode_entries,
            "mode_switches": result.mode_switches,
            "outstanding": outstanding,
            "diagnosis": diagnosis,
        },
    }


def _eval_soft_error(
    config: SimulationConfig, point: SweepPoint, tracer=None
) -> Dict[str, object]:
    """Learning-state degradation run: one full closed-loop design under
    an SEU campaign flipping bits in the Q-table SRAM and the mode
    registers, with open-loop synthetic traffic.

    The thing under test is the SECDED + scrub + TMR defense layer:
    with ``ecc_protect`` the scrubber repairs single-bit upsets before
    they steer routing decisions, without it the corrupted Q-values and
    mode registers drive the mesh directly.  Invariant-watchdog trips
    during the measured window come back as a structured ``diagnosis``.
    """
    config = dataclasses.replace(
        config,
        error_scale=point.error_scale,
        fault_spec=point.fault_spec,
        soft_error_spec=point.soft_error_spec,
    )
    sim, result, outstanding, diagnosis = _closed_loop_window(config, point, tracer)
    return {
        "soft_error": {
            "design": point.design,
            "soft_error_spec": point.soft_error_spec,
            "fault_spec": point.fault_spec,
            "ecc": bool(config.ecc_protect),
            "scrub_every": config.scrub_every,
            "delivered_fraction": result.delivered_fraction,
            "messages_created": result.messages_created,
            "packets_delivered": result.packets_delivered,
            "messages_dropped": result.messages_dropped,
            "mean_latency": result.mean_latency,
            "injected": (
                dict(sim.soft_errors.injected) if sim.soft_errors is not None else {}
            ),
            "scrubs": int(sim.metrics.peek("ecc.scrubs")),
            "corrected": int(sim.metrics.peek("ecc.corrected")),
            "detected": int(sim.metrics.peek("ecc.detected")),
            "quarantined_rows": int(sim.metrics.peek("ecc.quarantined_rows")),
            "mode_votes": int(sim.metrics.peek("ecc.mode_votes")),
            "words_single": int(sim.metrics.peek("softerror.words_single")),
            "words_multi": int(sim.metrics.peek("softerror.words_multi")),
            "max_abs_q": max(
                (
                    abs(value)
                    for storage in sim.policy.q_storages()
                    for row in storage.agent._table.values()
                    for value in row
                ),
                default=0.0,
            ),
            "safe_mode_entries": result.safe_mode_entries,
            "mode_switches": result.mode_switches,
            "outstanding": outstanding,
            "diagnosis": diagnosis,
        },
    }


_EVALUATORS = {
    "trace": _eval_trace,
    "load": _eval_load,
    "suite": _eval_suite,
    "mode_error": _eval_mode_error,
    "chaos": _eval_chaos,
    "sensor_chaos": _eval_sensor_chaos,
    "soft_error": _eval_soft_error,
    "campaign": _eval_campaign,
}


def run_sweep_point(config: SimulationConfig, point: SweepPoint) -> Dict[str, object]:
    """Evaluate one point; the single code path for serial AND pooled runs."""
    started = time.perf_counter()
    payload = _EVALUATORS[point.kind](config, point)
    payload["elapsed"] = time.perf_counter() - started
    return payload


def _supervised_worker(conn, fn: Callable[..., object], args: Tuple) -> None:
    """Worker entry point: run one task, report through the pipe.

    Sends ``("ok", fn(*args))`` or ``("error", reason)``; a worker that
    dies before sending anything (OOM kill, segfault, SIGKILL) leaves
    the pipe at EOF, which the supervisor detects as a hard death.
    """
    try:
        payload = fn(*args)
    except BaseException as exc:  # noqa: BLE001 - must never leak upward
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:  # pragma: no cover - supervisor gone
            pass
        finally:
            conn.close()
        return
    try:
        conn.send(("ok", payload))
    finally:
        conn.close()


@dataclass(frozen=True)
class Prerequisite:
    """Work that some points need finished before they may launch.

    A campaign's warm start is the use case: ``fn(*args)`` writes the
    files (pretrained artifact, warm-start snapshot) that the points at
    ``dependents`` (indices into the spec's expansion) load.  It runs under the same supervision as a
    point — in a worker, retried after an exception or a worker death,
    then quarantined — but it is exempt from ``point_timeout`` and never
    cached, because its product is a file, not a payload.  A quarantined
    prerequisite quarantines its pending dependents without launching
    them.  Prerequisites launch before any point, and
    :class:`SweepProgress` and :class:`SweepReport` count points only.
    """

    label: str
    fn: Callable[..., object]
    args: Tuple
    dependents: Tuple[int, ...] = ()


class _PendingTask:
    """Supervisor bookkeeping for one not-yet-completed point or
    prerequisite (``point`` is None for a prerequisite)."""

    __slots__ = ("index", "key", "point", "prerequisite", "needs",
                 "attempts", "not_before")

    def __init__(
        self,
        index: int,
        key: str,
        point: Optional[SweepPoint] = None,
        prerequisite: Optional[Prerequisite] = None,
    ) -> None:
        #: result slot of a point; position of a prerequisite
        self.index = index
        #: cache key of a point; label of a prerequisite (seeds backoff)
        self.key = key
        self.point = point
        self.prerequisite = prerequisite
        #: unfinished prerequisite task this point waits for (or None)
        self.needs: Optional["_PendingTask"] = None
        self.attempts = 0
        #: monotonic time before which the task must not relaunch (backoff)
        self.not_before = 0.0

    @property
    def label(self) -> str:
        return self.point.label() if self.point else self.prerequisite.label

    @property
    def kind(self) -> str:
        return "point" if self.point else "prerequisite"

    @property
    def order(self) -> Tuple[bool, int]:
        """Launch order: prerequisites first, then points in grid order."""
        return (self.point is not None, self.index)


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------
def point_cache_key(config: SimulationConfig, point: SweepPoint) -> str:
    """Stable content hash of everything a point's result depends on.

    ``artifact_path`` and ``warm_start_path`` are excluded: where an
    artifact or a warm-start snapshot lives is an execution detail,
    while WHAT it contains is covered by ``artifact_hash`` and the other
    fields — so a relocated artifact directory replays from cache and a
    retrained artifact (new hash) re-simulates.
    """
    point_dict = dataclasses.asdict(point)
    point_dict.pop("artifact_path", None)
    point_dict.pop("warm_start_path", None)
    fingerprint = {
        "schema": CACHE_SCHEMA,
        "config": dataclasses.asdict(config),
        "point": point_dict,
    }
    blob = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


def _payload_crc(payload: Dict[str, object]) -> int:
    """CRC32 over the canonical (sorted, compact) payload JSON.

    Computed on the dumps->loads round trip so the checksum stored at
    write time matches what a reader recomputes from the parsed entry
    (tuples become lists, keys become strings) — the two serializations
    are then byte-identical.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    normalized = json.dumps(
        json.loads(canonical), sort_keys=True, separators=(",", ":")
    )
    return zlib.crc32(normalized.encode("utf-8")) & 0xFFFFFFFF


class SweepCache:
    """One JSON file per completed point under ``root``.

    Files are written atomically (uniquely-named temp + rename) so an
    interrupted sweep never leaves a truncated entry and two workers
    finishing the same key never trample each other's temp file; on
    resume, valid entries replay and only the missing points execute.

    :meth:`load` is a *validating* miss-on-anything-suspect reader: a
    truncated file, a non-JSON file, a wrong schema, a malformed entry
    shape, or a checksum mismatch all return None (cache miss) — the
    cache never raises and never replays a corrupt payload.
    """

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)

    def path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def load(self, key: str) -> Optional[Dict[str, object]]:
        path = self.path(key)
        try:
            with path.open() as handle:
                entry = json.load(handle)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return None
        if not isinstance(entry, dict) or entry.get("schema") != CACHE_SCHEMA:
            return None
        payload = entry.get("payload")
        if not isinstance(payload, dict):
            return None
        try:
            if _payload_crc(payload) != entry.get("crc32"):
                return None
        except (TypeError, ValueError):
            return None
        return payload

    def store(self, key: str, point: SweepPoint, payload: Dict[str, object]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        entry = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "point": dataclasses.asdict(point),
            "crc32": _payload_crc(payload),
            "payload": payload,
        }
        # The temp name must be unique per writer: concurrent workers (or
        # two sweeps sharing a cache dir) finishing the same key would
        # otherwise write through the same ".tmp" path and race the
        # rename, publishing an interleaved file.
        tmp = self.root / f"{key}.{os.getpid()}.{uuid.uuid4().hex}.tmp"
        try:
            with tmp.open("w") as handle:
                json.dump(entry, handle, indent=2)
            os.replace(tmp, self.path(key))
        finally:
            if tmp.exists():  # pragma: no cover - only on a failed write
                tmp.unlink()


# ----------------------------------------------------------------------
# Results and progress
# ----------------------------------------------------------------------
@dataclass
class PointResult:
    """One point's outcome, decoded back into rich objects."""

    point: SweepPoint
    cached: bool
    elapsed: float
    run: Optional[RunResult] = None
    suite: Optional[Dict[str, RunResult]] = None
    load: Optional[Dict[str, float]] = None
    mode_stats: Optional[Dict[str, float]] = None
    chaos: Optional[Dict[str, object]] = None
    sensor: Optional[Dict[str, object]] = None
    soft_error: Optional[Dict[str, object]] = None


def _payload_to_result(
    point: SweepPoint, payload: Dict[str, object], cached: bool
) -> PointResult:
    result = PointResult(
        point=point, cached=cached, elapsed=float(payload.get("elapsed", 0.0))
    )
    if payload.get("run") is not None:
        result.run = RunResult.from_dict(payload["run"])
    if payload.get("suite") is not None:
        result.suite = {
            bench: RunResult.from_dict(data)
            for bench, data in payload["suite"].items()
        }
    if payload.get("load") is not None:
        load = dict(payload["load"])
        if load.get("saturated"):
            load["latency"] = float("inf")
        result.load = load
    if payload.get("stats") is not None:
        result.mode_stats = dict(payload["stats"])
    if payload.get("chaos") is not None:
        result.chaos = dict(payload["chaos"])
    if payload.get("sensor_chaos") is not None:
        result.sensor = dict(payload["sensor_chaos"])
    if payload.get("soft_error") is not None:
        result.soft_error = dict(payload["soft_error"])
    return result


@dataclass
class SweepProgress:
    """Structured progress snapshot handed to the reporter callback."""

    total: int
    done: int = 0
    cached: int = 0
    running: int = 0
    retried: int = 0
    quarantined: int = 0
    executed_seconds: List[float] = field(default_factory=list)
    jobs: int = 1
    current: Optional[str] = None

    @property
    def pending(self) -> int:
        return self.total - self.done

    def eta_seconds(self) -> Optional[float]:
        """Wall-clock estimate for the remaining points, or None before
        the first executed point lands."""
        if not self.executed_seconds or not self.pending:
            return None
        mean = sum(self.executed_seconds) / len(self.executed_seconds)
        return mean * self.pending / max(1, self.jobs)


def stderr_progress(progress: SweepProgress) -> None:
    """Default human-readable reporter: one status line per event."""
    eta = progress.eta_seconds()
    eta_text = f", eta ~{eta:.0f}s" if eta is not None else ""
    trouble = ""
    if progress.retried or progress.quarantined:
        trouble = (
            f", {progress.retried} retried, "
            f"{progress.quarantined} quarantined"
        )
    tail = f" [{progress.current}]" if progress.current else ""
    print(
        f"[sweep] {progress.done}/{progress.total} done "
        f"({progress.cached} cached, {progress.running} running"
        f"{trouble}{eta_text}){tail}",
        file=sys.stderr,
    )


@dataclass
class SweepReport:
    """Structured outcome of one :meth:`SweepRunner.run` invocation.

    ``quarantined`` lists the labels of points that kept failing after
    every retry (their result slots are None); ``retries`` counts retry
    *attempts* across all points, ``timeouts`` and ``worker_deaths``
    break down why workers were replaced.
    """

    total: int = 0
    completed: int = 0
    from_cache: int = 0
    executed: int = 0
    retries: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    quarantined: List[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def succeeded(self) -> bool:
        """True when every point produced a result."""
        return not self.quarantined

    def as_dict(self) -> Dict[str, object]:
        return {
            "total": self.total,
            "completed": self.completed,
            "from_cache": self.from_cache,
            "executed": self.executed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_deaths": self.worker_deaths,
            "quarantined": len(self.quarantined),
            "elapsed_seconds": self.elapsed_seconds,
        }


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
class SweepRunner:
    """Expand a spec, replay cached points, supervise the rest.

    ``jobs=1`` runs pending points serially in-process through the exact
    same evaluator the workers use, so results are bit-identical across
    job counts.  ``use_cache=False`` disables both lookup and storage;
    ``refresh=True`` skips lookup but stores fresh results.  After
    :meth:`run`, ``executed`` counts simulations actually performed
    (i.e. cache misses) and :attr:`report` holds the structured
    :class:`SweepReport`.

    Supervision knobs:

    ``point_timeout``
        Wall-clock seconds one point may run before its worker is killed
        and the point retried (None = no limit).  Only enforced on the
        parallel path — a serial run cannot preempt itself.
    ``max_retries``
        How many times a failing point (evaluator exception, timeout, or
        hard worker death) is relaunched before being *quarantined*: its
        result slot stays None and the sweep carries on, so one poison
        point cannot take down a thousand-point grid.
    ``retry_base_delay`` / ``retry_jitter``
        Exponential backoff between attempts:
        ``base * 2**(attempt-1) * (1 + jitter * u)`` with ``u`` drawn
        from a :class:`random.Random` seeded by (cache key, attempt) —
        deterministic per point, decorrelated across points.

    ``prerequisites`` (:class:`Prerequisite`) join the same pass: they
    launch first, their dependent points wait for them, and the other
    points fill the free slots meanwhile.  After :meth:`run`,
    :attr:`prerequisite_results` holds each one's return value (None if
    it was quarantined).
    """

    def __init__(
        self,
        spec: SweepSpec,
        jobs: int = 1,
        cache_dir: Union[str, Path] = DEFAULT_CACHE_DIR,
        use_cache: bool = True,
        refresh: bool = False,
        progress: Optional[Callable[[SweepProgress], None]] = None,
        point_timeout: Optional[float] = None,
        max_retries: int = 2,
        retry_base_delay: float = 0.5,
        retry_jitter: float = 0.5,
        registry=None,
        prerequisites: Sequence[Prerequisite] = (),
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if point_timeout is not None and point_timeout <= 0:
            raise ValueError("point_timeout must be positive (or None)")
        if max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        if retry_base_delay < 0 or retry_jitter < 0:
            raise ValueError("backoff parameters cannot be negative")
        self.spec = spec
        self.jobs = jobs
        self.cache = SweepCache(cache_dir) if use_cache else None
        self.refresh = refresh
        self.progress = progress
        self.point_timeout = point_timeout
        self.max_retries = max_retries
        self.retry_base_delay = retry_base_delay
        self.retry_jitter = retry_jitter
        self.executed = 0
        self.report: Optional[SweepReport] = None
        self.prerequisites = tuple(prerequisites)
        self.prerequisite_results: List[object] = []
        #: optional repro.obs MetricRegistry that absorbs the final
        #: SweepReport counts as ``sweep.*`` gauges after each run
        self.registry = registry

    # ------------------------------------------------------------------
    def run(self) -> List[Optional[PointResult]]:
        """Execute the grid; results are in spec expansion order.

        A quarantined point's slot is None — the merge helpers skip
        None, and :attr:`report` names every quarantined point.
        """
        started = time.monotonic()
        points = self.spec.expand()
        results: List[Optional[PointResult]] = [None] * len(points)
        state = SweepProgress(total=len(points), jobs=self.jobs)
        report = SweepReport(total=len(points))
        self.executed = 0
        self.report = report
        self.prerequisite_results = [None] * len(self.prerequisites)

        waiting = [
            _PendingTask(index, prerequisite.label, prerequisite=prerequisite)
            for index, prerequisite in enumerate(self.prerequisites)
        ]
        needs = {
            dependent: task
            for task in waiting
            for dependent in task.prerequisite.dependents
        }
        for index, point in enumerate(points):
            key = point_cache_key(self.spec.config, point)
            payload = (
                self.cache.load(key) if self.cache and not self.refresh else None
            )
            if payload is not None:
                results[index] = _payload_to_result(point, payload, cached=True)
                state.cached += 1
                state.done += 1
                report.from_cache += 1
                report.completed += 1
            else:
                task = _PendingTask(index, key, point=point)
                task.needs = needs.get(index)
                waiting.append(task)
        self._report(state)

        if waiting:
            if self.jobs == 1:
                self._run_serial(waiting, results, state, report)
            else:
                self._run_supervised(waiting, results, state, report)
        report.elapsed_seconds = time.monotonic() - started
        if self.registry is not None:
            self.registry.ingest("sweep", report.as_dict())
        return results

    # ------------------------------------------------------------------
    def _backoff_delay(self, key: str, attempt: int) -> float:
        """Seeded exponential backoff with jitter for retry ``attempt``."""
        rng = random.Random(zlib.crc32(key.encode("utf-8")) + attempt)
        return (
            self.retry_base_delay
            * (2.0 ** (attempt - 1))
            * (1.0 + self.retry_jitter * rng.random())
        )

    def _call(self, task: _PendingTask) -> Tuple[Callable[..., object], Tuple]:
        """What runs a task: the point evaluator, or the prerequisite's
        function (looked up at launch, so a patched evaluator is used)."""
        if task.point is None:
            return task.prerequisite.fn, task.prerequisite.args
        return run_sweep_point, (self.spec.config, task.point)

    def _run_serial(self, waiting, results, state, report) -> None:
        """In process, one task at a time in launch order (prerequisites
        first), each retried in place until it lands or is quarantined."""
        waiting.sort(key=lambda t: t.order)
        while waiting:
            task = waiting.pop(0)
            state.running = 1
            state.current = task.label
            self._report(state)
            payload = None
            reason = ""
            while payload is None:
                fn, args = self._call(task)
                try:
                    payload = fn(*args)
                except Exception as exc:  # noqa: BLE001 - quarantine, not crash
                    reason = f"{type(exc).__name__}: {exc}"
                    delay = self._retry_delay(task, reason, report, state)
                    if delay is None:
                        break
                    if delay > 0:
                        time.sleep(delay)
            state.running = 0
            if payload is None:
                self._quarantine(task, reason, waiting, report, state)
            else:
                self._finish(task, payload, waiting, results, state, report)

    # ------------------------------------------------------------------
    def _run_supervised(self, waiting, results, state, report) -> None:
        """Per-task worker processes under timeout/retry supervision."""
        ctx = multiprocessing.get_context()
        active: Dict[object, List] = {}  # conn -> [task, process, deadline]
        try:
            while waiting or active:
                now = time.monotonic()
                launched = False
                while len(active) < self.jobs:
                    ready = [
                        t for t in waiting if t.needs is None and t.not_before <= now
                    ]
                    if not ready:
                        break
                    task = min(ready, key=lambda t: t.order)
                    waiting.remove(task)
                    parent, child = ctx.Pipe(duplex=False)
                    process = ctx.Process(
                        target=_supervised_worker,
                        args=(child, *self._call(task)),
                        daemon=True,
                    )
                    process.start()
                    child.close()
                    deadline = (
                        now + self.point_timeout
                        if self.point_timeout is not None and task.point is not None
                        else None
                    )
                    active[parent] = [task, process, deadline]
                    launched = True
                state.running = len(active)
                if launched:
                    self._report(state)

                if not active:
                    # Every remaining task is backing off (or waits for a
                    # prerequisite that is); sleep until one can launch.
                    wake = min(t.not_before for t in waiting if t.needs is None)
                    time.sleep(max(0.0, wake - time.monotonic()))
                    continue

                ready_conns = connection.wait(
                    list(active), timeout=self._wait_timeout(active, waiting)
                )
                for conn in ready_conns:
                    task, process, _deadline = active.pop(conn)
                    outcome, value = self._collect(conn, process)
                    state.running = len(active)
                    if outcome == "ok":
                        self._finish(task, value, waiting, results, state, report)
                    else:
                        if outcome == "death" and task.point is not None:
                            report.worker_deaths += 1
                        self._handle_failure(task, value, waiting, report, state)

                now = time.monotonic()
                for conn in list(active):
                    task, process, deadline = active[conn]
                    if deadline is not None and now >= deadline:
                        del active[conn]
                        self._kill(process)
                        conn.close()
                        report.timeouts += 1
                        state.running = len(active)
                        self._handle_failure(
                            task,
                            f"timed out after {self.point_timeout:g}s",
                            waiting, report, state,
                        )
        finally:
            for conn, (task, process, _deadline) in active.items():
                self._kill(process)
                conn.close()

    def _wait_timeout(self, active, waiting) -> Optional[float]:
        """How long :func:`connection.wait` may block: until the nearest
        worker deadline, or the nearest backoff expiry if a slot is free
        (a dead worker needs no timeout — its pipe hits EOF)."""
        now = time.monotonic()
        candidates = [
            deadline - now
            for _task, _process, deadline in active.values()
            if deadline is not None
        ]
        launchable = [t.not_before for t in waiting if t.needs is None]
        if len(active) < self.jobs and launchable:
            candidates.append(min(launchable) - now)
        if not candidates:
            return None
        return max(0.0, min(candidates))

    def _collect(self, conn, process):
        """Drain one finished worker; classify its outcome."""
        try:
            message = conn.recv()
        except (EOFError, OSError):
            message = None
        finally:
            conn.close()
        process.join(timeout=5.0)
        if process.is_alive():  # pragma: no cover - stuck after sending
            self._kill(process)
        if message is None:
            return "death", f"worker died (exitcode {process.exitcode})"
        status, value = message
        if status == "ok":
            return "ok", value
        return "error", value

    @staticmethod
    def _kill(process) -> None:
        if not process.is_alive():
            process.join(timeout=1.0)
            return
        process.terminate()
        process.join(timeout=2.0)
        if process.is_alive():  # pragma: no cover - terminate ignored
            process.kill()
            process.join(timeout=2.0)

    def _retry_delay(self, task, reason, report, state) -> Optional[float]:
        """Count a failed attempt; the backoff before the next one, or
        None once the task has used up its retries."""
        task.attempts += 1
        if task.attempts > self.max_retries:
            return None
        if task.point is not None:
            report.retries += 1
            state.retried += 1
        delay = self._backoff_delay(task.key, task.attempts)
        logger.warning(
            "%s %s failed (%s); retry %d/%d in %.2fs",
            task.kind, task.label, reason, task.attempts, self.max_retries, delay,
        )
        return delay

    def _handle_failure(self, task, reason, waiting, report, state) -> None:
        delay = self._retry_delay(task, reason, report, state)
        if delay is None:
            self._quarantine(task, reason, waiting, report, state)
            return
        task.not_before = time.monotonic() + delay
        waiting.append(task)
        self._report(state)

    def _quarantine(self, task, reason, waiting, report, state) -> None:
        label = task.label
        logger.error(
            "%s %s quarantined after %d attempt(s): %s",
            task.kind, label, task.attempts, reason,
        )
        if task.point is None:
            for dependent in [t for t in waiting if t.needs is task]:
                waiting.remove(dependent)
                self._quarantine(
                    dependent, f"prerequisite {label} quarantined",
                    waiting, report, state,
                )
            return
        report.quarantined.append(label)
        state.quarantined += 1
        state.done += 1
        state.current = label
        self._report(state)

    # ------------------------------------------------------------------
    def _finish(self, task, payload, waiting, results, state, report) -> None:
        state.current = task.label
        if task.point is None:
            self.prerequisite_results[task.index] = payload
            for dependent in waiting:
                if dependent.needs is task:
                    dependent.needs = None
            self._report(state)
            return
        if self.cache:
            # Flush incrementally: a kill between points loses nothing.
            self.cache.store(task.key, task.point, payload)
        self.executed += 1
        report.executed += 1
        report.completed += 1
        state.executed_seconds.append(float(payload.get("elapsed", 0.0)))
        results[task.index] = _payload_to_result(task.point, payload, cached=False)
        state.done += 1
        self._report(state)

    def _report(self, state: SweepProgress) -> None:
        if self.progress is not None:
            self.progress(state)


# ----------------------------------------------------------------------
# Merging back into experiment.py shapes
# ----------------------------------------------------------------------
def merge_trace_grid(
    results: Sequence[PointResult],
) -> Dict[Tuple[str, float, int], Dict[str, RunResult]]:
    """Group trace-point results into (traffic, error_scale, seed) cells,
    each holding the per-design :class:`RunResult` map that
    ``experiment.compare_designs`` returns."""
    grid: Dict[Tuple[str, float, int], Dict[str, RunResult]] = {}
    for result in results:
        if result is None or result.run is None:
            continue
        cell = (result.point.traffic, result.point.error_scale, result.point.seed)
        grid.setdefault(cell, {})[result.point.design] = result.run
    return grid


def merge_suite(results: Sequence[PointResult]) -> Dict[str, Dict[str, RunResult]]:
    """Merge suite-point results into ``run_parsec_suite``'s
    {benchmark: {design: RunResult}} shape."""
    suite: Dict[str, Dict[str, RunResult]] = {}
    for result in results:
        if result is None or result.suite is None:
            continue
        for benchmark, run in result.suite.items():
            suite.setdefault(benchmark, {})[result.point.design] = run
    return suite


def normalized_tables(
    grid: Dict[Tuple[str, float, int], Dict[str, RunResult]],
    metrics: Dict[str, Callable[[RunResult], float]],
    baseline: str = "crc",
) -> Dict[Tuple[str, float, int], Dict[str, Dict[str, float]]]:
    """Per-cell normalized-to-baseline tables, via the same
    ``normalize_to_baseline`` the figures use."""
    return {
        cell: {
            name: normalize_to_baseline(designs, metric, baseline=baseline)
            for name, metric in metrics.items()
        }
        for cell, designs in grid.items()
    }
