"""PARSEC-like application traces, synthesized statistically.

**Substitution notice (see DESIGN.md §4).**  The paper replays real
PARSEC traces captured from a full-system simulation; those files are not
redistributable and not reproducible without the authors' gem5/Booksim
setup.  We instead *synthesize* traces whose first- and second-order
statistics match published NoC characterizations of the PARSEC suite:

* per-benchmark mean injection rate (communication intensity);
* burstiness, modelled as a per-node on/off Markov-modulated process
  (bursty benchmarks like x264 and canneal spend short periods at a
  multiple of their mean rate);
* spatial locality, modelled as a mixture of uniform, near-neighbour,
  and hotspot (shared-data / memory-controller) components.

The fault-tolerant control policies only observe aggregate per-router
load, NACK rates and temperature, so matching these statistics exercises
the same state space and trade-offs as the original traces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.noc.topology import MeshTopology
from repro.traffic.trace import TraceRecord

__all__ = ["BenchmarkProfile", "PARSEC_PROFILES", "ParsecTraceSynthesizer"]


@dataclass(frozen=True)
class BenchmarkProfile:
    """Statistical fingerprint of one application's NoC traffic.

    Attributes
    ----------
    name:
        Benchmark name.
    injection_rate:
        Mean packets per node per cycle in the *off* (baseline) state.
    burst_factor:
        Rate multiplier while a node is bursting.
    burst_on_probability:
        Per-cycle probability an idle node enters a burst.
    burst_off_probability:
        Per-cycle probability a bursting node returns to baseline.
    locality:
        Mixture weights ``(uniform, neighbour, hotspot)``; must sum to 1.
    packet_size:
        Flits per packet (Table II: 4).
    """

    name: str
    injection_rate: float
    burst_factor: float = 1.0
    burst_on_probability: float = 0.0
    burst_off_probability: float = 1.0
    locality: Sequence[float] = (1.0, 0.0, 0.0)
    packet_size: int = 4

    def __post_init__(self) -> None:
        if not 0.0 <= self.injection_rate <= 1.0:
            raise ValueError("injection rate must be in [0, 1]")
        if self.burst_factor < 1.0:
            raise ValueError("burst factor cannot shrink the rate")
        if abs(sum(self.locality) - 1.0) > 1e-9 or any(w < 0 for w in self.locality):
            raise ValueError("locality must be a 3-way probability mixture")
        if self.packet_size <= 0:
            raise ValueError("packet size must be positive")

    @property
    def mean_rate(self) -> float:
        """Long-run packets/node/cycle including bursts."""
        p_on = self.burst_on_probability
        p_off = self.burst_off_probability
        if p_on == 0.0:
            duty = 0.0
        else:
            duty = p_on / (p_on + p_off)
        return self.injection_rate * (1.0 + duty * (self.burst_factor - 1.0))


#: Traffic fingerprints of the ten PARSEC benchmarks the paper plots.
#: Intensities are ordered per published characterizations (blackscholes
#: and swaptions lightest; canneal and streamcluster heaviest; x264 and
#: fluidanimate notably bursty) and scaled so the heaviest benchmarks
#: approach the paper's observed 0.3 flits/cycle peak link utilization.
PARSEC_PROFILES: Dict[str, BenchmarkProfile] = {
    "blackscholes": BenchmarkProfile(
        "blackscholes", 0.005, locality=(0.70, 0.20, 0.10)
    ),
    "bodytrack": BenchmarkProfile(
        "bodytrack", 0.012, 2.0, 0.004, 0.08, locality=(0.60, 0.25, 0.15)
    ),
    "canneal": BenchmarkProfile(
        "canneal", 0.024, 2.5, 0.008, 0.06, locality=(0.80, 0.05, 0.15)
    ),
    "dedup": BenchmarkProfile(
        "dedup", 0.018, 2.0, 0.006, 0.10, locality=(0.55, 0.25, 0.20)
    ),
    "ferret": BenchmarkProfile(
        "ferret", 0.014, 1.8, 0.005, 0.10, locality=(0.60, 0.20, 0.20)
    ),
    "fluidanimate": BenchmarkProfile(
        "fluidanimate", 0.008, 3.0, 0.003, 0.05, locality=(0.40, 0.45, 0.15)
    ),
    "streamcluster": BenchmarkProfile(
        "streamcluster", 0.022, 1.5, 0.010, 0.10, locality=(0.65, 0.15, 0.20)
    ),
    "swaptions": BenchmarkProfile(
        "swaptions", 0.006, locality=(0.75, 0.15, 0.10)
    ),
    "vips": BenchmarkProfile(
        "vips", 0.015, 2.0, 0.005, 0.09, locality=(0.60, 0.20, 0.20)
    ),
    "x264": BenchmarkProfile(
        "x264", 0.016, 3.5, 0.006, 0.04, locality=(0.55, 0.20, 0.25)
    ),
}


class ParsecTraceSynthesizer:
    """Generates trace records matching a benchmark profile."""

    def __init__(
        self,
        profile: BenchmarkProfile,
        topology: MeshTopology,
        rng: Optional[random.Random] = None,
        hotspot_nodes: Optional[Sequence[int]] = None,
    ) -> None:
        self.profile = profile
        self.topology = topology
        self.rng = rng if rng is not None else random.Random(0)
        if hotspot_nodes is None:
            # Default shared-data hotspots: the four centre tiles, the
            # usual placement of shared cache banks / directory nodes.
            cx, cy = topology.width // 2, topology.height // 2
            hotspot_nodes = [
                topology.node_id(cx - 1, cy - 1),
                topology.node_id(cx, cy - 1),
                topology.node_id(cx - 1, cy),
                topology.node_id(cx, cy),
            ]
        self.hotspot_nodes = list(hotspot_nodes)
        self._bursting = [False] * topology.num_nodes

    # ------------------------------------------------------------------
    def synthesize(self, cycles: int) -> List[TraceRecord]:
        """Generate a full trace spanning ``cycles`` injection cycles.

        Per node and cycle: one draw advances the on/off burst state, one
        decides injection, and an injecting node draws its destination
        from the locality mixture (uniform, a mesh neighbour, or a
        hotspot other than itself, falling back to uniform).  Everything
        loop-invariant is hoisted, but the draws are made in exactly this
        order, so a seed always yields the same trace.
        """
        if cycles <= 0:
            raise ValueError("trace must span at least one cycle")
        p = self.profile
        topo = self.topology
        num_nodes = topo.num_nodes
        w_uniform, w_neighbour, _w_hotspot = p.locality
        w_near = w_uniform + w_neighbour
        p_on = p.burst_on_probability
        p_off = p.burst_off_probability
        base_rate = min(1.0, p.injection_rate)
        burst_rate = min(1.0, p.injection_rate * p.burst_factor)
        size = p.packet_size
        neighbours = []
        for node in range(num_nodes):
            x, y = topo.coordinates(node)
            options = []
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nx, ny = x + dx, y + dy
                if 0 <= nx < topo.width and 0 <= ny < topo.height:
                    options.append(topo.node_id(nx, ny))
            neighbours.append(options)
        hotspots = [[h for h in self.hotspot_nodes if h != node] for node in range(num_nodes)]
        bursting = self._bursting
        rng = self.rng
        random_ = rng.random
        randrange = rng.randrange
        choice = rng.choice
        nodes = range(num_nodes)
        records = []
        append = records.append
        for cycle in range(cycles):
            for node in nodes:
                if bursting[node]:
                    if random_() < p_off:
                        bursting[node] = False
                elif random_() < p_on:
                    bursting[node] = True
                if random_() >= (burst_rate if bursting[node] else base_rate):
                    continue
                roll = random_()
                if w_uniform <= roll < w_near:
                    dest = choice(neighbours[node])
                elif roll >= w_near and hotspots[node]:
                    dest = choice(hotspots[node])
                else:  # uniform over the other nodes
                    dest = randrange(num_nodes - 1)
                    if dest >= node:
                        dest += 1
                append(TraceRecord(cycle, node, dest, size))
        return records
