"""The network: routers, channels, NIs, and the cycle loop.

:class:`Network` wires a :class:`~repro.noc.topology.MeshTopology` into
routers and channels, owns the per-cycle event ordering, and aggregates
statistics.  It is deliberately policy-free: operation modes are set from
outside (by a controller through :meth:`set_mode`), and channel error
probabilities are refreshed from outside (by the fault substrate through
:meth:`channel_models`).  The full closed loop — traffic, faults,
thermal, power, control — is assembled in :mod:`repro.sim.simulator`.

Cycle ordering (one call to :meth:`cycle`):

1. sideband delivery — credits, then ACK/NACKs, reach the senders;
2. data delivery — in-flight flits reach receivers (error injection,
   ECC decode classification, ARQ accept/drop happen here);
3. NI ejection processing — tail flits complete packets, CRC checks run;
4. NI injection — one flit per NI into the local port;
5. router pipelines step (retransmission drain, SA/ST, VA, RC).

This ordering guarantees a flit advances at most one pipeline stage per
cycle while letting sideband responses generated in step 2 be consumed at
the earliest one cycle later.
"""

from __future__ import annotations

import os
import random
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.coding.crc import CRC
from repro.core.modes import OperationMode
from repro.noc.channel import Channel, ChannelErrorModel
from repro.noc.faultstate import FaultState
from repro.noc.interface import SIDEBAND_BASE_LATENCY, NetworkInterface
from repro.noc.packet import Packet
from repro.noc.router import OutputLink, Router
from repro.noc.routing import RoutingFunction, resolve_routing_policy, xy_route
from repro.noc.stats import NetworkStats
from repro.noc.topology import OPPOSITE_PORT, MeshTopology, Port
from repro.noc.watchdog import NetworkWatchdog, UnreachableDestinationError

__all__ = ["Network", "resolve_kernel"]

#: Directed links a router terminates (LOCAL has no channel).
_LINK_PORTS = (Port.EAST, Port.WEST, Port.NORTH, Port.SOUTH)

#: Environment switch selecting the reference full-scan kernel.
NAIVE_KERNEL_ENV = "REPRO_NAIVE_KERNEL"


def resolve_kernel(kernel: Optional[str]) -> str:
    """Resolve a cycle-kernel name, honouring ``REPRO_NAIVE_KERNEL``.

    ``None`` defers to the environment (any value other than empty/``0``
    selects the naive reference kernel); explicit names win over it.
    The choice is deliberately *not* part of ``SimulationConfig`` — both
    kernels are bit-identical, so cache keys must not depend on it.
    """
    if kernel is None:
        flag = os.environ.get(NAIVE_KERNEL_ENV, "").strip()
        return "naive" if flag not in ("", "0") else "fast"
    if kernel not in ("fast", "naive"):
        raise ValueError(f"unknown cycle kernel {kernel!r} (expected 'fast' or 'naive')")
    return kernel


class _ActivityState:
    """Active-entity registries driving the O(active) cycle kernel.

    Channels, routers, and NIs register themselves (by creation index /
    id) when an event gives them work; the kernel deregisters them
    lazily once their work is gone.  Registration is therefore always a
    *superset* of the truly-active entities, which makes the sets safe
    across kernel switches and checkpoint resume — a stale registration
    costs one no-op visit, never a missed event.

    The ``*_visits`` counters record how many entity-steps each phase
    actually executed (the naive kernel counts its full sweeps), and
    ``fast_forwarded`` counts cycles skipped wholesale by
    :meth:`Network.run`'s idle early-out; ``repro run --profile``
    surfaces both.
    """

    __slots__ = (
        "channels",
        "routers",
        "ni_eject",
        "ni_inject",
        "channel_visits",
        "router_visits",
        "ni_eject_visits",
        "ni_inject_visits",
        "fast_forwarded",
    )

    def __init__(self) -> None:
        self.channels: Set[int] = set()
        self.routers: Set[int] = set()
        self.ni_eject: Set[int] = set()
        self.ni_inject: Set[int] = set()
        self.channel_visits = 0
        self.router_visits = 0
        self.ni_eject_visits = 0
        self.ni_inject_visits = 0
        self.fast_forwarded = 0

    @property
    def any_active(self) -> bool:
        return bool(self.channels or self.routers or self.ni_eject or self.ni_inject)

    def counters(self) -> Dict[str, int]:
        """Per-stage activity counters for the profiling report."""
        return {
            "channel_visits": self.channel_visits,
            "router_visits": self.router_visits,
            "ni_eject_visits": self.ni_eject_visits,
            "ni_inject_visits": self.ni_inject_visits,
            "fast_forwarded_cycles": self.fast_forwarded,
        }

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state) -> None:
        for name in self.__slots__:
            setattr(self, name, state[name])


class Network:
    """A complete mesh NoC instance."""

    def __init__(
        self,
        topology: MeshTopology,
        routing_fn: RoutingFunction = xy_route,
        num_vcs: int = 4,
        vc_depth: int = 4,
        flit_bits: int = 128,
        arq_capacity: int = 8,
        channel_latency: int = 1,
        crc: Optional[CRC] = None,
        rng: Optional[random.Random] = None,
        error_severity: Tuple[float, float, float] = (0.33, 0.47, 0.20),
        relax_factor: float = 1e-4,
        routing_seed: int = 0,
        watchdog_interval: int = 256,
        deadlock_cycles: int = 4096,
        max_packet_age: int = 500_000,
        unreachable_action: str = "drop",
        kernel: Optional[str] = None,
    ) -> None:
        if unreachable_action not in ("drop", "raise"):
            raise ValueError("unreachable_action must be 'drop' or 'raise'")
        self.topology = topology
        self.flit_bits = flit_bits
        self.rng = rng if rng is not None else random.Random(0)
        self.stats = NetworkStats()
        self.now = 0
        self.unreachable_action = unreachable_action
        #: "fast" (activity-driven) or "naive" (reference full scan)
        self.kernel = resolve_kernel(kernel)
        #: active-entity registries; hooks in channels/routers/NIs keep
        #: them current regardless of which kernel consumes them
        self.activity = _ActivityState()

        #: live hard-fault topology shared by routers and routing functions
        self.fault_state = FaultState(topology)
        self.routing_policy = resolve_routing_policy(routing_fn)
        self.routers: List[Router] = [
            Router(
                i,
                topology,
                self.routing_policy.build(topology, i, routing_seed, self.fault_state),
                num_vcs,
                vc_depth,
                arq_capacity,
                fault_state=self.fault_state,
            )
            for i in range(topology.num_nodes)
        ]
        for router in self.routers:
            router.drop_sink = self._rc_drop

        self.watchdog: Optional[NetworkWatchdog] = (
            NetworkWatchdog(
                self,
                interval=watchdog_interval,
                deadlock_cycles=deadlock_cycles,
                max_packet_age=max_packet_age,
            )
            if watchdog_interval > 0
            else None
        )
        #: optional hard-fault campaign ticked at the top of every cycle
        self.hard_faults = None
        #: optional repro.obs.TraceBuffer — ``None`` keeps every hook a
        #: single ``is not None`` test (see attach_tracer)
        self.tracer = None

        #: channels keyed by (source router, source port)
        self.channels: Dict[Tuple[int, int], Channel] = {}
        #: per-channel delivery tuples in creation-index order: (channel,
        #: src router, src port int, dst router, dst port int).  The fast
        #: kernel iterates active indices *sorted*, which equals the naive
        #: kernel's dict-insertion-order scan — that keeps the shared
        #: error RNG consumed in an identical order.
        self._channel_meta: List[Tuple[Channel, Router, int, Router, int]] = []
        for index, spec in enumerate(topology.channels()):
            model = ChannelErrorModel(
                self.rng, flit_bits, 0.0, error_severity, relax_factor
            )
            channel = Channel(spec, channel_latency, model)
            channel.bind_activity(index, self.activity.channels)
            self.channels[(spec.src, spec.src_port)] = channel
            self._channel_meta.append(
                (
                    channel,
                    self.routers[spec.src],
                    int(spec.src_port),
                    self.routers[spec.dst],
                    int(spec.dst_port),
                )
            )
            self.routers[spec.src].outputs[int(spec.src_port)] = OutputLink(
                spec.src_port, channel, num_vcs, vc_depth, arq_capacity
            )
            self.routers[spec.dst].in_channels[int(spec.dst_port)] = channel
        for router in self.routers:
            router.bind_activity(self.activity.routers)
        #: precomputed sorted index lists — the fast kernel substitutes
        #: these for ``sorted(active_set)`` when every entity is active
        #: (the saturation steady state), skipping the per-cycle sort
        self._all_channels = list(range(len(self._channel_meta)))
        self._all_nodes = list(range(topology.num_nodes))

        crc = crc if crc is not None else CRC.crc16()
        self.interfaces: List[NetworkInterface] = [
            NetworkInterface(i, self.routers[i], topology, crc, self.stats)
            for i in range(topology.num_nodes)
        ]
        # Bound methods (not lambdas) so a Network snapshot pickles —
        # checkpoint/resume serializes the whole object graph.
        for ni in self.interfaces:
            ni.peer = self._peer_lookup
            ni._router_lookup = self._router_lookup
            ni.bind_activity(self.activity.ni_inject, self.activity.ni_eject)

    def _peer_lookup(self, node: int) -> NetworkInterface:
        return self.interfaces[node]

    def _router_lookup(self, router_id: int) -> Router:
        return self.routers[router_id]

    def _clock(self) -> int:
        return self.now

    def attach_tracer(self, tracer) -> None:
        """Attach (or detach, with ``None``) an event tracer.

        Routers and NIs don't hold a back-reference to the network, so
        they get the tracer plus the bound ``_clock`` method (bound
        methods pickle, keeping checkpoint/resume working; lambdas do
        not — same idiom as ``ni.peer`` above).  Hook sites only fire at
        event frequency, so tracing is zero-cost when detached.
        """
        self.tracer = tracer
        clock = self._clock if tracer is not None else None
        for router in self.routers:
            router.tracer = tracer
            router.trace_clock = clock
        for ni in self.interfaces:
            ni.tracer = tracer

    # ------------------------------------------------------------------
    # External control surface
    # ------------------------------------------------------------------
    def set_mode(self, router_id: int, mode: OperationMode) -> None:
        """Request an operation mode for one router's output -Links."""
        self.routers[router_id].request_mode(mode)

    def set_all_modes(self, mode: OperationMode) -> None:
        for router in self.routers:
            router.request_mode(mode)

    def channel_models(self) -> Iterable[Tuple[Tuple[int, int], ChannelErrorModel]]:
        """(key, error model) pairs for the fault substrate to refresh."""
        return ((key, ch.error_model) for key, ch in self.channels.items())

    def inject(self, packet: Packet) -> None:
        """Hand a new message to its source NI."""
        self.interfaces[packet.src].enqueue(packet)

    # ------------------------------------------------------------------
    # Cycle loop
    # ------------------------------------------------------------------
    def cycle(self) -> None:
        now = self.now
        if self.hard_faults is not None:
            self.hard_faults.tick(now)

        if self.kernel == "naive":
            self._cycle_naive(now)
        else:
            self._cycle_fast(now)

        self.now = now + 1
        self.stats.cycles += 1
        watchdog = self.watchdog
        if watchdog is not None and self.now % watchdog.interval == 0:
            watchdog.check(self.now)

    def _cycle_naive(self, now: int) -> None:
        """Reference kernel: full sweep of every entity, every cycle.

        Kept verbatim (modulo the public ``has_pending_*`` accessors) as
        the golden-equivalence baseline and the bench's "before" side.
        """
        act = self.activity
        act.channel_visits += len(self.channels)
        for (src, src_port), channel in self.channels.items():
            if channel.has_pending_credits or channel.has_pending_acks:
                sender = self.routers[src]
                for vc in channel.pop_credits(now):
                    sender.receive_credit(int(src_port), vc)
                for token in channel.pop_acks(now):
                    sender.receive_ack(int(src_port), token)

        for channel in self.channels.values():
            if channel.has_pending_data:
                arrivals = channel.pop_arrivals(now)
                if arrivals:
                    self.routers[channel.spec.dst].receive_transmissions(
                        int(channel.spec.dst_port), arrivals, now
                    )

        act.ni_eject_visits += len(self.interfaces)
        for ni in self.interfaces:
            ni.step_eject(now)
        act.ni_inject_visits += len(self.interfaces)
        for ni in self.interfaces:
            ni.step_inject(now)

        act.router_visits += len(self.routers)
        for router in self.routers:
            router.step(now)

    def _cycle_fast(self, now: int) -> None:
        """Activity-driven kernel: O(active) work per cycle.

        Phase order and per-phase iteration order match the naive scan
        exactly (sorted registration indices == dict insertion order),
        so both kernels consume the shared error RNG identically.  Each
        phase snapshots its registry just before running, so work created
        by an earlier phase in the same cycle is picked up exactly when
        the naive sweep would have; deregistration is lazy, after an
        entity's step confirms it has nothing left.

        The activity predicates (``Channel.busy``, ``has_pending_*``,
        ``NetworkInterface.needs_*``, ``Router.needs_step``) are inlined
        here as direct slot reads — at saturation the descriptor-call
        overhead of the property forms is a measurable slice of the
        cycle.  Each inline must mirror its property exactly.

        Channels get one delivery pass (sideband, then data, per channel)
        where the naive kernel makes two (all sideband, then all data).
        The reordering is invisible: sideband delivery touches only the
        sender's output link and epoch counters, data delivery only the
        receiver's input VCs, epoch counters and the channel's own
        sideband (due next cycle), and the shared error RNG is still
        drawn in channel-index order.  Sideband lists are time-ordered
        (see :mod:`repro.noc.channel`), so a list whose last entry is due
        is delivered whole.
        """
        act = self.activity

        if act.channels:
            # Delivery never enqueues data and only enqueues sideband on
            # the channel being delivered, so one snapshot serves the pass.
            if len(act.channels) == len(self._all_channels):
                snapshot = self._all_channels
            else:
                snapshot = sorted(act.channels)
            act.channel_visits += len(snapshot)
            active_channels = act.channels
            meta = self._channel_meta
            for index in snapshot:
                channel, sender, src_port, receiver, dst_port = meta[index]
                credits = channel._credits
                acks = channel._acks
                if credits or acks:
                    if (not credits or credits[-1][0] <= now) and (
                        not acks or acks[-1][0] <= now
                    ):
                        channel._credits = []
                        channel._acks = []
                        sender.receive_sideband(src_port, credits, acks)
                    else:
                        for vc in channel.pop_credits(now):
                            sender.receive_credit(src_port, vc)
                        for token in channel.pop_acks(now):
                            sender.receive_ack(src_port, token)
                data = channel._data
                if data:
                    # May push sideband back onto this same channel
                    # (ACK/NACK/credit) — re-read below (`busy`).
                    if len(data) > 1:
                        arrivals = channel.pop_arrivals(now)
                        if arrivals:
                            receiver.receive_transmissions(dst_port, arrivals, now)
                    elif data[0].arrive_at <= now:
                        channel._data = []
                        receiver.receive_transmissions(dst_port, data, now)
                if not (channel._data or channel._acks or channel._credits):
                    active_channels.discard(index)

        if act.ni_eject:
            interfaces = self.interfaces
            active_eject = act.ni_eject
            if len(active_eject) == len(self._all_nodes):
                snapshot = self._all_nodes
            else:
                snapshot = sorted(active_eject)
            act.ni_eject_visits += len(snapshot)
            for nid in snapshot:
                ni = interfaces[nid]
                ni.step_eject(now)
                if not ni._eject_queue:  # needs_eject
                    active_eject.discard(nid)

        if act.ni_inject:
            interfaces = self.interfaces
            active_inject = act.ni_inject
            if len(active_inject) == len(self._all_nodes):
                snapshot = self._all_nodes
            else:
                snapshot = sorted(active_inject)
            act.ni_inject_visits += len(snapshot)
            for nid in snapshot:
                ni = interfaces[nid]
                ni.step_inject(now)
                if not (  # needs_inject
                    ni._retx_due or ni._inject_queue or ni._current is not None
                ):
                    active_inject.discard(nid)

        if act.routers:
            routers = self.routers
            active_routers = act.routers
            if len(active_routers) == len(self._all_nodes):
                snapshot = self._all_nodes
            else:
                snapshot = sorted(active_routers)
            act.router_visits += len(snapshot)
            for rid in snapshot:
                router = routers[rid]
                router.step(now)
                if not (  # needs_step
                    router._routing
                    or router._waiting
                    or router._active
                    or router._draining
                    or router._retx_ports
                    or router._pending_mode is not None
                ):
                    active_routers.discard(rid)

    def run(self, cycles: int) -> None:
        """Advance ``cycles`` cycles, fast-forwarding fully idle spans.

        With the fast kernel, a span where every active set is empty
        cannot change any entity state — every phase of :meth:`cycle`
        would be a no-op — so only the clocks, the watchdog polls, and
        the hard-fault schedule observe those cycles.  The early-out
        advances the clocks in bulk, still runs the *real* watchdog
        check at every interval boundary (identical state, identical
        verdicts — including raising on a wedged network), and never
        jumps past the next scheduled hard-fault event.
        """
        end = self.now + cycles
        if self.kernel == "naive":
            while self.now < end:
                self.cycle()
            return
        act = self.activity
        while self.now < end:
            if act.any_active:
                self.cycle()
                continue
            target = end
            if self.hard_faults is not None:
                next_fault = self.hard_faults.next_event_cycle()
                if next_fault is not None and next_fault < target:
                    target = next_fault
            if target <= self.now:
                self.cycle()
                continue
            self._fast_forward(target)

    def _fast_forward(self, target: int) -> None:
        """Jump the clocks to ``target``, honouring watchdog cadence."""
        act = self.activity
        stats = self.stats
        watchdog = self.watchdog
        while self.now < target:
            if watchdog is None:
                stop = target
            else:
                interval = watchdog.interval
                next_check = (self.now // interval + 1) * interval
                stop = min(target, next_check)
            act.fast_forwarded += stop - self.now
            stats.cycles += stop - self.now
            self.now = stop
            if watchdog is not None and self.now % watchdog.interval == 0:
                watchdog.check(self.now)

    # ------------------------------------------------------------------
    # Hard faults
    # ------------------------------------------------------------------
    def _drop_message(self, packet: Packet) -> bool:
        """Abandon ``packet``'s message at its source NI (idempotent)."""
        return self.interfaces[packet.src].drop_message(packet.message_id)

    def _rc_drop(self, packet: Packet, router_id: int, unreachable: bool) -> None:
        """Router RC stage hit a dead port / unreachable destination.

        The in-network attempt is destroyed either way.  RC drops are
        *permanent* message drops — a deterministic router would hit the
        same dead port on every retry, so retrying would never converge.
        """
        self.stats.packets_dropped += 1
        if unreachable:
            self.stats.unreachable_drops += 1
        self._drop_message(packet)
        if self.tracer is not None:
            # message_id, not pid: pids come from a process-global
            # counter, so they differ across runs in one process and
            # would break golden-trace digests.
            self.tracer.emit(
                self.now,
                "fault",
                "rc_drop",
                subject=router_id,
                message=packet.message_id,
                src=packet.src,
                dest=packet.dest,
                unreachable=unreachable,
            )
        if unreachable and self.unreachable_action == "raise":
            raise UnreachableDestinationError(
                f"packet {packet.pid} at router {router_id}: destination "
                f"{packet.dest} unreachable from {packet.src}",
                report={
                    "kind": "unreachable_destination",
                    "router": router_id,
                    "packet": packet.pid,
                    "src": packet.src,
                    "dest": packet.dest,
                    "cycle": self.now,
                    "dead_links": sorted(self.fault_state.dead_links),
                    "dead_nodes": sorted(self.fault_state.dead_nodes),
                },
            )

    def _recover_or_drop(self, packet: Packet, now: int) -> None:
        """A hard fault destroyed this in-flight attempt.

        If the source still holds the message and an alive path exists,
        schedule one source retransmission (the paper's end-to-end
        recovery, reused for hard faults); otherwise abandon the message.
        """
        self.stats.packets_dropped += 1
        source = self.interfaces[packet.src]
        if (
            source.alive
            and packet.message_id in source._store
            and self.fault_state.reachable(packet.src, packet.dest)
        ):
            self.stats.fault_recoveries += 1
            delay = (
                self.topology.hop_distance(packet.src, packet.dest)
                + SIDEBAND_BASE_LATENCY
            )
            source.schedule_retransmission(packet.message_id, now + delay)
            if self.tracer is not None:
                self.tracer.emit(
                    now,
                    "fault",
                    "recovery",
                    subject=packet.src,
                    message=packet.message_id,
                    dest=packet.dest,
                    due=now + delay,
                )
        else:
            dropped = self._drop_message(packet)
            if self.tracer is not None and dropped:
                self.tracer.emit(
                    now,
                    "fault",
                    "message_drop",
                    subject=packet.src,
                    message=packet.message_id,
                    dest=packet.dest,
                )

    def kill_link(self, src: int, port: Port) -> bool:
        """Permanently kill the directed link ``src -> port``.

        Sweeps every place a flit of a now-truncated worm can live —
        in-flight on the channel, unacknowledged in the sender's ARQ
        buffer, queued in sender/receiver VCs — marks the affected
        packets lost, and routes each through recover-or-drop.  Returns
        False if the link does not exist or is already dead.
        """
        port = Port(port)
        channel = self.channels.get((src, port))
        if channel is None or not channel.alive:
            return False
        now = self.now
        self.fault_state.kill_link(src, int(port))
        if self.tracer is not None:
            self.tracer.emit(
                now,
                "fault",
                "link_kill",
                subject=src,
                port=port.name,
                dst=channel.spec.dst,
            )

        lost: List[Packet] = []

        def mark(packet: Optional[Packet]) -> None:
            if packet is not None and not packet.lost:
                packet.lost = True
                lost.append(packet)

        sender = self.routers[src]
        receiver = self.routers[channel.spec.dst]
        dst_port = int(channel.spec.dst_port)

        # 1. In-flight traffic dies on the wire.  Mode-2 duplicates carry
        # no credit and may shadow an already-accepted original, so only
        # primary transmissions mark their packet lost.
        for t in channel._data:
            if not t.duplicate:
                mark(t.flit.packet)
        channel._data.clear()
        channel._acks.clear()
        channel._credits.clear()
        channel.alive = False

        # 2. Sender link state: every ARQ entry the receiver has not yet
        # accepted is a flit that will never cross.
        link = sender.outputs[int(port)]
        link.alive = False
        expected = receiver.expected_seq[dst_port]
        for seq, t in link.arq:
            if seq >= expected:
                mark(t.flit.packet)
        link.arq.flush()
        link.pending_retx.clear()
        if int(port) in sender._retx_ports:
            sender._retx_ports.remove(int(port))
        link.vc_allocated = [False] * len(link.vc_allocated)
        link.vc_draining = [False] * len(link.vc_draining)

        # 3/4. Pipeline sweeps: unwind or truncate worms on both ends.
        sender.handle_dead_output(int(port), now, mark)
        receiver.handle_dead_input(dst_port, now)

        self.stats.link_kills += 1
        for packet in lost:
            self._recover_or_drop(packet, now)
        return True

    def kill_router(self, node: int) -> bool:
        """Permanently kill router ``node``, its NI, and incident links."""
        if node in self.fault_state.dead_nodes:
            return False
        now = self.now
        self.fault_state.kill_node(node)
        if self.tracer is not None:
            self.tracer.emit(now, "fault", "router_kill", subject=node)
        for port in _LINK_PORTS:
            self.kill_link(node, port)
            neighbour = self.topology.neighbour(node, port)
            if neighbour is not None:
                self.kill_link(neighbour, OPPOSITE_PORT[port])

        lost: List[Packet] = []

        def mark(packet: Optional[Packet]) -> None:
            if packet is not None and not packet.lost:
                packet.lost = True
                lost.append(packet)

        self.routers[node].flush_all(mark)
        self.interfaces[node].retire(mark)
        self.stats.router_kills += 1
        for packet in lost:
            self._recover_or_drop(packet, now)
        return True

    # ------------------------------------------------------------------
    # Bookkeeping helpers
    # ------------------------------------------------------------------
    @property
    def quiescent(self) -> bool:
        """No outstanding messages anywhere (trace fully delivered).

        O(1): reads the incrementally-maintained counter instead of
        scanning every NI — drain loops poll this every cycle.  The
        watchdog cross-checks the counter against the scan.
        """
        return self.stats.outstanding_messages == 0

    def scan_outstanding(self) -> int:
        """Ground-truth outstanding-message count (full NI scan)."""
        return sum(ni.outstanding_messages for ni in self.interfaces)

    def harvest_epoch_counters(self, epoch_cycles: int) -> None:
        """Fold per-router epoch counters into the run statistics and
        account mode residency.  Called by the simulator at each epoch
        boundary *after* the controller has consumed the counters."""
        for router in self.routers:
            epoch = router.epoch
            self.stats.flit_retransmissions += epoch.flit_retransmissions
            self.stats.corrected_errors += epoch.corrected_errors
            self.stats.escaped_errors += epoch.escaped_errors
            self.stats.duplicate_flits += epoch.duplicate_flits
            self.stats.dropped_flits += epoch.dropped_flits
            self.stats.reroutes += epoch.reroutes
            # Monotonic activity base for the deadlock watchdog: epoch
            # resets must never make observed activity go backwards.
            self.stats.buffer_ops += (
                epoch.buffer_writes + epoch.buffer_reads + epoch.flit_retransmissions
            )
            self.stats.mode_cycles[int(router.mode)] += epoch_cycles

    def reset_epoch_counters(self) -> None:
        for router in self.routers:
            router.epoch.reset()

    def drain(self, max_cycles: int) -> int:
        """Run until every message is delivered; returns cycles spent.

        Quiescence is checked after every cycle (it is an O(1) counter
        read), so the return value is the exact cycle count to the last
        delivery.  Raises ``RuntimeError`` if the network fails to drain
        within ``max_cycles`` — which in a correct configuration
        indicates a protocol bug, so it is loud by design.
        """
        start = self.now
        while not self.quiescent:
            if self.now - start >= max_cycles:
                outstanding = self.scan_outstanding()
                raise RuntimeError(
                    f"network failed to drain: {outstanding} messages "
                    f"outstanding after {max_cycles} cycles"
                )
            self.cycle()
        return self.now - start
