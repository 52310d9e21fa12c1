"""Golden equivalence: the activity-driven kernel vs the naive full scan.

DESIGN.md §11's core contract: for any seed and workload, the fast
kernel and the reference full-scan kernel must produce *bit-identical*
results — same deliveries, same retransmissions, same RNG-driven error
pattern, same final statistics.  These tests drive matched networks
through healthy and hard-fault campaigns under every routing policy and
compare everything observable.

Both kernels share the router pipeline, the channel and the ARQ
sideband, so fast == naive alone cannot catch a change in that shared
code.  Each fingerprint is therefore also pinned to a golden digest.
If a change moves a digest on purpose, update the constant in the same
commit and say why.  Run this file as a script to print the digests.
"""

import hashlib
import json
import random

import pytest

from repro.faults.hardfaults import HardFaultModel, HardFaultSchedule
from repro.noc.network import Network
from repro.noc.packet import Packet
from repro.noc.topology import MeshTopology, Port

CHAOS_SPEC = "link@400:1E;router@900:5;burst@600+300:0.05"

#: (seed, routing, fault spec) -> sha256 prefix of the fast fingerprint
GOLDEN_KERNELS = {
    (0, "xy", None): "8c86f130622141f9",
    (1, "adaptive", None): "6450925e9d947e30",
    (2, "xy", CHAOS_SPEC): "cb50f5bb74a2a246",
    (3, "adaptive", CHAOS_SPEC): "dceda0c908ea99a0",
    (4, "adaptive", CHAOS_SPEC): "61be6a44ef302290",
    (5, "yx", None): "86d4ead14e3661da",
    (6, "yx", CHAOS_SPEC): "2ccd41527af0962f",
    (7, "o1turn", None): "7053a18dc5bce6e2",
    (8, "o1turn", CHAOS_SPEC): "ef8f3b1d3b395c37",
}


def _build(kernel, seed, routing, fault_spec):
    net = Network(
        MeshTopology(4, 4),
        routing_fn=routing,
        rng=random.Random(seed + 1),
        routing_seed=seed,
        kernel=kernel,
    )
    if fault_spec:
        net.hard_faults = HardFaultModel(net, HardFaultSchedule.parse(fault_spec))
    for _, model in net.channel_models():
        model.event_probability = 0.01
        model.relax_factor = 0.5
    return net


def _drive(net, seed, cycles=1_500, rate=0.15):
    """Uniform random traffic, mixing per-cycle stepping and run() spans."""
    rng = random.Random(seed + 7)
    nodes = net.topology.num_nodes
    message_id = 0
    end = net.now + cycles
    while net.now < end:
        if rng.random() < rate:
            src, dst = rng.randrange(nodes), rng.randrange(nodes)
            if src != dst:
                net.inject(
                    Packet(src, dst, 4, 128, net.now, message_id=message_id)
                )
                message_id += 1
        # Alternate single cycles with short run() spans so the
        # fast-forward path participates in the equivalence check.
        if net.now % 7 == 0:
            net.run(3)
        else:
            net.cycle()
    deadline = net.now + 50_000
    while not net.quiescent and net.now < deadline:
        net.cycle()


def _fingerprint(net):
    stats = net.stats
    return {
        "final_cycle": net.now,
        "messages_created": stats.messages_created,
        "packets_delivered": stats.packets_delivered,
        "flits_delivered": stats.flits_delivered,
        "messages_dropped": stats.messages_dropped,
        "retransmission_events": stats.retransmission_events,
        "crc_failures": stats.crc_failures,
        "corrected_errors": stats.corrected_errors,
        "silent_corruptions": stats.silent_corruptions,
        "mean_latency": stats.mean_latency,
        "reroutes": sum(r.epoch.reroutes for r in net.routers),
        "arbitrations": sum(r.epoch.arbitration_ops for r in net.routers),
        "flits_out": [list(r.epoch.flits_out) for r in net.routers],
        "rng_state": net.rng.getstate(),
    }


def _digest(fingerprint):
    blob = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("seed,routing,fault_spec", list(GOLDEN_KERNELS))
def test_kernels_bit_identical(seed, routing, fault_spec):
    prints = {}
    for kernel in ("fast", "naive"):
        net = _build(kernel, seed, routing, fault_spec)
        _drive(net, seed)
        prints[kernel] = _fingerprint(net)
    assert prints["fast"] == prints["naive"]
    assert _digest(prints["fast"]) == GOLDEN_KERNELS[(seed, routing, fault_spec)]


def test_active_sets_drain_at_quiescence():
    """Lazy deregistration converges: no activity left once quiescent."""
    net = _build("fast", 0, "xy", None)
    _drive(net, 0, cycles=400)
    assert net.quiescent
    act = net.activity
    assert not act.channels
    assert not act.routers
    assert not act.ni_eject
    assert not act.ni_inject


def test_fast_forward_skips_only_truly_idle_cycles():
    """run() jumps idle spans without skipping watchdog or fault events."""
    net = _build("fast", 0, "xy", "link@5000:1E")
    # Nothing in flight: run() should fast-forward but stop exactly at
    # the scheduled hard fault, then continue.
    net.run(8_000)
    assert net.now == 8_000
    assert net.activity.fast_forwarded > 0
    assert not net.fault_state.link_alive(1, int(Port.EAST))
    # The watchdog observed every interval boundary despite the jumps.
    assert net.watchdog is not None
    assert net.watchdog.checks >= 8_000 // net.watchdog.interval - 1


def test_naive_kernel_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_NAIVE_KERNEL", "1")
    net = Network(MeshTopology(2, 2))
    assert net.kernel == "naive"
    monkeypatch.setenv("REPRO_NAIVE_KERNEL", "0")
    net = Network(MeshTopology(2, 2))
    assert net.kernel == "fast"


def test_channel_pending_properties():
    net = _build("fast", 0, "xy", None)
    channel = next(iter(net.channels.values()))
    assert not channel.busy
    assert not channel.has_pending_data
    assert not channel.has_pending_acks
    assert not channel.has_pending_credits
    channel.send_credit(0, net.now + 1)
    assert channel.has_pending_credits and channel.busy
    assert channel.pop_credits(net.now + 1) == [0]
    assert not channel.busy


if __name__ == "__main__":  # pragma: no cover - records the constants
    for case in GOLDEN_KERNELS:
        net = _build("fast", *case)
        _drive(net, case[0])
        print(case, _digest(_fingerprint(net)))
