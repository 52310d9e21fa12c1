"""Hypothesis property tests for the routing functions.

Complements the example-based tests in ``test_routing.py`` with the
properties of the fault-tolerant routing work: every function must
return a productive minimal port, realize exactly the Manhattan
distance, and (for XY) never make a Y-to-X turn.  The router's cached
route-computation verdicts must equal a fresh computation on any
damaged mesh, also after a later kill.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc import (
    FaultState,
    MeshTopology,
    Network,
    Port,
    minimal_ports,
    xy_route,
    yx_route,
)
from repro.noc.router import RC_DEAD_PORT, RC_REROUTED, RC_UNREACHABLE
from repro.noc.routing import ROUTING_FUNCTIONS, make_adaptive_route

MAX_DIM = 8

dims = st.integers(min_value=2, max_value=MAX_DIM)


@st.composite
def mesh_and_pair(draw):
    width, height = draw(dims), draw(dims)
    topo = MeshTopology(width, height)
    nodes = width * height
    src = draw(st.integers(min_value=0, max_value=nodes - 1))
    dest = draw(st.integers(min_value=0, max_value=nodes - 1))
    return topo, src, dest


def _walk(topology, route_fn, src, dest, limit=None):
    node = src
    path = [node]
    limit = limit if limit is not None else 4 * (topology.width + topology.height)
    for _ in range(limit):
        if node == dest:
            return path
        port = route_fn(topology, node, dest)
        node = topology.neighbour(node, port)
        assert node is not None, "routing walked off the mesh"
        path.append(node)
    raise AssertionError("routing did not reach the destination")


@settings(max_examples=200, deadline=None)
@given(mesh_and_pair())
def test_dimension_order_ports_are_productive_minimal(case):
    topo, src, dest = case
    minimal = set(minimal_ports(topo, src, dest))
    assert xy_route(topo, src, dest) in minimal
    assert yx_route(topo, src, dest) in minimal


@settings(max_examples=200, deadline=None)
@given(mesh_and_pair())
def test_route_length_equals_manhattan_distance(case):
    topo, src, dest = case
    for fn in (xy_route, yx_route):
        path = _walk(topo, fn, src, dest)
        assert len(path) - 1 == topo.hop_distance(src, dest)


@settings(max_examples=200, deadline=None)
@given(mesh_and_pair())
def test_xy_never_turns_y_to_x(case):
    topo, src, dest = case
    path = _walk(topo, xy_route, src, dest)
    seen_y = False
    for a, b in zip(path, path[1:]):
        ax, ay = topo.coordinates(a)
        bx, by = topo.coordinates(b)
        if ay != by:
            seen_y = True
        if ax != bx:
            assert not seen_y, f"YX turn on path {path}"


@settings(max_examples=100, deadline=None)
@given(mesh_and_pair(), st.integers(min_value=0, max_value=2**31))
def test_o1turn_routes_are_minimal(case, seed):
    topo, src, dest = case
    fn = ROUTING_FUNCTIONS["o1turn"].build(topo, router_id=0, seed=seed)
    path = _walk(topo, fn, src, dest)
    assert len(path) - 1 == topo.hop_distance(src, dest)


@settings(max_examples=100, deadline=None)
@given(mesh_and_pair())
def test_adaptive_equals_xy_when_healthy(case):
    topo, src, dest = case
    fn = make_adaptive_route(FaultState(topo))
    assert fn(topo, src, dest) == xy_route(topo, src, dest)


@settings(max_examples=100, deadline=None)
@given(mesh_and_pair(), st.randoms(use_true_random=False))
def test_adaptive_reaches_destination_around_one_dead_link(case, rnd):
    topo, src, dest = case
    fault_state = FaultState(topo)
    fn = make_adaptive_route(fault_state)
    # Kill one random directed link that isn't the destination's last
    # resort: pick any; if it cuts the graph, reachability must say so.
    channels = list(topo.channels())
    spec = channels[rnd.randrange(len(channels))]
    fault_state.kill_link(spec.src, int(spec.src_port))
    if not fault_state.reachable(src, dest):
        return  # cut graph: RC would drop with accounting, not route
    path = _walk(topo, fn, src, dest)
    for a, b in zip(path, path[1:]):
        assert (a, b) != (spec.src, spec.dst), "route used the dead link"


@st.composite
def damaged_mesh(draw):
    """A small mesh, a routing policy, and a few dead links and routers,
    plus one more link to kill after the first round of lookups."""
    width = draw(st.integers(min_value=2, max_value=5))
    height = draw(st.integers(min_value=2, max_value=5))
    topo = MeshTopology(width, height)
    links = len(list(topo.channels()))
    index = st.integers(min_value=0, max_value=links - 1)
    dead_links = draw(st.lists(index, max_size=4, unique=True))
    node = st.integers(min_value=0, max_value=topo.num_nodes - 1)
    dead_nodes = draw(st.lists(node, max_size=2, unique=True))
    routing = draw(st.sampled_from(["xy", "yx", "adaptive"]))
    return topo, routing, dead_links, dead_nodes, draw(index)


def _direct_verdict(router, dest):
    """Route computation from scratch: the routing call, then the fault
    checks, without any cache."""
    out = int(router.routing_fn(router.topology, router.id, dest))
    fault_state = router.fault_state
    if not fault_state.any_faults:
        return out
    if not fault_state.reachable(router.id, dest):
        return RC_UNREACHABLE
    if out != int(Port.LOCAL) and not fault_state.link_alive(router.id, out):
        return RC_DEAD_PORT
    fault_aware = getattr(router.routing_fn, "fault_aware", False)
    if fault_aware and out != int(xy_route(router.topology, router.id, dest)):
        return out + RC_REROUTED
    return out


def _assert_rows_match(net):
    nodes = range(net.topology.num_nodes)
    for router in net.routers:
        expected = [_direct_verdict(router, dest) for dest in nodes]
        # The first pass fills the row, the second reads it back.
        for _ in range(2):
            assert [router.route_verdict(dest) for dest in nodes] == expected


@settings(max_examples=100, deadline=None)
@given(damaged_mesh())
def test_rc_rows_equal_direct_computation_and_refresh_on_kill(case):
    topo, routing, dead_links, dead_nodes, late_link = case
    net = Network(topo, routing_fn=routing)
    channels = list(topo.channels())
    for i in dead_links:
        net.kill_link(channels[i].src, channels[i].src_port)
    for node in dead_nodes:
        net.kill_router(node)
    _assert_rows_match(net)
    # A kill between two lookups must refresh every router's row.
    net.kill_link(channels[late_link].src, channels[late_link].src_port)
    _assert_rows_match(net)
