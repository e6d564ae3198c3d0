"""Topology construction and fabric pricing tests."""

import pytest

from repro.config import NetworkSpec
from repro.errors import ConfigError
from repro.sim.network import WAN_BANDWIDTH, WAN_LATENCY, Fabric, build_topology


def topo(kind, n):
    return build_topology(kind, n, NetworkSpec())


class TestRing:
    def test_neighbor_sets(self):
        t = topo("ring", 8)
        assert t.neighbors(0) == (7, 1)
        assert t.neighbors(4) == (3, 5)

    def test_two_member_ring_has_single_neighbor(self):
        t = topo("ring", 2)
        assert t.neighbors(0) == (1,)
        assert t.neighbors(1) == (0,)

    def test_routes_walk_shorter_arc(self):
        t = topo("ring", 8)
        assert t.hops(0, 3) == 3
        assert t.hops(0, 5) == 3  # counter-clockwise is shorter
        assert t.hops(0, 4) == 4  # tie
        assert t.hops(2, 2) == 0

    def test_route_links_are_contiguous(self):
        t = topo("ring", 8)
        route = t.route(0, 3)
        assert route[0][1] == 0 and route[-1][2] == 3
        for a, b in zip(route, route[1:]):
            assert a[2] == b[1]


class TestMesh2D:
    def test_most_square_factorization(self):
        assert (topo("mesh2d", 12).rows, topo("mesh2d", 12).cols) == (3, 4)
        assert (topo("mesh2d", 16).rows, topo("mesh2d", 16).cols) == (4, 4)
        # A prime count degenerates to a 1 x n chain.
        assert (topo("mesh2d", 7).rows, topo("mesh2d", 7).cols) == (1, 7)

    def test_neighbor_sets(self):
        t = topo("mesh2d", 12)  # 3 x 4
        assert set(t.neighbors(0)) == {1, 4}  # corner
        assert set(t.neighbors(5)) == {1, 4, 6, 9}  # interior
        assert set(t.neighbors(11)) == {7, 10}  # opposite corner

    def test_dimension_ordered_route_length_is_manhattan(self):
        t = topo("mesh2d", 12)
        assert t.hops(0, 11) == 2 + 3
        assert t.hops(4, 7) == 3


class TestFatTree:
    def test_neighbor_sets(self):
        t = topo("fat_tree", 16)
        # Edge-switch siblings plus the same-position leaf in each
        # adjacent group (ring of groups).
        assert set(t.neighbors(0)) == {1, 2, 3, 4, 12}
        assert set(t.neighbors(5)) == {4, 6, 7, 1, 9}

    def test_intra_group_route_is_two_hops(self):
        t = topo("fat_tree", 16)
        assert t.hops(0, 1) == 2

    def test_cross_group_route_climbs_to_lca(self):
        t = topo("fat_tree", 16)
        assert t.hops(0, 15) == 4

    def test_upper_links_are_fatter(self):
        t = topo("fat_tree", 16)
        route = t.route(0, 15)
        level0 = t.link_bandwidth(route[0])
        level1 = t.link_bandwidth(route[1])
        assert level1 == pytest.approx(2.0 * level0)


class TestTwoCluster:
    def test_cluster_membership_and_gateway(self):
        t = topo("two_cluster", 8)
        assert t.split == 4
        assert [t.cluster_of(i) for i in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]
        assert set(t.neighbors(0)) == {3, 1, 4}  # ring + gateway
        assert set(t.neighbors(4)) == {7, 5, 0}

    def test_intra_cluster_is_single_crossbar_hop(self):
        t = topo("two_cluster", 8)
        assert t.hops(0, 3) == 1
        assert t.hops(5, 6) == 1

    def test_cross_cluster_arrivals_pay_wan_latency(self):
        # A-to-B and B-to-A each cross the sender's access hop, then the
        # shared WAN link: WAN_LATENCY plus the WAN byte time on top.
        net = NetworkSpec()
        fab = Fabric(topo("two_cluster", 8), net)
        nbytes = 100
        access = net.latency + nbytes / net.bandwidth
        wan = WAN_LATENCY + nbytes / WAN_BANDWIDTH
        assert fab.arrival(0, 5, nbytes, 0.0) == pytest.approx(access + wan)
        b_to_a = fab.arrival(5, 0, nbytes, 10.0) - 10.0
        assert b_to_a == pytest.approx(access + wan)

    def test_shared_wan_link_serializes_under_contention(self):
        fab = Fabric(topo("two_cluster", 8), NetworkSpec())
        first = fab.arrival(0, 5, 10_000_000, 0.0)
        second = fab.arrival(1, 6, 10_000_000, 0.0)
        # Both cross the one WAN link; the second queues behind the
        # first's ~1 s of wire time.
        assert second >= first + 0.9


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            build_topology("hypercube", 8)

    def test_too_few_members_rejected(self):
        with pytest.raises(ConfigError, match=">= 2"):
            build_topology("ring", 1)

    def test_member_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match="out of range"):
            topo("ring", 4).neighbors(4)


class TestFabricAttach:
    def test_non_member_pids_ride_their_attach_node(self):
        net = NetworkSpec()
        fab = Fabric(build_topology("ring", 4, net), net, attach={9: 2})
        assert fab.node_of(9) == 2
        assert fab.node_of(1) == 1
        # Unattached non-members default to node 0.
        assert fab.node_of(7) == 0

    def test_same_node_messages_use_crossbar_time(self):
        net = NetworkSpec()
        fab = Fabric(build_topology("ring", 4, net), net, attach={9: 2})
        base = net.latency + 100 / net.bandwidth
        assert fab.arrival(9, 2, 100, 1.0) == pytest.approx(1.0 + base)
