"""Topology layer: plans, presets, routing, and spec integration."""

import pytest

from repro.hardware.presets import paper_platform, single_rail_platform
from repro.hardware.presets import MYRI_10G
from repro.hardware.spec import PlatformSpec, TopologySpec
from repro.hardware.topology import (
    TOPOLOGY_BUILDERS,
    build_plan,
    describe_plan,
    dragonfly_platform,
    fat_tree_platform,
    rail_optimized_platform,
    topology_platform,
)
from repro.util.errors import ConfigError


# --------------------------------------------------------------------- #
# plans and routing
# --------------------------------------------------------------------- #
def _plan(spec, rail_index=0):
    plan = build_plan(spec.rails[rail_index], spec.n_nodes)
    assert plan is not None
    return plan


def test_no_topology_means_no_plan():
    spec = paper_platform(n_nodes=4)
    assert build_plan(spec.rails[0], 4) is None


def test_fat_tree_routes_and_hops():
    plan = _plan(fat_tree_platform(64, radix=32))
    # same edge switch: no inter-switch links, one crossing
    links, hops = plan.route(0, 1)
    assert links == () and hops == 1
    # different edges: up to a spine, down to the peer edge
    links, hops = plan.route(0, 63)
    assert hops == 3 and len(links) == 2
    assert links[0].name.startswith("myri10g.up.")
    assert links[1].name.startswith("myri10g.down.")
    assert plan.extra_latency_us(0, 63) == pytest.approx(2 * 0.05)
    assert plan.extra_latency_us(0, 1) == 0.0


def test_routes_are_deterministic_and_cached():
    plan = _plan(rail_optimized_platform(32, group=8))
    first = plan.route(0, 31)
    again = plan.route(0, 31)
    assert first == again
    assert plan.routes_cached >= 1
    # link objects are shared between routes through the same switch pair
    links_a, _ = plan.route(0, 31)
    links_b, _ = plan.route(1, 30)
    assert links_a[0] is links_b[0]  # same leaf -> same up-link object


def test_link_objects_shared_models_contention():
    """Two node pairs behind the same leaf pair share physical up/down
    links — the whole point of modelling the fabric."""
    plan = _plan(rail_optimized_platform(16, group=4))
    a, _ = plan.route(0, 8)
    b, _ = plan.route(1, 9)
    assert [l.name for l in a] == [l.name for l in b]
    assert all(x is y for x, y in zip(a, b))


def test_dragonfly_hop_counts():
    spec = dragonfly_platform(64, routers_per_group=4, hosts_per_router=4)
    plan = _plan(spec)
    # same router
    assert plan.route(0, 1)[1] == 1
    n = spec.n_nodes
    for dst in (1, n // 2, n - 1):
        _links, hops = plan.route(0, dst)
        assert 1 <= hops <= 4


def test_lazy_link_creation():
    plan = _plan(rail_optimized_platform(1024, group=8))
    assert plan.links_created == 0
    plan.route(0, 1000)
    assert plan.links_created == 2  # only the touched up/down pair


@pytest.mark.parametrize(
    "spec",
    [
        fat_tree_platform(64, radix=8),
        fat_tree_platform(50, radix=32),
        dragonfly_platform(64, routers_per_group=4, hosts_per_router=2),
        dragonfly_platform(37),
        rail_optimized_platform(64, group=8),
        rail_optimized_platform(30, group=4),
    ],
    ids=lambda spec: f"{spec.rails[0].topology.kind}{spec.n_nodes}",
)
def test_switch_pair_cache_answers_like_a_direct_route(spec):
    """Routes are cached per (switch of src, switch of dst); every ordered
    node pair must still get the links and hop count its own ``_route``
    computes — same names, same order, the very same link objects."""
    cached, direct = _plan(spec), _plan(spec)
    n = spec.n_nodes
    for src in range(n):
        for dst in range(n):
            if src == dst:
                continue
            links, hops = cached.route(src, dst)
            want_links, want_hops = direct._route(src, dst)
            assert hops == want_hops
            assert [l.name for l in links] == [l.name for l in want_links]
            assert all(link is cached._links[link.name.split(".", 1)[1]] for link in links)
    per = cached.hosts_per_switch
    switches = -(-n // per)
    assert cached.routes_cached <= switches * switches < n * (n - 1)
    assert cached.links_created == direct.links_created


def test_one_cross_leaf_pair_makes_two_links_and_one_route():
    plan = _plan(rail_optimized_platform(64, group=8))
    first = plan.route(0, 63)
    assert plan.links_created == 2 and plan.routes_cached == 1
    assert plan.route(7, 56) is first  # same two leaves: the identical answer
    assert plan.links_created == 2 and plan.routes_cached == 1


def test_oversubscription_shrinks_uplinks():
    fair = rail_optimized_platform(16, group=4, oversubscription=1.0)
    tight = rail_optimized_platform(16, group=4, oversubscription=4.0)
    assert (
        tight.rails[0].topology.link_MBps
        == fair.rails[0].topology.link_MBps / 4.0
    )


def test_describe_plan_shape():
    d = describe_plan(_plan(fat_tree_platform(64)))
    assert d["kind"] == "fat_tree"
    assert d["switches"] > 0
    assert all(
        {"src", "dst", "switch_hops", "extra_latency_us", "links"} <= set(s)
        for s in d["sample_routes"]
    )


# --------------------------------------------------------------------- #
# preset builders and validation
# --------------------------------------------------------------------- #
def test_topology_platform_by_name():
    for name in TOPOLOGY_BUILDERS:
        spec = topology_platform(name, 16)
        assert spec.n_nodes == 16
        assert all(r.topology is not None for r in spec.rails)
        assert all(r.topology.kind == name for r in spec.rails)


def test_unknown_topology_rejected():
    with pytest.raises(ConfigError, match="unknown topology"):
        topology_platform("torus", 16)


def test_bad_rail_opt_params_rejected():
    with pytest.raises(ConfigError, match="group"):
        rail_optimized_platform(16, group=0)
    with pytest.raises(ConfigError, match="oversubscription"):
        rail_optimized_platform(16, oversubscription=0.0)


def test_dragonfly_too_small_rejected():
    # the builder derives a fitting group count; a hand-written spec can
    # still under-provision and must be rejected at plan build time
    rail = MYRI_10G.replace(
        topology=TopologySpec(
            kind="dragonfly", groups=1, routers=2, hosts=2, link_MBps=100.0
        )
    )
    with pytest.raises(ConfigError, match="cannot hold"):
        build_plan(rail, 64)


@pytest.mark.parametrize("bad", [0, 1, -3, 2.5, True, 1 << 20, "16"])
def test_paper_platform_rejects_bad_node_counts(bad):
    with pytest.raises(ConfigError):
        paper_platform(n_nodes=bad)


@pytest.mark.parametrize("bad", [0, 1, -3, True])
def test_single_rail_platform_rejects_bad_node_counts(bad):
    with pytest.raises(ConfigError):
        single_rail_platform(MYRI_10G, n_nodes=bad)


# --------------------------------------------------------------------- #
# spec round-trip and hash stability
# --------------------------------------------------------------------- #
def test_topology_spec_roundtrip():
    spec = fat_tree_platform(64, radix=16)
    again = PlatformSpec.from_dict(spec.to_dict())
    assert again == spec
    assert again.rails[0].topology == spec.rails[0].topology


def test_topology_spec_validation():
    with pytest.raises(ConfigError):
        TopologySpec(kind="moebius")
    with pytest.raises(ConfigError):
        TopologySpec(kind="fat_tree", hop_us=-1.0)


def test_platform_hash_unchanged_without_topology():
    """Adding the optional topology field must not shift the hash of the
    paper testbed — every committed baseline keys on it."""
    from repro.obs.perf import platform_hash

    spec = paper_platform()
    assert all(r.topology is None for r in spec.rails)
    blob = spec.to_dict()
    for rail in blob["rails"]:
        assert "topology" not in rail
    assert platform_hash(spec) == platform_hash(PlatformSpec.from_dict(blob))


def test_platform_hash_sees_topology():
    from repro.obs.perf import platform_hash

    a = rail_optimized_platform(16, group=4)
    b = rail_optimized_platform(16, group=8)
    assert platform_hash(a) != platform_hash(b)


# --------------------------------------------------------------------- #
# wire integration: topology latency reaches the transfer path
# --------------------------------------------------------------------- #
def test_wire_latency_includes_hops():
    from repro.hardware.platform import Platform
    from repro.sim.engine import Simulator

    spec = rail_optimized_platform(16, group=4, hop_us=0.05)
    plat = Platform(Simulator(), spec)
    same_leaf = plat.wire_latency_us(0, 0, 1)
    cross_leaf = plat.wire_latency_us(0, 0, 15)
    assert cross_leaf == pytest.approx(same_leaf + 2 * 0.05)


def test_dma_path_includes_switch_links():
    from repro.hardware.platform import Platform
    from repro.sim.engine import Simulator

    spec = rail_optimized_platform(16, group=4)
    plat = Platform(Simulator(), spec)
    cross = plat.dma_path(0, 0, 15)
    local = plat.dma_path(0, 0, 1)
    assert len(cross) == len(local) + 2
    names = [l.name for l in cross]
    assert any(".up." in n for n in names) and any(".down." in n for n in names)


def test_cross_switch_pingpong_slower_than_local():
    from repro.bench.pingpong import run_pingpong
    from repro.core.session import Session

    spec = rail_optimized_platform(16, group=8, hop_us=0.5)
    local = run_pingpong(
        Session(spec, strategy="greedy"), 4096, reps=2, warmup=1,
        node_a=0, node_b=1,
    )
    remote = run_pingpong(
        Session(spec, strategy="greedy"), 4096, reps=2, warmup=1,
        node_a=0, node_b=15,
    )
    assert remote.one_way_us > local.one_way_us
