"""Calibrated rail presets.

``MYRI_10G`` and ``QUADRICS_QM500`` are calibrated so that the simulated
single-rail ping-pong reproduces the paper's §3.1 scalars:

* MX/Myri-10G — latency 2.8 µs, max bandwidth ≈ 1200 MB/s (Fig 2);
* Elan/Quadrics — latency 1.7 µs, max bandwidth ≈ 850 MB/s (Fig 3).

The split between wire latency and per-packet host costs is constrained by
the *multi-segment* curves of Figs 2(a)/3(a): sending k segments separately
costs roughly ``latency + (k-1) × (post + handle)``, and the observed gaps
put the per-extra-packet cost at ≈1.1 µs on MX and ≈0.8 µs on Elan (the
relative aggregation gain is larger on Quadrics, as the paper notes).

``SCI_D33X``, ``GIGE_TCP`` and ``IB_DDR`` exist because NewMadeleine ships
drivers for SiSCI and TCP (§2) and to exercise the strategies on other
heterogeneous mixes; their constants are order-of-magnitude typical for
2006-era hardware, not calibrated against this paper.

The default platform (:func:`paper_platform`) is the paper's testbed: two
dual-Opteron nodes, one Myri-10G NIC + one Quadrics QM500 NIC each, ~2 GB/s
I/O bus.
"""

from __future__ import annotations

from ..util.errors import ConfigError
from .spec import MAX_NODES, HostSpec, PlatformSpec, RailSpec

__all__ = [
    "MYRI_10G",
    "MYRINET_2000",
    "QUADRICS_QM500",
    "SCI_D33X",
    "GIGE_TCP",
    "IB_DDR",
    "PAPER_HOST",
    "paper_platform",
    "single_rail_platform",
    "PRESET_RAILS",
]

#: Myricom Myri-10G with the MX 1.2 driver (paper §3.1).
MYRI_10G = RailSpec(
    name="myri10g",
    driver="mx",
    lat_us=1.325,
    bw_MBps=1210.0,
    pio_MBps=800.0,
    eager_threshold=16384,
    poll_cost_us=0.35,
    post_cost_us=0.60,
    handle_cost_us=0.50,
    rdv_setup_us=4.0,
    header_bytes=16,
)

#: Quadrics QM500 (QsNetII) with the Elan driver (paper §3.1).
QUADRICS_QM500 = RailSpec(
    name="qsnet2",
    driver="elan",
    lat_us=0.671,
    bw_MBps=860.0,
    pio_MBps=700.0,
    eager_threshold=16384,
    poll_cost_us=0.20,
    post_cost_us=0.45,
    handle_cost_us=0.35,
    rdv_setup_us=14.0,
    header_bytes=16,
)

#: Dolphinics SCI (SiSCI API) — very low latency, modest bandwidth.
SCI_D33X = RailSpec(
    name="sci",
    driver="sisci",
    lat_us=1.40,
    bw_MBps=320.0,
    pio_MBps=250.0,
    eager_threshold=8192,
    poll_cost_us=0.25,
    post_cost_us=0.70,
    handle_cost_us=0.55,
    rdv_setup_us=8.0,
)

#: Legacy sockets over gigabit Ethernet — the portability fallback.
GIGE_TCP = RailSpec(
    name="gige",
    driver="tcp",
    lat_us=25.0,
    bw_MBps=112.0,
    pio_MBps=400.0,
    eager_threshold=32768,
    poll_cost_us=0.80,
    post_cost_us=2.50,
    handle_cost_us=2.50,
    rdv_setup_us=15.0,
    zero_copy_recv=False,
)

#: Myrinet-2000 with the GM-2 API — the older Myricom generation, the
#: fifth driver of the paper's §2 list (cf. Zamani et al., LCN'04).
MYRINET_2000 = RailSpec(
    name="myri2000",
    driver="gm",
    lat_us=4.9,
    bw_MBps=245.0,
    pio_MBps=300.0,
    eager_threshold=4096,
    poll_cost_us=0.40,
    post_cost_us=0.80,
    handle_cost_us=0.60,
    rdv_setup_us=10.0,
)

#: InfiniBand DDR 4x (for heterogeneous-mix experiments beyond the paper).
IB_DDR = RailSpec(
    name="ibddr",
    driver="mx",  # §2 lists no verbs driver: it speaks the MX API
    lat_us=1.90,
    bw_MBps=1500.0,
    pio_MBps=900.0,
    eager_threshold=8192,
    poll_cost_us=0.30,
    post_cost_us=0.65,
    handle_cost_us=0.55,
    rdv_setup_us=5.0,
)

#: The dual-Opteron hosts of §3.1.
PAPER_HOST = HostSpec(memcpy_MBps=6000.0, bus_MBps=1850.0)

#: Registry of named presets (used by config loading and the CLI examples).
PRESET_RAILS = {
    r.name: r
    for r in (MYRI_10G, QUADRICS_QM500, MYRINET_2000, SCI_D33X, GIGE_TCP, IB_DDR)
}


def _check_node_count(n_nodes: int, what: str) -> None:
    """Reject node counts the crossbar presets cannot represent.

    The paper's testbed shapes are small; anything that is not a positive
    count of at least 2 — or that exceeds :data:`~repro.hardware.spec.MAX_NODES`
    — is a caller bug (a byte count or rank id passed where a node count
    goes), and deserves a loud error rather than a silently mis-sized
    platform.  Cluster-scale shapes should go through the topology presets
    in :mod:`repro.hardware.topology`, which model the switches.
    """
    if not isinstance(n_nodes, int) or isinstance(n_nodes, bool):
        raise ConfigError(f"{what}: n_nodes must be an int, got {n_nodes!r}")
    if n_nodes < 2:
        raise ConfigError(f"{what}: need at least 2 nodes, got {n_nodes}")
    if n_nodes > MAX_NODES:
        raise ConfigError(
            f"{what}: n_nodes={n_nodes} exceeds the supported maximum of"
            f" {MAX_NODES} (did a byte count end up in a node count?)"
        )


def paper_platform(n_nodes: int = 2) -> PlatformSpec:
    """The paper's 2-rail testbed: Myri-10G + Quadrics per node.

    ``n_nodes`` beyond 2 extends the testbed to a crossbar of identical
    nodes (every pair directly connected); for hundreds of nodes prefer
    the switch-aware presets in :mod:`repro.hardware.topology`.
    """
    _check_node_count(n_nodes, "paper_platform")
    return PlatformSpec(rails=(MYRI_10G, QUADRICS_QM500), n_nodes=n_nodes, host=PAPER_HOST)


def single_rail_platform(rail: RailSpec, n_nodes: int = 2) -> PlatformSpec:
    """A platform with a single rail (reference curves, sampling runs)."""
    _check_node_count(n_nodes, "single_rail_platform")
    return PlatformSpec(rails=(rail,), n_nodes=n_nodes, host=PAPER_HOST)
