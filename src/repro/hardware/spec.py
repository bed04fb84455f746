"""Declarative hardware specifications.

A :class:`PlatformSpec` describes the experimental platform of the paper's
§3.1 — a set of nodes, each equipped with one NIC per *rail* (network), all
NICs of a node sharing one I/O bus.  Specs are plain frozen dataclasses so
they can be copied, tweaked (``dataclasses.replace``) for ablations, and
round-tripped through dicts (:meth:`PlatformSpec.to_dict` /
:meth:`PlatformSpec.from_dict`).

The parameter semantics follow DESIGN.md §5:

* ``lat_us`` — one-way fabric latency (wire + NIC pipeline), *excluding*
  host-side per-packet costs;
* ``bw_MBps`` — DMA (rendezvous) bandwidth cap of the NIC link;
* ``pio_MBps`` — host→NIC programmed-I/O copy bandwidth (occupies the CPU);
* ``eager_threshold`` — largest packet sent eagerly via PIO; anything
  bigger goes through the rendezvous protocol and DMA;
* ``poll_cost_us`` — CPU cost of one progress poll of this NIC, charged by
  the engine's pump on every sweep (this is the Fig 6 penalty);
* ``post_cost_us`` / ``handle_cost_us`` — per-packet host overhead on the
  send / receive side;
* ``rdv_setup_us`` — DMA setup (memory registration, descriptor ring) per
  rendezvous transfer;
* ``header_bytes`` — on-wire header per aggregated entry.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import MISSING, dataclass, field
from typing import Any, Iterator, Mapping, Sequence

from ..util.errors import ConfigError

__all__ = ["DRIVER_APIS", "TopologySpec", "RailSpec", "HostSpec", "PlatformSpec"]

#: the network APIs NewMadeleine has drivers for (§2): Quadrics Elan,
#: Myricom GM-2 and MX, Dolphinics SiSCI and the legacy socket API; one
#: :class:`~repro.drivers.base.Driver` serves them all.
DRIVER_APIS = ("elan", "gm", "mx", "sisci", "tcp")

#: upper bound on cluster size — far above any workload here; catches the
#: obvious misconfiguration (a byte count passed where a node count goes).
MAX_NODES = 1 << 16


#: field annotation → the JSON values it takes, and what to call them.
_JSON_TYPES = {
    "float": ((int, float), "a number"),
    "int": (int, "an integer"),
    "str": (str, "a string"),
    "bool": (bool, "true or false"),
}


def _checked(cls: type, data: Any, label: str) -> dict[str, Any]:
    """The one door for hand-written spec documents (every ``from_dict``).

    ``data`` must be a mapping of ``cls``'s field names, holding every
    field without a default, with a number where a number goes (a string
    or a ``bool`` is not one, and an ``int`` field takes no ``2.7``).
    Ranges stay with ``__post_init__``; nested specs with their own
    ``from_dict``.
    """
    if not isinstance(data, Mapping):
        raise ConfigError(f"{label} must be a mapping, got {type(data).__name__}")
    if isinstance(data.get("name"), str):
        label = f"{label} {data['name']}"
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(fields), key=str)
    if unknown:
        raise ConfigError(f"{label}: unknown field {unknown[0]!r}; have {sorted(fields)}")
    for name, f in fields.items():
        no_default = f.default is MISSING and f.default_factory is MISSING
        if no_default and name not in data:
            raise ConfigError(f"{label}: missing required field {name!r}")
    for name, value in data.items():
        if fields[name].type not in _JSON_TYPES:
            continue  # a nested spec: its own from_dict judges it
        want, words = _JSON_TYPES[fields[name].type]
        if not isinstance(value, want) or (isinstance(value, bool) and want is not bool):
            raise ConfigError(f"{label}: {name} must be {words}, got {value!r}")
    return dict(data)


def _require_finite(spec: Any, label: str) -> None:
    """Reject NaN and infinities in every float field of ``spec``.

    ``json.loads`` accepts ``NaN``/``Infinity``, and NaN fails no ``<``
    test, so the range checks below let it through to a silent wrong
    answer; the flow network also remembers allocations on the premise
    that capacities are finite constants.
    """
    for f in dataclasses.fields(spec):
        if f.type == "float" and not math.isfinite(getattr(spec, f.name)):
            raise ConfigError(
                f"{label}: {f.name} must be a finite number,"
                f" got {getattr(spec, f.name)!r}"
            )


@dataclass(frozen=True)
class TopologySpec:
    """Declarative switch topology of one rail (``None`` = full crossbar).

    The crossbar fabric of the paper's 2-node testbed needs no switch
    model; rails of larger platforms can declare one and the runtime
    (:mod:`repro.hardware.topology`) builds the inter-switch links and
    deterministic routes from it.  Kinds:

    * ``fat_tree`` — two-level folded Clos: ``radix``-port edge switches
      (``radix//2`` hosts down, ``radix//2`` spine uplinks each);
    * ``dragonfly`` — ``groups`` of ``routers`` routers, ``hosts`` hosts
      per router, all-to-all intra-group and one global link per group
      pair (minimal l-g-l routing);
    * ``rail_opt`` — rail-optimized plane: leaves of ``hosts`` hosts, one
      spine per rail, leaf uplinks of ``link_MBps`` (oversubscribable).

    ``link_MBps`` caps every inter-switch link; ``hop_us`` is added to the
    one-way latency once per switch crossed *beyond* the first (the base
    single-switch crossing is already folded into the rail's ``lat_us``).
    """

    kind: str
    radix: int = 0
    groups: int = 0
    routers: int = 0
    hosts: int = 0
    link_MBps: float = 0.0
    hop_us: float = 0.05

    KINDS = ("fat_tree", "dragonfly", "rail_opt")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ConfigError(
                f"unknown topology kind {self.kind!r}; have {list(self.KINDS)}"
            )
        _require_finite(self, f"topology {self.kind}")
        if self.link_MBps <= 0:
            raise ConfigError(f"topology {self.kind}: link_MBps must be positive")
        if self.hop_us < 0:
            raise ConfigError(f"topology {self.kind}: negative hop_us")
        if self.hosts <= 0:
            raise ConfigError(f"topology {self.kind}: hosts per switch must be >= 1")
        if self.kind == "fat_tree" and self.radix < 2:
            raise ConfigError("fat_tree: radix must be >= 2")
        if self.kind == "dragonfly" and (self.groups < 1 or self.routers < 1):
            raise ConfigError("dragonfly: need >= 1 group and >= 1 router per group")

    def replace(self, **changes: Any) -> "TopologySpec":
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TopologySpec":
        return cls(**_checked(cls, data, "topology"))


@dataclass(frozen=True)
class RailSpec:
    """One network rail: a NIC model and the driver API it speaks."""

    name: str
    driver: str
    lat_us: float
    bw_MBps: float
    pio_MBps: float
    eager_threshold: int = 16384
    poll_cost_us: float = 0.30
    post_cost_us: float = 0.50
    handle_cost_us: float = 0.45
    #: receive-side demultiplexing cost per aggregated entry beyond the
    #: first (unpacking an aggregate is cheap but not free).
    entry_cost_us: float = 0.10
    rdv_setup_us: float = 3.0
    header_bytes: int = 16
    ctrl_bytes: int = 32
    #: drivers without true zero-copy receive (e.g. TCP) copy rendezvous
    #: data once more on arrival at memcpy speed.
    zero_copy_recv: bool = True
    #: switch topology of this rail's fabric; None = full crossbar (the
    #: paper's testbed).  Omitted from the serialized form when absent so
    #: pre-topology platform hashes stay stable.
    topology: "TopologySpec | None" = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("rail name must be non-empty")
        _require_finite(self, f"rail {self.name}")
        if self.driver not in DRIVER_APIS:
            raise ConfigError(
                f"rail {self.name}: unknown driver {self.driver!r};"
                f" choose from {', '.join(DRIVER_APIS)}"
            )
        if self.lat_us < 0:
            raise ConfigError(f"rail {self.name}: negative latency")
        for attr in ("bw_MBps", "pio_MBps"):
            if getattr(self, attr) <= 0:
                raise ConfigError(f"rail {self.name}: {attr} must be positive")
        if self.eager_threshold < 0:
            raise ConfigError(f"rail {self.name}: negative eager threshold")
        for attr in (
            "poll_cost_us",
            "post_cost_us",
            "handle_cost_us",
            "entry_cost_us",
            "rdv_setup_us",
        ):
            if getattr(self, attr) < 0:
                raise ConfigError(f"rail {self.name}: negative {attr}")
        if self.header_bytes < 0 or self.ctrl_bytes <= 0:
            raise ConfigError(f"rail {self.name}: bad header/ctrl sizes")

    def replace(self, **changes: Any) -> "RailSpec":
        """Return a copy with fields replaced (ablation helper)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        d = dataclasses.asdict(self)
        if d.get("topology") is None:
            del d["topology"]
        return d

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RailSpec":
        data = _checked(cls, data, "rail")
        topo = data.get("topology")
        if topo is not None and not isinstance(topo, TopologySpec):
            data["topology"] = TopologySpec.from_dict(topo)
        return cls(**data)


@dataclass(frozen=True)
class HostSpec:
    """Host-side model shared by all rails of a node."""

    #: memory-copy bandwidth (aggregation copies, unexpected-queue copies).
    memcpy_MBps: float = 6000.0
    #: effective I/O-bus capacity per direction, shared by all NICs of the
    #: node.  The paper's motherboard is "theoretically able to support
    #: data transfers up to approximately 2 GB/s"; 1850 MB/s effective.
    bus_MBps: float = 1850.0
    #: extra PIO threads beyond the engine pump.  The paper's engine is
    #: single-threaded (0), which is why PIO transfers serialize; its
    #: stated future work — "a multi-threaded implementation that will
    #: process parallel PIO transfers on multiprocessor machines" (§4) —
    #: corresponds to 1 on the dual-core Opteron testbed.
    pio_workers: int = 0

    def __post_init__(self) -> None:
        _require_finite(self, "host")
        if self.memcpy_MBps <= 0 or self.bus_MBps <= 0:
            raise ConfigError("host bandwidths must be positive")
        if self.pio_workers < 0:
            raise ConfigError("pio_workers must be >= 0")

    def replace(self, **changes: Any) -> "HostSpec":
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "HostSpec":
        return cls(**_checked(cls, data, "host"))


@dataclass(frozen=True)
class PlatformSpec:
    """A cluster: ``n_nodes`` identical hosts wired by ``rails``."""

    rails: tuple[RailSpec, ...]
    n_nodes: int = 2
    host: HostSpec = field(default_factory=HostSpec)

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ConfigError(f"need at least 2 nodes, got {self.n_nodes}")
        if self.n_nodes > MAX_NODES:
            raise ConfigError(
                f"n_nodes={self.n_nodes} exceeds the supported maximum of"
                f" {MAX_NODES} (did a byte count end up in a node count?)"
            )
        if not self.rails:
            raise ConfigError("platform needs at least one rail")
        object.__setattr__(self, "rails", tuple(self.rails))
        names = [r.name for r in self.rails]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate rail names: {names}")

    # -- convenience -------------------------------------------------------
    @property
    def n_rails(self) -> int:
        return len(self.rails)

    def rail_index(self, name: str) -> int:
        for i, r in enumerate(self.rails):
            if r.name == name:
                return i
        raise ConfigError(f"unknown rail {name!r}; have {[r.name for r in self.rails]}")

    def __iter__(self) -> Iterator[RailSpec]:
        return iter(self.rails)

    def replace(self, **changes: Any) -> "PlatformSpec":
        return dataclasses.replace(self, **changes)

    def with_rails(self, rails: Sequence[RailSpec]) -> "PlatformSpec":
        return dataclasses.replace(self, rails=tuple(rails))

    def single_rail(self, name: str) -> "PlatformSpec":
        """Restrict the platform to one rail (used by sampling and the
        paper's single-network reference curves)."""
        return self.with_rails([self.rails[self.rail_index(name)]])

    def to_dict(self) -> dict[str, Any]:
        return {
            "n_nodes": self.n_nodes,
            "host": self.host.to_dict(),
            "rails": [r.to_dict() for r in self.rails],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PlatformSpec":
        data = _checked(cls, data, "platform")
        if not isinstance(data["rails"], (list, tuple)):
            raise ConfigError("platform: rails must be a list of rail entries")
        data["rails"] = tuple(RailSpec.from_dict(r) for r in data["rails"])
        data["host"] = HostSpec.from_dict(data.get("host", {}))
        return cls(**data)
