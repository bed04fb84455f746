"""Deterministic fault plans — the schedule of what breaks, and when.

A :class:`FaultPlan` is a seeded, replayable list of :class:`FaultEvent`\\ s
executed against the simulation clock by
:class:`~repro.faults.injector.FaultInjector`.  Plans serialize to JSON so
a failing chaos run can ship its exact failure schedule as an artifact and
be replayed bit-identically (see ``repro chaos --save-failing``).

Event kinds
-----------
``down``
    The rail is physically cut at ``at_us`` for ``duration_us``
    microseconds (packets and DMA flows in flight are lost; nothing can be
    sent).  Senders *detect* the outage only after the injector's
    detection delay — the window in which traffic is silently lost.
``degrade``
    The rail's DMA bandwidth is scaled by ``factor`` (0 < factor <= 1) and
    its one-way latency by ``lat_factor`` (>= 1) for ``duration_us``.
    Detection triggers init-time re-sampling so stripping ratios adapt.
``drop``
    The next ``count`` eager posts on the rail fail at the sender
    (transient send error); the engine re-queues the lost entries.
``dup``
    The next ``count`` DMA chunks delivered over the rail arrive twice —
    the receiver must tolerate the duplicate (models a spurious
    retransmission after a lost acknowledgement).
``flap``
    Sugar for ``cycles`` short ``down`` events of ``duration_us`` each,
    spaced ``period_us`` apart (a flapping link); expanded by
    :meth:`FaultPlan.normalized`.

JSON schema (documented in README "Fault injection & chaos testing")::

    {
      "seed": 42,                      # optional; provenance only
      "detect_us": 10.0,               # optional; failure-detection delay
      "events": [
        {"kind": "down",    "at_us": 500.0, "rail": "myri10g",
         "duration_us": 400.0},
        {"kind": "degrade", "at_us": 100.0, "rail": "qsnet",
         "duration_us": 2000.0, "factor": 0.5, "lat_factor": 1.0},
        {"kind": "drop",    "at_us": 250.0, "rail": "myri10g", "count": 2},
        {"kind": "dup",     "at_us": 300.0, "rail": "qsnet",   "count": 1},
        {"kind": "flap",    "at_us": 800.0, "rail": "myri10g",
         "duration_us": 50.0, "period_us": 200.0, "cycles": 3}
      ]
    }
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Optional, Sequence

from ..util.config import read_json_objects
from ..util.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.spec import PlatformSpec

__all__ = ["FaultEvent", "FaultPlan", "random_plan", "FAULT_KINDS"]

FAULT_KINDS = ("down", "degrade", "drop", "dup", "flap")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault against one rail."""

    kind: str
    at_us: float
    rail: str
    duration_us: Optional[float] = None
    factor: Optional[float] = None
    lat_factor: Optional[float] = None
    count: Optional[int] = None
    period_us: Optional[float] = None
    cycles: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(f"unknown fault kind {self.kind!r}; have {FAULT_KINDS}")
        if self.at_us < 0:
            raise ConfigError(f"fault at negative time {self.at_us}")
        if not self.rail:
            raise ConfigError("fault event needs a rail name")
        if self.kind in ("down", "degrade", "flap"):
            if self.duration_us is None or self.duration_us <= 0:
                raise ConfigError(f"{self.kind} fault needs a positive duration_us")
        if self.kind == "degrade":
            if self.factor is None or not 0 < self.factor <= 1.0:
                raise ConfigError("degrade fault needs factor in (0, 1]")
            if self.lat_factor is not None and self.lat_factor < 1.0:
                raise ConfigError("degrade lat_factor must be >= 1")
        if self.kind in ("drop", "dup"):
            if self.count is None or self.count < 1:
                raise ConfigError(f"{self.kind} fault needs count >= 1")
        if self.kind == "flap":
            if self.period_us is None or self.period_us <= (self.duration_us or 0):
                raise ConfigError("flap fault needs period_us > duration_us")
            if self.cycles is None or self.cycles < 1:
                raise ConfigError("flap fault needs cycles >= 1")

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {"kind": self.kind, "at_us": self.at_us, "rail": self.rail}
        for key in ("duration_us", "factor", "lat_factor", "count", "period_us", "cycles"):
            value = getattr(self, key)
            if value is not None:
                d[key] = value
        return d

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultEvent":
        known = {
            "kind", "at_us", "rail", "duration_us", "factor", "lat_factor",
            "count", "period_us", "cycles",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown fault-event fields {sorted(unknown)}")
        return cls(**dict(data))


class FaultPlan:
    """An ordered, serializable schedule of fault events."""

    #: default failure-detection delay: how long after a physical
    #: transition the drivers' health state machine notices it.
    DEFAULT_DETECT_US = 10.0

    def __init__(
        self,
        events: Sequence[FaultEvent] = (),
        seed: Optional[int] = None,
        detect_us: Optional[float] = None,
    ):
        self.events = tuple(sorted(events, key=lambda e: (e.at_us, e.rail, e.kind)))
        #: provenance: the seed :func:`random_plan` was called with (if any).
        self.seed = seed
        if detect_us is not None and detect_us < 0:
            raise ConfigError(f"negative detection delay {detect_us}")
        self.detect_us = float(detect_us) if detect_us is not None else self.DEFAULT_DETECT_US

    # ------------------------------------------------------------------ #
    @property
    def empty(self) -> bool:
        return not self.events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def rails(self) -> set[str]:
        return {e.rail for e in self.events}

    def validate(self, spec: "PlatformSpec") -> None:
        """Check every event names a rail the platform actually has."""
        names = {r.name for r in spec.rails}
        for event in self.events:
            if event.rail not in names:
                raise ConfigError(
                    f"fault plan targets unknown rail {event.rail!r};"
                    f" platform has {sorted(names)}"
                )

    def normalized(self) -> "FaultPlan":
        """Expand ``flap`` events into their individual ``down`` cycles."""
        out: list[FaultEvent] = []
        for event in self.events:
            if event.kind != "flap":
                out.append(event)
                continue
            assert event.cycles is not None and event.period_us is not None
            for i in range(event.cycles):
                out.append(
                    FaultEvent(
                        kind="down",
                        at_us=event.at_us + i * event.period_us,
                        rail=event.rail,
                        duration_us=event.duration_us,
                    )
                )
        return FaultPlan(out, seed=self.seed, detect_us=self.detect_us)

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {"events": [e.to_dict() for e in self.events]}
        if self.seed is not None:
            d["seed"] = self.seed
        if self.detect_us != self.DEFAULT_DETECT_US:
            d["detect_us"] = self.detect_us
        return d

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        events = data.get("events", ())
        if not isinstance(events, (list, tuple)) or not all(
            isinstance(e, Mapping) for e in events
        ):
            raise ConfigError("fault-plan 'events' must be a list of objects")
        try:
            return cls(
                events=[FaultEvent.from_dict(e) for e in events],
                seed=data.get("seed"),
                detect_us=data.get("detect_us"),
            )
        except (TypeError, ValueError) as exc:  # a missing or mistyped field
            raise ConfigError(f"malformed fault plan: {exc}") from None

    def save(self, path: str) -> str:
        with open(path, "w") as fh:
            fh.write(self.to_json(indent=1) + "\n")
        return path

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        ((where, data),) = read_json_objects(path, ConfigError)
        try:
            return cls.from_dict(data)
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return self.events == other.events and self.detect_us == other.detect_us

    def __repr__(self) -> str:  # pragma: no cover
        return f"<FaultPlan {len(self.events)} events seed={self.seed}>"


def random_plan(
    seed: int,
    spec: "PlatformSpec",
    horizon_us: float = 5000.0,
) -> FaultPlan:
    """Generate a seeded, replayable random fault plan for ``spec``.

    Safety constraints the chaos invariants rely on:

    * every outage is finite (rails always recover), and
    * at most one rail is down at any instant — traffic is never wedged
      with zero surviving rails, and single-rail strategies always get
      their rail back.
    """
    if horizon_us <= 0:
        raise ConfigError(f"non-positive horizon {horizon_us}")
    rng = random.Random(seed)
    rails = [r.name for r in spec.rails]
    events: list[FaultEvent] = []
    n_events = rng.randint(1, 6)
    #: end time of the latest outage issued so far (downs never overlap).
    down_free_at = 0.0
    for _ in range(n_events):
        rail = rng.choice(rails)
        kind = rng.choice(("down", "degrade", "drop", "dup", "flap"))
        at = round(rng.uniform(0.05, 0.75) * horizon_us, 3)
        if kind == "down":
            duration = round(rng.uniform(0.02, 0.15) * horizon_us, 3)
            at = max(at, down_free_at)
            down_free_at = at + duration
            events.append(FaultEvent("down", at, rail, duration_us=duration))
        elif kind == "flap":
            duration = round(rng.uniform(0.01, 0.03) * horizon_us, 3)
            period = round(duration + rng.uniform(0.02, 0.06) * horizon_us, 3)
            cycles = rng.randint(2, 3)
            at = max(at, down_free_at)
            down_free_at = at + cycles * period
            events.append(
                FaultEvent(
                    "flap", at, rail,
                    duration_us=duration, period_us=period, cycles=cycles,
                )
            )
        elif kind == "degrade":
            events.append(
                FaultEvent(
                    "degrade", at, rail,
                    duration_us=round(rng.uniform(0.1, 0.4) * horizon_us, 3),
                    factor=round(rng.uniform(0.3, 0.8), 3),
                    lat_factor=round(rng.uniform(1.0, 2.0), 3),
                )
            )
        elif kind == "drop":
            events.append(FaultEvent("drop", at, rail, count=rng.randint(1, 3)))
        else:
            events.append(FaultEvent("dup", at, rail, count=rng.randint(1, 2)))
    return FaultPlan(events, seed=seed)
