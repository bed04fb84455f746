"""Init-time network sampling — NewMadeleine's ``nm_sampling``.

"According to samplings performed on the different available NICs (this
step is done at the NEWMADELEINE initialization time), an adaptive
stripping ratio can be determined." (§3.4)

:func:`sample_rails` measures every rail of a platform *inside the
simulation*: for each rail it builds a throwaway single-rail session and
runs short rendezvous-sized ping-pongs.  A linear transfer-time model

    ``t(size) = overhead_us + size / bw_MBps``

is least-squares fitted to the measurements; the resulting
:class:`SampleTable` answers the question the final strategy asks,
``ratios(rails)``: how to strip a segment across rails (∝ fitted bw).

Nothing here is hard-coded to Myri-10G/Quadrics: the table is derived from
whatever rails the platform declares, which is what makes the strategy
"generic plug-in" code in the paper's sense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from ..util.errors import ConfigError
from ..util.units import KB, MB

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.spec import PlatformSpec

__all__ = ["RailSample", "SampleTable", "sample_rails", "DEFAULT_SAMPLE_SIZES"]

#: rendezvous-sized sample points (all above any eager threshold).
DEFAULT_SAMPLE_SIZES: tuple[int, ...] = (64 * KB, 256 * KB, 1 * MB, 4 * MB)


@dataclass(frozen=True)
class RailSample:
    """Fitted transfer-time model of one rail."""

    rail_name: str
    points: tuple[tuple[int, float], ...]  # (size, one-way us)
    overhead_us: float
    bw_MBps: float

    @classmethod
    def fit(cls, rail_name: str, points: Sequence[tuple[int, float]]) -> "RailSample":
        """Least-squares fit of ``t = overhead + size/bw`` (closed form about
        the means; ``fsum`` makes it independent of the order of the points)."""
        n = len(points)
        if n < 2:
            raise ConfigError(f"rail {rail_name}: need >= 2 sample points")
        mean_size = math.fsum(s for s, _ in points) / n
        mean_time = math.fsum(t for _, t in points) / n
        spread = math.fsum((s - mean_size) ** 2 for s, _ in points)
        if spread == 0:
            raise ConfigError(f"rail {rail_name}: all sample sizes are equal in {points}")
        slope = math.fsum((s - mean_size) * (t - mean_time) for s, t in points) / spread
        if not (slope > 0 and math.isfinite(slope)):
            raise ConfigError(f"rail {rail_name}: times do not grow with size in {points}")
        intercept = mean_time - slope * mean_size
        return cls(
            rail_name=rail_name,
            points=tuple((int(s), float(t)) for s, t in points),
            overhead_us=max(intercept, 0.0),
            bw_MBps=1.0 / slope,
        )


class SampleTable:
    """Per-rail fitted samples for one platform."""

    def __init__(self, samples: Mapping[str, RailSample]):
        if not samples:
            raise ConfigError("empty sample table")
        self._samples = dict(samples)

    # ------------------------------------------------------------------ #
    def __contains__(self, rail_name: str) -> bool:
        return rail_name in self._samples

    @property
    def rail_names(self) -> list[str]:
        return sorted(self._samples)

    def get(self, rail_name: str) -> RailSample:
        try:
            return self._samples[rail_name]
        except KeyError:
            raise ConfigError(
                f"no sample for rail {rail_name!r}; have {self.rail_names}"
            ) from None

    # ------------------------------------------------------------------ #
    def ratios(self, rail_names: Iterable[str]) -> dict[str, float]:
        """Stripping ratios proportional to fitted bandwidth (sum to 1)."""
        names = list(rail_names)
        bws = [self.get(n).bw_MBps for n in names]
        total = sum(bws)
        return {n: b / total for n, b in zip(names, bws)}

    def __repr__(self) -> str:  # pragma: no cover
        parts = ", ".join(
            f"{s.rail_name}: {s.bw_MBps:.0f}MB/s+{s.overhead_us:.1f}us"
            for s in self._samples.values()
        )
        return f"<SampleTable {parts}>"


def sample_rails(
    spec: "PlatformSpec",
    sizes: Sequence[int] = DEFAULT_SAMPLE_SIZES,
    reps: int = 3,
    warmup: int = 1,
) -> SampleTable:
    """Measure every rail of ``spec`` with single-rail ping-pongs.

    Each rail gets its own throwaway two-node session running the plain
    ``single_rail`` strategy (no optimization, no other NIC polled), just
    like NewMadeleine samples each driver in isolation at start-up.
    """
    # Local imports: sampling sits below Session in the layering but uses
    # it operationally; importing lazily avoids the cycle.
    from ..bench.pingpong import run_pingpong
    from .session import Session

    if len(sizes) < 2:
        raise ConfigError("sampling needs at least two sizes for the fit")
    samples: dict[str, RailSample] = {}
    for rail in spec.rails:
        sub_spec = spec.single_rail(rail.name).replace(n_nodes=2)
        points: list[tuple[int, float]] = []
        for size in sizes:
            session = Session(sub_spec, strategy="single_rail")
            res = run_pingpong(session, size, segments=1, reps=reps, warmup=warmup)
            points.append((size, res.one_way_us))
        samples[rail.name] = RailSample.fit(rail.name, points)
    return SampleTable(samples)
