"""repro — a reproduction of *High-Performance Multi-Rail Support with the
NewMadeleine Communication Library* (Aumage, Brunet, Mercier, Namyst;
HCW/IPDPS 2007) as a discrete-event simulation study.

The package rebuilds the full stack the paper depends on:

* :mod:`repro.sim` — deterministic event kernel with max-min fair
  flow-level bandwidth sharing;
* :mod:`repro.hardware` — hosts, NICs, I/O buses, rails (calibrated
  Myri-10G and Quadrics presets);
* :mod:`repro.drivers` — the transmit layer: one driver per NIC, for
  each of the five network APIs of §2 (Elan, GM-2, MX, SiSCI, TCP);
* :mod:`repro.core` — the NewMadeleine engine: NIC-driven core scheduler,
  pluggable strategies (aggregation, greedy balancing, adaptive packet
  stripping), rendezvous, matching, init-time sampling;
* :mod:`repro.api` / :mod:`repro.mpi` — the collect-layer API and a small
  message-passing layer on top;
* :mod:`repro.bench` — the ping-pong harness and one runner per paper
  figure (Figs 2-7).

Quickstart::

    from repro import Session, paper_platform, run_pingpong

    session = Session(paper_platform(), strategy="aggreg_multirail")
    print(run_pingpong(session, size=8, segments=2).one_way_us)
"""

from .util.lazy import lazy_exports

__version__ = "1.0.0"

# resolved on first use: ``import repro.core.session`` loads what a session
# needs, not the benchmark harness and the fault layer
__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        ".core.session": ("Session",),
        ".core.matching": ("ANY_SOURCE",),
        ".hardware.spec": ("PlatformSpec", "RailSpec", "HostSpec"),
        ".hardware.presets": (
            "paper_platform",
            "single_rail_platform",
            "MYRI_10G",
            "QUADRICS_QM500",
            "SCI_D33X",
            "GIGE_TCP",
            "IB_DDR",
        ),
        ".bench.pingpong": ("run_pingpong", "PingPongResult"),
        ".core.sampling": ("sample_rails", "SampleTable"),
        ".core.strategies": (
            "available_strategies",
            "make_strategy",
            "register_strategy",
        ),
        ".faults.plan": ("FaultEvent", "FaultPlan", "random_plan"),
        ".util.errors": ("ReproError",),
    },
)
__all__.append("__version__")
