"""The NewMadeleine engine: packets, matching, rendezvous, strategies,
the NIC-driven core scheduler, and the session façade."""

from .matching import ANY_SOURCE, MatchingTable, PostOutcome
from .packet import DmaChunk, EagerEntry, PacketWrapper, Payload, RdvAck, RdvReq
from .reassembly import ReassemblyBuffer
from .rendezvous import RdvManager
from .request import MultiRequest, RecvRequest, Request, SendRequest
from .sampling import DEFAULT_SAMPLE_SIZES, RailSample, SampleTable, sample_rails
from .scheduler import NodeEngine
from .session import Session

__all__ = [
    "Session",
    "NodeEngine",
    "Payload",
    "PacketWrapper",
    "EagerEntry",
    "RdvReq",
    "RdvAck",
    "DmaChunk",
    "MatchingTable",
    "PostOutcome",
    "ANY_SOURCE",
    "ReassemblyBuffer",
    "RdvManager",
    "Request",
    "SendRequest",
    "RecvRequest",
    "MultiRequest",
    "RailSample",
    "SampleTable",
    "sample_rails",
    "DEFAULT_SAMPLE_SIZES",
]
