"""The NewMadeleine engine: packets, matching, rendezvous, strategies,
the NIC-driven core scheduler, and the session façade."""

from .gate import Segment
from .matching import ANY_SOURCE, MatchAction, MatchingTable, PostOutcome
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
    "Segment",
    "Payload",
    "PacketWrapper",
    "EagerEntry",
    "RdvReq",
    "RdvAck",
    "DmaChunk",
    "MatchingTable",
    "PostOutcome",
    "MatchAction",
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
