"""The wrapper's running tallies always equal a walk over its entries.

``PacketWrapper.add`` maintains ``wire_bytes`` / ``data_bytes`` /
``data_count`` so that no later stage re-walks the entries (DESIGN.md
§6i).  The oracle here is written from the entries' own ``wire_size``
methods, independently of ``add``.
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Session, paper_platform
from repro.core.packet import EagerEntry, PacketWrapper, Payload, RdvAck, RdvReq
from repro.core.request import SendRequest
from repro.hardware.presets import GIGE_TCP, MYRI_10G, MYRINET_2000, QUADRICS_QM500, SCI_D33X

DRIVER_SPECS = [QUADRICS_QM500, MYRINET_2000, MYRI_10G, SCI_D33X, GIGE_TCP]  # one per driver, by name


def _walk(entries, header_bytes, ctrl_bytes):
    """(wire_bytes, data_bytes, data_count) recomputed from scratch."""
    wire = data = count = 0
    for e in entries:
        if isinstance(e, EagerEntry):
            wire += e.wire_size(header_bytes)
            data += e.payload.size
            count += 1
        else:
            wire += e.wire_size(ctrl_bytes)
    return wire, data, count


@st.composite
def entries(draw):
    kind = draw(st.sampled_from(["eager", "req", "ack"]))
    if kind == "eager":
        size = draw(st.integers(min_value=0, max_value=70_000))
        return EagerEntry(draw(st.integers(0, 9)), draw(st.integers(0, 99)), Payload.virtual(size))
    if kind == "ack":
        return RdvAck(draw(st.integers(0, 999)))
    lengths = draw(st.lists(st.integers(min_value=1, max_value=1 << 20), min_size=1, max_size=4))
    chunks, offset = [], 0
    for rail, length in enumerate(lengths):
        chunks.append((rail, offset, length))
        offset += length
    return RdvReq(draw(st.integers(0, 999)), 1, 0, offset, tuple(chunks))


@pytest.mark.parametrize("spec", DRIVER_SPECS, ids=lambda s: s.driver)
@given(mix=st.lists(entries(), max_size=24))
@settings(max_examples=60, deadline=None)
def test_tallies_equal_recomputation_after_every_add(spec, mix):
    pw = PacketWrapper(0, 1, 0, spec.header_bytes, spec.ctrl_bytes)
    assert (pw.wire_bytes, pw.data_bytes, pw.data_count) == (0, 0, 0)
    for entry in mix:
        pw.add(entry)
        assert (pw.wire_bytes, pw.data_bytes, pw.data_count) == _walk(
            pw.entries, spec.header_bytes, spec.ctrl_bytes
        )
    assert pw.entries == mix
    assert sum(isinstance(e, EagerEntry) for e in pw.entries) == pw.data_count


def test_driver_made_wrappers_carry_the_rails_framing():
    session = Session(paper_platform(), strategy="aggreg_multirail")
    for driver in session.engine(0).drivers:
        pw = driver.new_wrapper(1)
        assert (pw.src_node, pw.dst_node, pw.rail_index) == (0, 1, driver.rail_index)
        assert pw.header_bytes == driver.spec.header_bytes
        assert pw.ctrl_bytes == driver.spec.ctrl_bytes
        pw.add(EagerEntry(1, 0, Payload.virtual(100)))
        assert pw.wire_bytes == 100 + driver.spec.header_bytes


class _CountingPayload(Payload):
    """A virtual payload that counts how often its size is read."""

    __slots__ = ("reads", "_n")

    def __init__(self, n):
        self.reads = 0
        self._n = n
        self.data = None

    @property
    def size(self):  # shadows the base class's slot
        self.reads += 1
        return self._n


@pytest.mark.parametrize("backlog", [16, 64, 256])
def test_fill_with_eager_visits_each_taken_segment_once(backlog):
    """Aggregating an N-segment backlog costs O(N) size reads, not O(N²):
    the fit test reads the wrapper's tally instead of re-walking it."""
    session = Session(paper_platform(), strategy="aggreg_multirail")
    engine = session.engine(0)
    strategy = engine.strategy
    driver = engine.drivers[strategy.fastest_index]
    payloads = [_CountingPayload(8) for _ in range(backlog)]
    queue = deque(SendRequest(session.sim, 1, 5, seq, p) for seq, p in enumerate(payloads))
    pw = driver.new_wrapper(1)
    taken = strategy.fill_with_eager(pw, driver, queue)
    assert taken == backlog and not queue  # 256 x (8+16) B fits one 16 KB packet
    assert pw.data_count == backlog and pw.data_bytes == 8 * backlog
    reads = [p.reads for p in payloads]
    # one read for the fit test, one for the tally — never one per earlier entry
    assert max(reads) <= 2
    assert sum(reads) <= 2 * backlog
