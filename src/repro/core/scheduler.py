"""The transversal core scheduler — one progress *pump* per node.

This is the architectural heart of the paper (§2): request processing is
disconnected from the API.  Application calls only enqueue segments; a
per-node pump process runs in relationship with **NIC activity**:

1. **poll phase** — every rail's driver is polled (each poll costs
   CPU, even on rails carrying no traffic: that mandatory cost is the
   multi-rail latency penalty of Fig 6).  The pump counts and charges a
   poll of an empty queue itself and enters :meth:`Driver.poll` only for
   a queue that holds a packet;
2. **handle phase** — arrived packets are demultiplexed: eager entries
   matched/delivered, rendezvous requests matched and ACKed, ACKs start
   DMA flows, DMA chunks feed reassembly;
3. **commit phase** — for each driver, fastest rail first, the strategy
   is consulted *just in time* for at most one packet wrapper, which is
   PIO-posted at the driver's cost.  One wrapper per driver per sweep is
   what makes a backlog spread across NICs ("each time a NIC becomes
   idle ... sends the first available segment on the corresponding
   network") while still letting aggregation pack many segments into that
   single wrapper.  A strategy that has said it holds nothing
   (``Strategy.quiet``) is not asked again until something is packed,
   nor is one that has said all it holds waits for a DMA engine
   (``Strategy.dma_bound``) asked for a rail whose DMA engine is busy:
   the paper queries the scheduler when a NIC becomes idle *and there is
   something to send*, not on every turn of the loop.  Which rails a
   strategy may use is its own rule: a pinned one answers None for the
   others.

When a sweep neither received, handled, nor committed anything and no
packet is waiting, the pump blocks on the host's activity signal; every
state change that could enable progress (application submit, packet
arrival, DMA engine released) fires it.  While the application computes
and the NICs are busy, requests therefore accumulate — the paper's
"optimization window" — at zero CPU cost.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Optional

from ..drivers.base import Driver
from ..obs.instruments import FOLD_AT
from ..obs.metrics import Counters
from ..obs.spans import TRACK_FAULTS, TRACK_PUMP
from ..sim.process import Process, spawn
from ..util.errors import ApiError, ProtocolError
from .matching import ANY_SOURCE, Match, MatchingTable
from .packet import DmaChunk, EagerEntry, Payload, PacketWrapper, RdvAck, RdvReq
from .rendezvous import RdvManager
from .request import RecvRequest, SendRequest

if TYPE_CHECKING:  # pragma: no cover
    from .session import Session

__all__ = ["NodeEngine"]

#: ``NodeEngine._retrans`` of an engine that never lost a wrapper (shared,
#: hence immutable; the pump only reads its truth value).
_NO_RETRANS: Any = ()


class NodeEngine:
    """The per-node communication engine: drivers + strategy + pump."""

    def __init__(self, session: "Session", node_id: int, strategy: Any):
        self.session = session
        self.sim = session.sim
        self.platform = session.platform
        self.node_id = node_id
        #: read once: every submit and post checks a node id against it
        self._n_nodes = self.platform.n_nodes
        self.host = self.platform.host(node_id)
        #: the host's copy rate, read once: receive and aggregation copies
        #: cost ``bytes / memcpy_MBps`` µs
        self._memcpy_MBps = self.host.spec.memcpy_MBps
        self.drivers: list[Driver] = [
            Driver(self.platform, rail_index, node_id)
            for rail_index in range(self.platform.n_rails)
        ]
        #: commit/poll order: fastest (lowest-latency) rail first, so that
        #: control handshakes ride the low-latency network.
        self._order = sorted(
            range(len(self.drivers)), key=lambda i: self.drivers[i].latency_us
        )
        self.strategy = strategy
        self.matching = MatchingTable(self._n_nodes)
        self.rdv = RdvManager(self)
        #: next send sequence number per channel ``tag * n_nodes + peer``,
        #: from its first submit (the mirror of ``MatchingTable._recv_seq``)
        self._seq_out: dict[int, int] = {}
        self.counters = Counters()
        #: hot-path instruments, one set per session (sweeps, polls, commits
        #: and parks are counted by their owners, the bag and the drivers)
        self._inst = session.instruments
        self.spans = session.spans
        #: completion-observation sink: adaptive strategies opt in via
        #: ``wants_observations`` and then see every finished PIO post and
        #: drained DMA chunk (repro.core.strategies.adaptive); None for
        #: static strategies, keeping the hooks zero-cost.
        self._observer = strategy if strategy.wants_observations else None
        faults = session.faults
        for drv in self.drivers:
            drv.spans = self.spans
            drv.observer = self._observer
            if faults is not None:
                drv.faults = faults
                drv.health = faults.detected_health(drv.rail_index)
        #: send requests issued by this node, kept only while span tracing
        #: is on (feeds the per-request lifecycle report).
        self.sent_log: list[SendRequest] = []
        #: entries from lost eager wrappers awaiting re-emission, FIFO:
        #: ``(dst_node, entry)`` pairs.  Served before the strategy is
        #: consulted, on any usable rail the head entry fits (made on
        #: the first loss).
        self._retrans: Deque[tuple[int, Any]] = _NO_RETRANS
        #: fault.retries instruments, resolved on first loss only so a
        #: fault-free session registers no fault metrics at all.
        self._m_fault_retries: Optional[list] = None
        self._stopped = False
        strategy.bind(self)
        session._pump_started()
        self.pump: Process = spawn(self.sim, self._pump_loop(), name=f"pump{node_id}")

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    def driver(self, rail_index: int) -> "Driver":
        return self.drivers[rail_index]

    # ------------------------------------------------------------------ #
    # collect layer entry points (called from application processes)
    # ------------------------------------------------------------------ #
    def submit(self, dst_node: int, tag: int, payload: Payload) -> SendRequest:
        """Queue one segment for ``dst_node``; returns its send request —
        the segment itself, which the strategy queues as it is."""
        if type(dst_node) is not int:  # a bool or a float too: not a node id
            raise ApiError(f"node id must be an int, got {dst_node!r}")
        if type(tag) is not int or tag < 0:
            raise ApiError(f"tag must be a non-negative int, got {tag!r}")
        if dst_node == self.node_id:
            raise ApiError(f"node {self.node_id}: send to self is not supported")
        if not 0 <= dst_node < self._n_nodes:
            raise ApiError(f"no such node {dst_node}")
        chan = tag * self._n_nodes + dst_node
        seq = self._seq_out.get(chan, 0)
        self._seq_out[chan] = seq + 1
        size = payload.size
        request = SendRequest(self.sim, dst_node, tag, seq, payload)
        counts = self.counters.counts
        counts["segments_submitted"] += 1
        counts["bytes_submitted"] += size
        if self.spans.enabled:
            self.sent_log.append(request)
            self.spans.instant(
                self.node_id, TRACK_PUMP, "submit", "api", request.submitted_at,
                {"tag": tag, "seq": seq, "bytes": size, "dst": dst_node},
            )
        self.strategy.pack(self, request)
        self.host.wake()
        return request

    def post_recv(self, src_node: int, tag: int) -> RecvRequest:
        """Post one receive for the next segment from ``src_node``/``tag``.

        ``src_node`` may be :data:`~repro.core.matching.ANY_SOURCE`.
        """
        if type(src_node) is not int:
            raise ApiError(f"node id must be an int, got {src_node!r}")
        if type(tag) is not int or tag < 0:
            raise ApiError(f"tag must be a non-negative int, got {tag!r}")
        if src_node == self.node_id:
            raise ApiError(f"node {self.node_id}: receive from self is not supported")
        if src_node != ANY_SOURCE and not 0 <= src_node < self._n_nodes:
            raise ApiError(f"no such node {src_node}")
        request = RecvRequest(self.sim, src_node, tag, -1)
        outcome = self.matching.post_recv(src_node, tag, request)
        if outcome.kind == "eager":
            # Data already sat in the unexpected queue.
            self.counters.add("unexpected_matches")
            assert outcome.payload is not None
            request._deliver(outcome.payload)
        elif outcome.kind == "rdv":
            assert outcome.rdv is not None and outcome.rdv_src is not None
            self.rdv.accept(outcome.rdv_src, outcome.rdv, request)
            self.host.wake()
        return request

    def post_ctrl(self, dst_node: int, entry: Any) -> None:
        """Queue a control entry (used by the rendezvous manager)."""
        self.strategy.pack_ctrl(self, dst_node, entry)
        self.host.wake()

    def stop(self) -> None:
        """Ask the pump to exit at its next wake-up (session teardown)."""
        self._stopped = True
        self.host.wake()

    # ------------------------------------------------------------------ #
    # failover (fault-injection recovery path)
    # ------------------------------------------------------------------ #
    def fault_retry_counter(self, rail_index: int):
        """The ``fault.retries`` instrument of one rail, resolved lazily."""
        if self._m_fault_retries is None:
            self._m_fault_retries = [
                self.session.metrics.counter("fault.retries", rail=d.name)
                for d in self.drivers
            ]
        return self._m_fault_retries[rail_index]

    def on_wrapper_lost(self, pw: PacketWrapper, rail_index: int) -> None:
        """An eager wrapper died on the wire: re-queue its entries.

        Called by the fault injector once the loss is detected.  The
        entries re-emit verbatim on the next rail that can carry them —
        receiver-side matching is seq-based, so out-of-order re-delivery
        is safe — and the strategy is bypassed entirely: it already
        accounted for these segments at the original commit.
        """
        self.fault_retry_counter(rail_index).add()
        from ..obs.log import get_logger

        log = get_logger()
        if log.enabled_for("debug"):
            log.debug(
                "failover.retry",
                node=self.node_id,
                rail=self.drivers[rail_index].name,
                dst=pw.dst_node,
                entries=len(pw.entries),
                t_us=self.sim.now,
            )
        if self.spans.enabled:
            # causal retry edge: detected loss → re-queue of the entries
            self.spans.instant(
                self.node_id, TRACK_FAULTS, "eager_lost", "fault", self.sim.now,
                {
                    "rail": self.drivers[rail_index].name,
                    "dst": pw.dst_node,
                    **pw.identity_args(),
                },
            )
        if self._retrans is _NO_RETRANS:
            self._retrans = deque()
        for entry in pw.entries:
            self._retrans.append((pw.dst_node, entry))
        self.host.wake()

    def _build_retrans(self, driver: "Driver") -> Optional[PacketWrapper]:
        """One wrapper of queued retransmissions that fits ``driver``.

        Returns None when even the queue head does not fit — a
        smaller-threshold surviving rail must leave the queue for a rail
        that can carry it (possibly the original one, after recovery).
        The wrapper carries no send requests: the originals completed
        locally at first post; only delivery is still outstanding.
        """
        dst = self._retrans[0][0]
        pw = driver.new_wrapper(dst)
        while self._retrans:
            peer, entry = self._retrans[0]
            if peer != dst:
                break
            if pw.wire_bytes + pw.wire_size_of(entry) > driver.max_eager_bytes:
                break
            pw.add(entry)
            self._retrans.popleft()
        return pw if pw.entries else None

    # ------------------------------------------------------------------ #
    # packet handling
    # ------------------------------------------------------------------ #
    def _handle_packet(
        self, driver: "Driver", pkt: Any
    ) -> tuple[float, list[Match]]:
        """Demultiplex one arrived packet.

        Returns ``(cpu_cost_us, matches)``: the pump charges the cost,
        *then* carries out the matches — plain ``(request, payload, rdv)``
        tuples from the matching table — (and hands a DMA chunk on to
        reassembly) so that requests complete at the correct simulated
        time.  One arrival may enable several matches (a wildcard tag
        releasing a chain of arrivals), and may enable rendezvous accepts
        even when the arrival itself was eager data.
        """
        spec = driver.spec
        counts = self.counters.counts
        if isinstance(pkt, PacketWrapper):
            counts["packets_handled"] += 1
            cost = spec.handle_cost_us
            cost += max(0, len(pkt.entries) - 1) * spec.entry_cost_us
            if pkt.data_count:
                counts["eager_rx"] += pkt.data_count
            matches: list[Match] = []
            src = pkt.src_node
            arrive = self.matching.arrive
            memcpy_MBps = self._memcpy_MBps
            for entry in pkt.entries:
                if isinstance(entry, EagerEntry):
                    payload = entry.payload
                    cost += payload.size / memcpy_MBps
                    found = arrive(src, entry.tag, entry.seq, "eager", payload)
                    if not found:
                        counts["unexpected_eager"] += 1
                elif isinstance(entry, RdvReq):
                    counts["rdv_req_rx"] += 1
                    found = arrive(src, entry.tag, entry.seq, "rdv", None, entry)
                    if not found:
                        counts["rdv_unexpected"] += 1
                elif isinstance(entry, RdvAck):
                    counts["rdv_ack_rx"] += 1
                    cost += self.rdv.on_ack(entry)
                    continue
                else:  # pragma: no cover - defensive
                    raise ProtocolError(f"unknown entry {entry!r}")
                matches += found
            return cost, matches
        if isinstance(pkt, DmaChunk):
            counts["dma_chunks_rx"] += 1
            cost = spec.handle_cost_us
            if not spec.zero_copy_recv:
                cost += pkt.payload.size / self._memcpy_MBps
            return cost, []
        raise ProtocolError(f"node {self.node_id}: unknown packet {pkt!r}")

    # ------------------------------------------------------------------ #
    # the pump
    # ------------------------------------------------------------------ #
    def _stamp_first_commits(self, pw: PacketWrapper, rail_idx: int, now: float) -> None:
        """Record submit→commit latency for every request riding ``pw``.

        Eager sends sit in ``pw.send_requests``; a rendezvous send's first
        commit is the wrapper carrying its RDV_REQ control entry (none
        rides a wrapper of eager data only).
        """
        hist = self._inst.commit_latency_us[rail_idx]
        pending = hist.pending
        for req in pw.send_requests:
            if req.first_commit_at is None:
                req.first_commit_at = now
                pending.append(now - req.submitted_at)
        if pw.data_count != len(pw.entries):
            for entry in pw.entries:
                if isinstance(entry, RdvReq):
                    sreq = self.rdv.send_request(entry.req_id)
                    if sreq is not None and sreq.first_commit_at is None:
                        sreq.first_commit_at = now
                        pending.append(now - sreq.submitted_at)
        if len(pending) >= FOLD_AT:
            hist.fold()

    def _pump_loop(self):
        # per-engine constants, read once; ``tracing`` cannot change while
        # the pump runs (the recorder is fixed at session construction),
        # nor can a host's PIO worker count or a rail's poll cost
        spans = self.spans
        tracing = spans.enabled
        node = self.node_id
        session = self.session
        sim = self.sim
        host = self.host
        pio_workers = host.has_pio_workers
        strategy = self.strategy
        observer = self._observer
        memcpy_MBps = self._memcpy_MBps
        faulted = session.faults is not None
        counts = self.counters.counts
        inst = self._inst
        drivers = self.drivers
        rails = [
            (idx, drivers[idx], drivers[idx].nic, drivers[idx].spec.poll_cost_us,
             inst.poll_idle_us[idx])
            for idx in self._order
        ]
        n_rails = len(rails)
        # Untraced and unfaulted, with no PIO worker, a strategy with
        # nothing askable — quiet, or DMA-bound with every DMA engine
        # taken — leaves the commit phase nothing to do: no rail is asked,
        # and no NIC's eager path can still be busy (the pump waited out
        # its own last PIO copy, and the polls since took time).  The
        # per-rail skips below reach the same answer, but walking the rails
        # to find it takes more bytecodes per operation for no fewer calls:
        # +4.6 % on hostbench's ``flood_rdv``, +2.1 % on
        # ``collectives_p1024``, +0.9 % on ``figures`` and ``flood_eager``.
        lean = not (tracing or faulted or pio_workers) and sum([r[3] for r in rails]) > 0
        # --- parking: active-set scheduling ---------------------------
        # An idle pump blocks on the host's activity signal, at zero
        # cost in events, until a submit, a packet or a DMA release
        # wakes it.  It is idle before its first sweep when nothing is
        # queued, awaiting retransmission or arrived (the untouched
        # nodes of a large platform), and after a sweep that made no
        # progress.  The extra no-progress sweep after a busy one always
        # runs: its in-flight polls are what drain packets arriving
        # mid-sweep at the historical timestamps.
        idle = not (self._retrans or strategy.backlog)
        while not self._stopped:
            if idle:
                # park unless a packet is already waiting on some NIC
                for _, _, nic, _, _ in rails:
                    if nic.rx_queue:
                        break
                else:
                    counts["pump_parks"] += 1
                    session._active_pumps -= 1
                    yield host.activity
                    session._active_pumps += 1
                    if session._active_pumps > session._peak_active:
                        session._peak_active = session._active_pumps
                    counts["pump_wakeups"] += 1
                    if self._stopped:
                        break
            counts["sweeps"] += 1
            counts["polls"] += n_rails
            progressed = False
            sweep_t0 = sim.now
            if tracing:
                sweep = spans.begin(node, TRACK_PUMP, "sweep", "sweep", sweep_t0)
            # --- poll phase -------------------------------------------
            arrived: Optional[list[tuple["Driver", Any]]] = None
            for _, driver, nic, poll_cost, idle_us in rails:
                if nic.rx_queue:
                    cost, pkts = driver.poll()
                    if arrived is None:
                        arrived = []
                    for pkt in pkts:
                        arrived.append((driver, pkt))
                else:
                    # what Driver.poll does for an empty queue
                    driver.polls += 1
                    idle_us.value += poll_cost
                    cost, pkts = poll_cost, ()
                if tracing:
                    span = spans.begin(
                        node, TRACK_PUMP, "poll", "poll", sim.now,
                        {"rail": driver.name, "pkts": len(pkts)},
                    )
                if cost > 0:
                    yield cost
                if tracing:
                    spans.end(span, sim.now)
            # --- handle phase -----------------------------------------
            for driver, pkt in arrived or ():
                cost, matches = self._handle_packet(driver, pkt)
                if tracing:
                    span = spans.begin(
                        node, TRACK_PUMP, "handle", "handle", sim.now,
                        {"rail": driver.name, "kind": type(pkt).__name__},
                    )
                if cost > 0:
                    yield cost
                if tracing:
                    spans.end(span, sim.now)
                # the cost has elapsed: what the packet enabled happens now
                if isinstance(pkt, DmaChunk):
                    self.rdv.on_chunk(pkt)
                for request, payload, rdv in matches:
                    if rdv is None:
                        request._deliver(payload)
                    else:
                        self.rdv.accept(request.peer, rdv, request)
                progressed = True
            # --- commit phase (one wrapper per driver per sweep) -------
            # (skipped whole when nothing is askable: see ``lean``)
            for idx, driver, nic, _, _ in (
                ()
                if lean
                and not self._retrans
                and (strategy.quiet or (strategy.dma_bound and host.dma_busy == n_rails))
                else rails
            ):
                if faulted and not driver.usable:
                    # detected-down rail: never consulted, never posted to
                    continue
                if nic.tx_busy_until > sim.now:
                    # an offloaded PIO copy still owns this NIC's eager
                    # path; revisit when it frees
                    sim.at(nic.tx_busy_until, host.wake)
                    continue
                # ask only who can answer: a quiet strategy's answer is None
                # for every driver, a DMA-bound one's for a driver whose DMA
                # engine is taken — neither is asked, nor its backlog read
                # (the decision is still recorded).  Retransmissions pending,
                # the pump asks as it always did.
                retrans = self._retrans
                ask = retrans or not (strategy.quiet or (strategy.dma_bound and nic.dma_busy))
                if not (ask or tracing):
                    continue
                backlog = 0 if strategy.quiet and not retrans else strategy.backlog
                # failover retransmissions jump the strategy queue: these
                # entries were already scheduled once and must reach the
                # wire before fresh traffic widens the reorder window.
                pw = self._build_retrans(driver) if retrans else None
                if pw is None:
                    if ask:
                        pw = strategy.try_and_commit(self, driver)
                    if tracing:
                        spans.instant(
                            node, TRACK_PUMP, "decision", "decision", sim.now,
                            {
                                "rail": driver.name,
                                "backlog": backlog,
                                "committed": pw is not None,
                            },
                        )
                if pw is None:
                    continue
                if tracing:
                    span = spans.begin(
                        node, TRACK_PUMP, "commit", "commit", sim.now,
                        {
                            "rail": driver.name,
                            "entries": len(pw.entries),
                            "dst": pw.dst_node,
                            **pw.identity_args(),
                        },
                    )
                if pw.data_count > 1:
                    # aggregation copy into one contiguous buffer
                    counts["aggregated_packets"] += 1
                    counts["aggregated_segments"] += pw.data_count
                    yield pw.data_bytes / memcpy_MBps
                post_t0 = sim.now
                offloaded = False
                if pio_workers:
                    # §4 future work: offload the PIO copy to a worker thread
                    post, copy = driver.eager_cost_parts(pw)
                    offloaded = host.try_claim_pio_worker(post_t0 + post, copy)
                self._stamp_first_commits(pw, idx, post_t0)
                wire_bytes = pw.wire_bytes
                # one append per histogram (``Histogram.pending``), no frame;
                # one local for all three keeps every pump's frame small
                hist = inst.wrapper_bytes[idx]
                hist.pending.append(wire_bytes)
                if len(hist.pending) >= FOLD_AT:
                    hist.fold()
                hist = inst.poll_gap_us
                hist.pending.append(post_t0 - sweep_t0)
                if len(hist.pending) >= FOLD_AT:
                    hist.fold()
                hist = inst.window_depth
                hist.pending.append(backlog)
                if len(hist.pending) >= FOLD_AT:
                    hist.fold()
                cost = driver.post_eager(pw, copy_offloaded=offloaded)
                counts["packets_committed"] += 1
                if offloaded:
                    counts["pio_offloads"] += 1
                yield cost
                if tracing:
                    spans.end(span, sim.now)
                if observer is not None:
                    observer.observe(idx, "pio", wire_bytes, post_t0, sim.now)
                if offloaded:
                    # requests complete when the worker finishes the copy
                    sim.schedule(
                        copy,
                        lambda reqs=tuple(pw.send_requests): [r._complete() for r in reqs],
                    )
                else:
                    for req in pw.send_requests:
                        req._complete()
                progressed = True
            if tracing:
                spans.end(sweep, sim.now)
            idle = not progressed
        session._pump_stopped()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<NodeEngine node={self.node_id} strategy={self.strategy.name}>"
