"""Unit tests for the metrics registry (counters, gauges, histograms)."""

import json
import re
from pathlib import Path

import pytest

from repro import Session, run_pingpong
from repro.core.scheduler import NodeEngine
from repro.obs import SCHEMA, Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.metrics import render_labels
from repro.sim.process import Timeout
from repro.util.units import KB, MB

from . import instruments_capture


class TestHistogram:
    def test_le_bucket_semantics(self):
        """Edge values land in the bucket they name (le semantics)."""
        h = Histogram("t", edges=(1.0, 10.0))
        for v in (0.5, 1.0, 1.5, 10.0, 11.0):
            h.observe(v)
        assert h.counts == [2, 2, 1]
        assert h.count == 5
        assert h.total == pytest.approx(24.0)
        assert h.snapshot()["min"] == 0.5 and h.snapshot()["max"] == 11.0

    def test_exact_edges_every_bucket(self):
        edges = (0.1, 0.3, 1.0, 3.0)
        h = Histogram("t", edges=edges)
        for e in edges:
            h.observe(e)
        assert h.counts == [1, 1, 1, 1, 0]

    def test_overflow_bucket(self):
        h = Histogram("t", edges=(1.0,))
        h.observe(1e9)
        assert h.counts == [0, 1]

    def test_zero_and_negative_land_in_first_bucket(self):
        h = Histogram("t", edges=(1.0, 2.0))
        h.observe(0.0)
        h.observe(-5.0)
        assert h.counts == [2, 0, 0]

    def test_mean(self):
        h = Histogram("t", edges=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0):
            h.observe(v)
        assert h.mean == pytest.approx(6.5 / 4)

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError):
            Histogram("t", edges=())
        with pytest.raises(ValueError):
            Histogram("t", edges=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("t", edges=(1.0, 1.0))

    def test_snapshot_shape(self):
        h = Histogram("t", edges=(1.0,))
        h.observe(0.5)
        snap = h.snapshot()
        assert snap["edges"] == [1.0]
        assert snap["counts"] == [1, 0]
        assert snap["count"] == 1 and snap["min"] == snap["max"] == 0.5


class TestRegistry:
    def test_get_or_create_identity(self):
        reg = MetricsRegistry()
        a = reg.counter("engine.sweeps")
        b = reg.counter("engine.sweeps")
        assert a is b
        assert len(reg) == 1

    def test_labels_distinguish_instruments(self):
        reg = MetricsRegistry()
        a = reg.counter("engine.poll.count", rail="myri10g")
        b = reg.counter("engine.poll.count", rail="qsnet2")
        assert a is not b
        assert a.full_name == "engine.poll.count{rail=myri10g}"
        assert reg.names() == {"engine.poll.count"}

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("engine.sweeps")
        with pytest.raises(TypeError):
            reg.gauge("engine.sweeps")

    def test_histogram_edge_mismatch_raises(self):
        """Asking again with other edges names both sets; it used to hand
        back the first histogram silently."""
        reg = MetricsRegistry()
        h = reg.histogram("custom.h", edges=(1.0, 2.0, 3.0))
        assert reg.histogram("custom.h", edges=(1, 2, 3)) is h  # equal edges
        with pytest.raises(ValueError, match=r"\(1\.0, 2\.0, 3\.0\).*\(10\.0, 20\.0\)"):
            reg.histogram("custom.h", edges=(10, 20))
        reg.histogram("engine.window.depth")
        with pytest.raises(ValueError, match="already registered with edges"):
            reg.histogram("engine.window.depth", edges=(5.0,))

    def test_session_bundle_keeps_strict_and_kind_checks(self, plat2):
        """The per-rail-set layout builds straight into the registry, and
        still refuses what ``_get`` refuses."""
        from repro.obs.metrics import EngineInstruments

        reg = MetricsRegistry()
        reg.gauge("engine.sweeps")
        with pytest.raises(TypeError, match="already registered as Gauge"):
            EngineInstruments(reg, plat2.rails)
        reg = MetricsRegistry()
        reg.histogram("engine.window.depth", edges=(5.0,))
        with pytest.raises(ValueError, match="already registered with edges"):
            EngineInstruments(reg, plat2.rails)
        reg = MetricsRegistry(strict=True)
        first = EngineInstruments(reg, plat2.rails)
        again = EngineInstruments(reg, plat2.rails)  # get, not create
        assert again.wrapper_bytes == first.wrapper_bytes and len(reg) == 21
        assert reg.names() <= set(SCHEMA)
        fresh = MetricsRegistry()
        EngineInstruments(fresh, plat2.rails)
        assert list(fresh._metrics) == list(reg._metrics)  # same keys, same order

    def test_histogram_buckets_from_schema(self):
        reg = MetricsRegistry()
        h = reg.histogram("engine.commit.latency_us")
        assert h.edges == SCHEMA["engine.commit.latency_us"].buckets
        with pytest.raises(KeyError):
            reg.histogram("no.such.histogram")  # no declared buckets

    def test_strict_mode_rejects_undeclared(self):
        reg = MetricsRegistry(strict=True)
        with pytest.raises(KeyError):
            reg.counter("custom.thing")
        reg2 = MetricsRegistry()  # permissive by default
        reg2.counter("custom.thing").add(3)
        assert reg2.undeclared() == {"custom.thing"}

    def test_merge_inplace_sums(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("engine.sweeps").add(2)
        b.counter("engine.sweeps").add(3)
        b.gauge("active.engines_built").set(7)
        ha = a.histogram("engine.window.depth")
        hb = b.histogram("engine.window.depth")
        ha.observe(1.0)
        hb.observe(100.0)
        a.merge_inplace(b)
        assert a.counter("engine.sweeps").value == 5
        assert a.gauge("active.engines_built").value == 7
        merged = a.histogram("engine.window.depth")
        assert merged.count == 2
        assert merged.snapshot()["min"] == 1.0 and merged.snapshot()["max"] == 100.0
        # source untouched
        assert b.counter("engine.sweeps").value == 3

    def test_merge_inplace_edge_mismatch(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("x", edges=(1.0,))
        b.histogram("x", edges=(2.0,))
        with pytest.raises(ValueError):
            a.merge_inplace(b)

    def test_render_labels(self):
        assert render_labels("n", ()) == "n"
        assert render_labels("n", (("a", "1"), ("b", "2"))) == "n{a=1,b=2}"


class TestEngineMetrics:
    def test_engine_emits_only_declared_names(self, plat2):
        session = Session(plat2, strategy="greedy")
        run_pingpong(session, 1 * MB, segments=2, reps=1)
        assert session.metrics.undeclared() == set()
        assert session.metrics.names() <= set(SCHEMA)

    def test_every_declared_name_has_an_emitter(self):
        """A ``SCHEMA`` name nothing emits is a dead metric: each one is in
        the engines' instrument bundle or registered by its literal name."""
        from repro.obs.metrics import EngineInstruments

        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        text = "\n".join(path.read_text() for path in src.rglob("*.py"))
        emitted = set(re.findall(r'\.(?:counter|gauge|histogram)\(\s*"([\w.]+)"', text))
        emitted |= {name for _, _, name, _ in EngineInstruments._FAMILIES}
        emitted |= {name for name, _ in EngineInstruments._ACTIVE}
        assert set(SCHEMA) - emitted == set()

    def test_engine_bags_use_only_declared_counter_names(self, plat2):
        from repro import paper_platform, random_plan
        from repro.bench.flood import run_flood
        from repro.mpi.collectives import multilane_allreduce
        from repro.mpi.comm import Communicator
        from repro.obs.metrics import ENGINE_COUNTER_NAMES

        eager = Session(plat2, strategy="aggreg_multirail")
        run_pingpong(eager, 64, segments=4, reps=3)
        rdv = Session(plat2, strategy="split_balance")
        run_flood(rdv, 256 * 1024, count=16, window=4)
        coll = Session(paper_platform(n_nodes=16), strategy="aggreg_multirail")
        comm = Communicator(coll)
        for rank in range(16):
            coll.spawn(multilane_allreduce(comm.endpoint(rank), [float(rank)] * 4))
        coll.run_until_idle()
        faulted = Session(
            plat2, strategy="greedy", faults=random_plan(3, plat2, horizon_us=2000.0)
        )
        run_flood(faulted, 64 * 1024, count=16, window=4)
        assert faulted.metrics.counter("fault.events").value > 0
        for session in (eager, rdv, coll, faulted):
            for engine in session.engines.built():
                assert engine.counters["sweeps"] > 0
                assert set(engine.counters.counts) <= ENGINE_COUNTER_NAMES

    def test_poll_tax_counters_per_rail(self, session2):
        run_pingpong(session2, 64, reps=2)
        m = session2.metrics
        # aggreg_multirail sends small messages on one rail only; the other
        # rail's polls all come back empty — the Fig 6 penalty.
        idle = {
            inst.labels[0][1]: inst.value
            for inst in m
            if isinstance(inst, Counter) and inst.name == "engine.poll.idle_us"
        }
        assert set(idle) == {"myri10g", "qsnet2"}
        assert all(v > 0 for v in idle.values())

    def test_commit_latency_histogram_populated(self, plat2):
        session = Session(plat2, strategy="greedy")
        run_pingpong(session, 4096, segments=2, reps=1)
        hists = [
            inst
            for inst in session.metrics
            if isinstance(inst, Histogram) and inst.name == "engine.commit.latency_us"
        ]
        assert hists and sum(h.count for h in hists) > 0
        for h in hists:
            assert sum(h.counts) == h.count

    @pytest.mark.parametrize("size", [4 * KB, 256 * KB])
    def test_a_commit_latency_lies_inside_its_request(self, plat2, monkeypatch, size):
        """Each commit latency the pump records is never negative and never
        longer than its request lived (``completed_at - submitted_at``).
        A commit may stamp several requests, so each commit's latencies
        must fit its requests' lifetimes one to one, smallest to smallest.
        The sends start well after t = 0, eager at 4 KB and rendezvous at
        256 KB."""
        session = Session(plat2, strategy="aggreg_multirail")
        sends, recorded = [], []
        stamp = NodeEngine._stamp_first_commits

        def stamping(engine, pw, rail_idx, now):
            pending = engine._inst.commit_latency_us[rail_idx].pending
            before, unstamped = len(pending), [r for r in sends if r.first_commit_at is None]
            stamp(engine, pw, rail_idx, now)
            stamped = [r for r in unstamped if r.first_commit_at is not None]
            recorded.append((pending[before:], stamped))

        monkeypatch.setattr(NodeEngine, "_stamp_first_commits", stamping)

        def sender():
            yield Timeout(250.0)
            for tag in range(12):
                sends.append(session.interface(0).isend(1, tag, size))
                yield Timeout(3.0)

        for tag in range(12):
            session.interface(1).irecv(0, tag)
        session.spawn(sender())
        session.run_until_idle()
        assert all(r.done for r in sends)
        assert sum(len(stamped) for _, stamped in recorded) == len(sends)
        for values, stamped in recorded:
            lifetimes = sorted(r.completed_at - r.submitted_at for r in stamped)
            assert len(values) == len(stamped)
            assert all(0 <= v <= life for v, life in zip(sorted(values), lifetimes))

    def test_snapshot_round_trips_to_plain_data(self, session2):
        import json

        run_pingpong(session2, 64, reps=1)
        snap = session2.metrics.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert any(k.startswith("engine.sweeps") for k in snap)

    def test_gauge_set_and_add(self):
        g = Gauge("active.engines_built")
        g.set(5)
        g.add(-2)
        assert g.value == 3


class TestSessionInstruments:
    """One bundle per session resolves every engine-side instrument."""

    @pytest.mark.parametrize("scenario", sorted(instruments_capture.SCENARIOS))
    def test_snapshot_equals_the_parent_capture(self, scenario):
        """Same names, same values, same set as when every engine and every
        ``sync_kernel_metrics`` looked its instruments up for itself."""
        parent = json.loads(
            (Path(__file__).parent / "data" / "instruments_parent.json").read_text()
        )
        session = instruments_capture.SCENARIOS[scenario]()
        assert json.loads(json.dumps(session.metrics.snapshot())) == parent[scenario]

    def test_engines_and_sync_do_no_registry_lookup(self, plat2, monkeypatch):
        session = Session(plat2, strategy="aggreg_multirail")
        lookups = []
        monkeypatch.setattr(
            MetricsRegistry, "_get",
            lambda self, cls, name, labels, *args: lookups.append(name),
        )
        session.engine(1)
        run_pingpong(session, 64, reps=2)
        session.sync_kernel_metrics()
        assert lookups == []
        inst = session.instruments
        assert session.engine(0)._inst is session.engine(1)._inst is inst
        assert inst.commit_count[1].value == inst.wrapper_bytes[1].count > 0
