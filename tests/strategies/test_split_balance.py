"""Behaviour tests for the final strategy: adaptive packet stripping
(§3.4 / Fig 7)."""

import pytest

from repro import Session, run_pingpong
from repro.obs.timeline import rail_byte_shares
from repro.util.errors import StrategyError
from repro.util.units import KB, MB


def make(plat2, samples, **opts):
    return Session(plat2, strategy="split_balance", strategy_opts=opts, samples=samples)


class TestSplitting:
    def test_large_single_segment_is_stripped(self, plat2, samples):
        session = make(plat2, samples)
        run_pingpong(session, 4 * MB, reps=1, warmup=0)
        eng = session.engine(0)
        assert eng.rdv.split_count == 1
        assert eng.drivers[0].dma_started == 1
        assert eng.drivers[1].dma_started == 1

    def test_sampled_ratio_drives_byte_shares(self, plat2, samples):
        session = make(plat2, samples)
        run_pingpong(session, 8 * MB, reps=2, warmup=1)
        shares = rail_byte_shares(session, node_id=0)
        expected = samples.ratios(["myri10g", "qsnet2"])
        assert shares["myri10g"] == pytest.approx(expected["myri10g"], abs=0.01)

    def test_iso_mode_splits_evenly(self, plat2, samples):
        session = make(plat2, samples, ratio_mode="iso")
        run_pingpong(session, 8 * MB, reps=2, warmup=1)
        shares = rail_byte_shares(session, node_id=0)
        assert shares["myri10g"] == pytest.approx(0.5, abs=0.01)

    def test_hetero_beats_iso_beats_single(self, plat2, samples, mx_plat):
        size = 8 * MB
        hetero = run_pingpong(make(plat2, samples), size, reps=2).bandwidth_MBps
        iso = run_pingpong(make(plat2, samples, ratio_mode="iso"), size, reps=2).bandwidth_MBps
        single = run_pingpong(Session(mx_plat, strategy="single_rail"), size, reps=2).bandwidth_MBps
        assert hetero > iso > single

    def test_reassembled_data_is_intact(self, plat2, samples):
        session = make(plat2, samples)
        data = bytes(range(256)) * 1024  # 256 KB patterned payload
        recv = session.interface(1).irecv(0, 5)
        session.interface(0).isend(1, 5, data)
        session.run_until_idle()
        assert recv.done and recv.data == data


class TestAdaptiveThreshold:
    @staticmethod
    def forged_table():
        """A deterministic sample table with a ~60K adaptive threshold:
        splitting pays only when s/1200 > 10+0.4s/800, i.e. s > ~60K."""
        from repro.core.sampling import RailSample, SampleTable

        def fitted(name, overhead, bw):
            return RailSample(
                rail_name=name,
                points=((65536, overhead + 65536 / bw), (1048576, overhead + 1048576 / bw)),
                overhead_us=overhead,
                bw_MBps=bw,
            )

        return SampleTable(
            {"myri10g": fitted("myri10g", 10.0, 1200.0), "qsnet2": fitted("qsnet2", 30.0, 800.0)}
        )

    def test_no_split_below_adaptive_threshold(self, plat2):
        """Below the fitted crossover the slow rail's overhead is not
        worth it: the whole segment rides the best rail."""
        session = make(plat2, self.forged_table())
        run_pingpong(session, 32 * KB, reps=1, warmup=0)
        eng = session.engine(0)
        assert eng.rdv.split_count == 0
        assert eng.rdv.initiated - eng.rdv.split_count == 1

    def test_split_resumes_above_threshold(self, plat2):
        session = make(plat2, self.forged_table())
        run_pingpong(session, 128 * KB, reps=1, warmup=0)
        assert session.engine(0).rdv.split_count == 1

    def test_whole_send_picks_predicted_best_rail(self, plat2):
        session = make(plat2, self.forged_table())
        run_pingpong(session, 32 * KB, reps=1, warmup=0)
        eng = session.engine(0)
        # Myri-10G has both the higher bandwidth and lower fitted overhead
        assert eng.drivers[0].dma_started == 1
        assert eng.drivers[1].dma_started == 0

    def test_fixed_threshold_mode(self, plat2, samples):
        session = make(plat2, samples, split_decision=16 * KB)
        run_pingpong(session, 32 * KB, reps=1, warmup=0)
        assert session.engine(0).rdv.split_count == 1

    def test_min_chunk_prevents_degenerate_split(self, plat2):
        """A 12:1 table gives the slow rail 1/13 of a segment: below
        ``MIN_CHUNK`` that share is not worth a DMA setup."""
        from repro.core.sampling import RailSample, SampleTable
        from repro.core.strategies.split_balance import MIN_CHUNK

        def fitted(name, bw):
            points = ((65536, 65536 / bw), (1048576, 1048576 / bw))
            return RailSample(name, points, overhead_us=0.0, bw_MBps=bw)

        table = SampleTable(
            {"myri10g": fitted("myri10g", 1200.0), "qsnet2": fitted("qsnet2", 100.0)}
        )
        for size, splits in ((12 * MIN_CHUNK, 0), (14 * MIN_CHUNK, 1)):
            session = make(plat2, table, split_decision=1)
            run_pingpong(session, size, reps=1, warmup=0)
            assert session.engine(0).rdv.split_count == splits, size

    def test_backlog_disables_splitting(self, plat2, samples):
        """Multiple queued large segments balance greedily instead."""
        session = make(plat2, samples)
        recvs = [session.interface(1).irecv(0, 1) for _ in range(2)]
        session.interface(0).isend(1, 1, 4 * MB)
        session.interface(0).isend(1, 1, 4 * MB)
        session.run_until_idle()
        assert all(r.done for r in recvs)
        eng = session.engine(0)
        assert eng.rdv.split_count == 0
        assert eng.drivers[0].dma_started == 1
        assert eng.drivers[1].dma_started == 1


class TestSmallMessages:
    def test_smalls_aggregate_on_fastest(self, plat2, samples):
        session = make(plat2, samples)
        run_pingpong(session, 1024, segments=4, reps=2)
        assert session.counters()["aggregated_packets"] > 0
        for engine in session.engines:
            assert engine.drivers[0].eager_posted == 0


class TestFallbacks:
    def test_spec_fallback_without_samples(self, plat2):
        session = Session(plat2, strategy="split_balance")  # samples=None
        eng = session.engine(0)
        assert eng.strategy.ratio_mode == "spec"
        run_pingpong(session, 4 * MB, reps=1, warmup=0)
        assert eng.rdv.split_count == 1

    def test_single_rail_platform_never_splits(self, mx_plat):
        session = Session(mx_plat, strategy="split_balance")
        run_pingpong(session, 8 * MB, reps=1, warmup=0)
        eng = session.engine(0)
        assert eng.rdv.split_count == 0
        assert eng.drivers[0].dma_started == 1


class TestOptionValidation:
    def test_bad_ratio_mode(self):
        from repro.core.strategies import SplitBalanceStrategy

        with pytest.raises(StrategyError):
            SplitBalanceStrategy(ratio_mode="magic")

    def test_bad_split_decision(self):
        from repro.core.strategies import SplitBalanceStrategy

        with pytest.raises(StrategyError):
            SplitBalanceStrategy(split_decision="sometimes")
        with pytest.raises(StrategyError):
            SplitBalanceStrategy(split_decision=0)
        # a bool is an int to isinstance, but no byte count
        with pytest.raises(StrategyError, match="not True"):
            SplitBalanceStrategy(split_decision=True)

    def test_bad_min_chunk(self):
        """The smallest chunk is a constant, not an option."""
        from repro.core.strategies import make_strategy

        with pytest.raises(StrategyError, match="takes no option min_chunk;"):
            make_strategy("split_balance", min_chunk=0)
