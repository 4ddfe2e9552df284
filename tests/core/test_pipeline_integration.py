"""End-to-end pipeline integration: every analysis runs on the shared tiny
scenario and reproduces the paper's qualitative shape."""

import numpy as np
import pytest

from repro.core.classify import UseCase
from repro.core.hosts import HostClass
from repro.core.pre_rtbh import PreRTBHClass
from repro.ixp.peeringdb import OrgType
from repro.net.protocols import IPProtocol
from repro.scenario import EventCategory


class TestEventExtraction:
    def test_event_count_close_to_planned(self, tiny_result, tiny_pipeline):
        planned = [e for e in tiny_result.plan.events
                   if e.category is not EventCategory.BILATERAL]
        extracted = tiny_pipeline.events
        # Δ-merging re-groups exactly the planned episodes (±10% for
        # overlapping events on the same victim)
        assert abs(len(extracted) - len(planned)) / len(planned) < 0.15

    def test_merge_sweep_knee(self, tiny_pipeline):
        deltas, fraction = tiny_pipeline.run(
            "fig10_merge_sweep", deltas=[0.0, 600.0, 72 * 3600.0])
        assert fraction[0] > fraction[1] > fraction[2]
        # at Δ=10 min the paper reports a ~8.5% ratio; on-off patterns in
        # the scenario give a comparable collapse
        assert fraction[1] < 0.75


class TestFig2:
    def test_offset_recovered(self, tiny_pipeline, tiny_config):
        est = tiny_pipeline.run("fig2_time_offset")
        assert est.best_offset == pytest.approx(tiny_config.control_clock_skew,
                                                abs=0.041)
        # residual unexplained drops are the bilateral blackholes; at the
        # tiny scale a single bilateral event can carry ~10% of all drops
        assert est.best_share > 0.85


class TestFig5to8:
    def test_host_blackholes_drop_about_half(self, tiny_pipeline):
        rates = tiny_pipeline.run("fig5_drop_by_length")
        drop32, _, share32 = rates.row(32)
        # at this scale only ~20 members carry the traffic and a few heavy
        # reflectors dominate, so the aggregate swings; the bench at a
        # larger scale pins this to the paper's ~50% much more tightly
        assert 0.15 < drop32 < 0.85
        assert share32 > 0.5  # most traffic goes to /32 blackholes

    def test_le24_blackholes_drop_most(self, tiny_pipeline):
        rates = tiny_pipeline.run("fig5_drop_by_length")
        drop24, _, _ = rates.row(24)
        # a handful of /24 events at this scale: loose lower bound
        assert drop24 > 0.6

    def test_fig6_cdfs(self, tiny_pipeline):
        cdfs = tiny_pipeline.run("fig6_drop_cdfs")
        q1, med, q3 = cdfs[32].quartiles()
        assert q1 < med < q3
        assert 0.1 < med < 0.9
        # a handful of /24 events at this scale: only the ordering is
        # stable (the bench checks the paper's 97% median with real n)
        assert cdfs[24].median > med

    def test_fig7_reaction_buckets(self, tiny_pipeline):
        from repro.core.droprate import reaction_buckets

        reactions = tiny_pipeline.run("fig7_top_sources", top_n=20)
        buckets = reaction_buckets(reactions)
        assert sum(buckets.values()) == len(reactions)
        # both full-drop and full-forward members exist
        assert buckets["drop_ge_99"] > 0
        assert buckets["forward_ge_99"] > 0

    def test_fig8_join_has_types(self, tiny_pipeline):
        hist = tiny_pipeline.run("fig8_org_types", top_n=20)
        assert sum(hist.values()) == 20
        assert OrgType.NSP in hist


class TestTable2AndFigs11to13:
    def test_class_shares_shape(self, tiny_pipeline):
        shares = tiny_pipeline.run("table2_pre_classes")
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares[PreRTBHClass.NO_DATA] > 0.2
        assert 0.15 < shares[PreRTBHClass.DATA_ANOMALY] < 0.45

    def test_anomaly_mass_close_to_event(self, tiny_pipeline):
        pre = tiny_pipeline.pre_classification
        offsets, levels = pre.anomaly_offsets_levels()
        assert len(offsets) > 0
        # Fig. 12: anomalies concentrate right before the announcement —
        # the last two slots (<= 10 min) hold far more than their uniform
        # share (2 of the ~576 detectable slots ≈ 0.35%). At the tiny test
        # scale victims are re-attacked densely, so older attacks also sit
        # inside the 72 h windows; concentration, not majority, is the
        # scale-independent signature.
        uniform_share = 2 / 576
        assert (offsets <= 10.0).mean() > 10 * uniform_share
        # high-level anomalies (>= 4 features at once) are attack onsets
        high = levels >= 4
        assert high.any()
        assert (offsets[high] <= 10.0).mean() > 10 * uniform_share
        assert levels.max() == 5

    def test_fig13_amplification(self, tiny_pipeline):
        summary = tiny_pipeline.pre_classification.amplification_factor_summary()
        assert summary["max_factor"] > 50
        assert 0 < summary["share_last_slot_is_max"] <= 1.0

    def test_fig11_sparse_data(self, tiny_pipeline):
        ks, cumulative = tiny_pipeline.pre_classification.slots_with_data_histogram()
        assert cumulative[-1] > 0
        assert (np.diff(cumulative) >= 0).all()


class TestSec54AndTable3:
    def test_udp_dominates_anomaly_events(self, tiny_pipeline):
        mix = tiny_pipeline.run("sec54_protocol_mix")
        assert mix.protocol_shares[IPProtocol.UDP] > 0.8
        assert mix.events_with_data_and_anomaly > 10

    def test_table3_one_or_two_protocols_dominate(self, tiny_pipeline):
        table = tiny_pipeline.run("table3_amplification")
        assert sum(table.values()) == pytest.approx(1.0)
        assert table[1] + table[2] > 0.5
        assert table[0] < 0.25


class TestFigs14to15:
    def test_most_events_fully_filterable(self, tiny_pipeline):
        cdf = tiny_pipeline.run("fig14_filterable")
        # ~90% of events are fully stoppable by the port list (Fig. 14)
        assert cdf(0.999) < 0.35  # <35% of events below full filterability
        assert cdf.median > 0.9

    def test_participation_skewed(self, tiny_pipeline):
        part = tiny_pipeline.run("fig15_participation")
        top_origin = part.top("origin", 1)[0][1]
        assert top_origin > 0.25  # the heavy-hitter AS appears in many events
        values = np.array(list(part.origin.values()))
        assert np.median(values) < 0.2
        assert part.mean_amplifiers_per_event > 3


class TestHostsAndCollateral:
    def test_clients_outnumber_servers(self, tiny_pipeline):
        counts = tiny_pipeline.host_study.counts()
        assert counts[HostClass.CLIENT] > counts[HostClass.SERVER] > 0

    def test_table4_types(self, tiny_pipeline):
        table = tiny_pipeline.run("table4_host_types")
        client_types = table[HostClass.CLIENT]
        assert client_types.get(OrgType.CABLE_DSL_ISP, 0.0) > \
            client_types.get(OrgType.CONTENT, 0.0)
        server_types = table[HostClass.SERVER]
        assert server_types.get(OrgType.CONTENT, 0.0) > 0.1

    def test_radviz_projection_works(self, tiny_pipeline):
        from repro.stats import radviz_projection

        coords = radviz_projection(tiny_pipeline.host_study.radviz_matrix())
        assert (np.linalg.norm(coords, axis=1) <= 1.0 + 1e-9).all()

    def test_collateral_damage_found(self, tiny_pipeline):
        damage = tiny_pipeline.run("fig18_collateral")
        assert damage.servers_considered > 0
        assert damage.events_with_collateral > 0
        cdf = damage.cdf()
        assert cdf.max >= cdf.median >= 1


class TestFig19:
    def test_use_case_shares(self, tiny_pipeline):
        result = tiny_pipeline.run("fig19_use_cases")
        shares = result.shares()
        assert sum(shares.values()) == pytest.approx(1.0)
        assert 0.15 < shares[UseCase.INFRASTRUCTURE_PROTECTION] < 0.45
        assert shares[UseCase.OTHER] > 0.3
        assert shares[UseCase.ZOMBIE] > 0.03
        assert result.counts()[UseCase.SQUATTING_PROTECTION] >= 1

    def test_zombies_last_long(self, tiny_pipeline):
        result = tiny_pipeline.run("fig19_use_cases")
        _, zombie_median, _ = result.duration_quartiles(UseCase.ZOMBIE)
        _, ddos_median, _ = result.duration_quartiles(
            UseCase.INFRASTRUCTURE_PROTECTION)
        assert zombie_median > 10 * ddos_median


class TestSharedGather:
    """Each event's packets are gathered once per pass (event windows,
    pre-windows), and no analysis recomputes another's result."""

    @pytest.fixture
    def fresh_pipeline(self, tiny_result):
        from repro import AnalysisPipeline

        return AnalysisPipeline(tiny_result.control, tiny_result.data,
                                peer_asns=tiny_result.ixp.member_asns,
                                peeringdb=tiny_result.ixp.peeringdb,
                                host_min_days=8)

    def test_one_gather_per_event_per_pass(self, fresh_pipeline,
                                           monkeypatch):
        from repro.core import events as events_mod
        from repro.corpus.data import DataPlaneCorpus

        per_event, batched, built = [], [], []
        real_rows = DataPlaneCorpus.window_rows
        real_event_rows = events_mod.event_rows
        monkeypatch.setattr(
            DataPlaneCorpus, "window_packets",
            lambda self, *a: per_event.append(a) or self.packets[:0])
        monkeypatch.setattr(
            DataPlaneCorpus, "window_rows",
            lambda self, prefixes, windows: batched.append(len(prefixes))
            or real_rows(self, prefixes, windows))
        monkeypatch.setattr(
            events_mod, "event_rows",
            lambda *a: built.append(1) or real_event_rows(*a))
        report = fresh_pipeline.run_all(strict=False)
        assert not report.failed()
        assert per_event == []
        n_events = len(fresh_pipeline.events)
        # one batched gather of the event windows, one of the pre-windows
        assert batched == [n_events, n_events]
        assert built == [1]

    def test_top_n_is_cut_from_one_table(self, fresh_pipeline):
        full = fresh_pipeline.run("fig7_top_sources")
        top5 = fresh_pipeline.run("fig7_top_sources", top_n=5)
        assert len(full) > 5 and len(top5) == 5
        top20 = fresh_pipeline.run("fig7_top_sources", top_n=20)
        hist = fresh_pipeline.run("fig8_org_types", top_n=20)
        assert sum(hist.values()) == len(top20)
        assert hist == fresh_pipeline.peeringdb.type_histogram(
            r.asn for r in top20)
