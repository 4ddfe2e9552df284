"""Executes a scenario plan into measurement corpora.

The runner is the "world": it stands up the IXP (members, policies,
regular routes), replays every planned blackhole window through the route
server — recording the per-member acceptance timeline — generates all
traffic as flow aggregates, samples them at 1:N, marks each sampled packet
dropped or forwarded against the timeline, and packages the result as the
pair of corpora the analysis pipeline consumes.

Clock model: everything is generated on the *data-plane* clock. The
control-plane corpus timestamps are shifted by
``config.control_clock_skew`` (−0.04 s by default), so the time-offset
estimator of Fig. 2 has a real offset to find, while drop marking uses the
true (unskewed) times.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List

import numpy as np

from repro.bgp.message import BGPUpdate, withdraw
from repro.bgp.policy import (
    BlackholeWhitelistPolicy,
    FullBlackholePolicy,
    ImportPolicy,
    MaxPrefixLengthPolicy,
    NoBlackholePolicy,
    PartialBlackholePolicy,
)
from repro.corpus.control import ControlPlaneCorpus
from repro.corpus.data import DataPlaneCorpus
from repro.dataplane.flow import FlowLabel, FlowSpec
from repro.dataplane.sampler import IPFIXSampler
from repro.dataplane.timeline import AcceptanceTimeline
from repro.errors import ScenarioError
from repro.ixp.peeringdb import PeeringDBRecord
from repro import telemetry
from repro.ixp.platform import IXP
from repro.net.ip import IPv4Prefix
from repro.scenario.config import DAY, ScenarioConfig
from repro.scenario.paper import build_paper_plan
from repro.scenario.plan import (
    AttackVector,
    EventCategory,
    HostRole,
    PlannedEvent,
    PolicyKind,
    ScenarioPlan,
    VictimHost,
)
from repro.traffic.amplification import (
    AmplificationAttackConfig,
    generate_amplification_flows,
)
from repro.traffic.carpet import CarpetAttackConfig, PortPattern, generate_carpet_flows
from repro.traffic.legit import (
    ClientProfile,
    ServerProfile,
    generate_client_traffic,
    generate_server_traffic,
)
from repro.traffic.scan import ScanConfig, generate_scan_flows
from repro.traffic.synflood import SynFloodConfig, generate_syn_flood_flows
from repro.telescope.observatory import (
    ExternalObservation,
    simulate_external_observations,
)


@dataclass
class ScenarioResult:
    """Everything a study needs: the plan (ground truth), the corpora, the
    acceptance timeline, the live IXP object, and the independent
    telescope/honeypot observation feed (§7.3)."""

    config: ScenarioConfig
    plan: ScenarioPlan
    control: ControlPlaneCorpus
    data: DataPlaneCorpus
    timeline: AcceptanceTimeline
    ixp: IXP
    observations: List["ExternalObservation"] = field(default_factory=list)

    def ground_truth_events(self, category: EventCategory) -> List[PlannedEvent]:
        return self.plan.events_of(category)

    # -- day-sized segmentation (crash-safe corpus writing) -------------------

    @property
    def day_count(self) -> int:
        """Number of day-sized segments the corpora split into."""
        return max(1, int(np.ceil(self.config.duration / DAY)))

    def control_day_slices(self) -> List[List[BGPUpdate]]:
        """The control-plane messages split into contiguous day slices.

        Both corpora are time-sorted, so a day slice is a contiguous run
        and concatenating the slices reproduces the corpus byte for byte
        — the invariant checkpointed generation relies on.  Out-of-range
        timestamps (the clock-skewed first messages, anything at or past
        ``duration``) are clamped into the first/last day.
        """
        messages = list(self.control)
        times = np.array([m.time for m in messages], dtype=np.float64)
        return [messages[lo:hi] for lo, hi in _day_bounds(times, self.day_count)]

    def data_day_slices(self) -> List[np.ndarray]:
        """The sampled-packet array split into contiguous day slices."""
        times = self.data.packets["time"].astype(np.float64)
        return [self.data.packets[lo:hi]
                for lo, hi in _day_bounds(times, self.day_count)]


def _day_bounds(times: np.ndarray, days: int) -> List[tuple]:
    """Per-day ``(lo, hi)`` index bounds into a sorted timestamp array."""
    edges = np.arange(1, days) * DAY
    cuts = [0] + [int(i) for i in np.searchsorted(times, edges, side="left")]
    cuts.append(len(times))
    return list(zip(cuts[:-1], cuts[1:]))


def _policy_for(kind: PolicyKind, salt: int) -> ImportPolicy:
    if kind is PolicyKind.WHITELIST_32:
        return BlackholeWhitelistPolicy()
    if kind is PolicyKind.DEFAULT_LE24:
        return MaxPrefixLengthPolicy()
    if kind is PolicyKind.FULL_BLACKHOLE:
        return FullBlackholePolicy()
    if kind is PolicyKind.NO_BLACKHOLE:
        return NoBlackholePolicy()
    if kind is PolicyKind.PARTIAL:
        return PartialBlackholePolicy(0.5, salt=salt)
    raise ScenarioError(f"unknown policy kind: {kind}")


def run_scenario(config: ScenarioConfig, plan: ScenarioPlan | None = None) -> ScenarioResult:
    """Build (unless given) and execute the paper plan for ``config``.

    Every stage runs inside a telemetry span (``generate.plan`` …
    ``generate.observations``), so an activated telemetry context gets
    per-stage timings and the CLI can render progress lines from them.
    """
    telem = telemetry.current()
    if plan is None:
        with telem.span("generate.plan") as sp:
            plan = build_paper_plan(config)
            sp.attrs["events"] = len(plan.events)
    rng = np.random.default_rng(config.seed + 0x5EED)

    with telem.span("generate.members") as sp:
        ixp = _build_ixp(config, plan)
        sp.attrs["members"] = len(plan.members)
    with telem.span("generate.routes") as sp:
        _replay_control_plane(config, plan, ixp)
        timeline = ixp.finalize_timeline(config.duration)
        sp.attrs["updates"] = len(ixp.route_server.log)
        sp.attrs["refreshes"] = ixp.route_server.refreshes
        sp.attrs["policy_decisions"] = ixp.route_server.policy_decisions

    with telem.span("generate.traffic") as sp:
        flows = _generate_flows(config, plan, rng)
        sp.attrs["flows"] = len(flows)
    with telem.span("generate.sampling") as sp:
        sampler = IPFIXSampler(rng, rate=config.sampling_rate)
        packets = sampler.sample(flows)
        timeline.mark_dropped(packets)
        # Bilateral blackholes: dropped at a private peering, invisible to
        # the route server. Their attack packets are force-marked.
        bilateral = packets["label"] == int(FlowLabel.BILATERAL_BLACKHOLE)
        packets["dropped"] |= bilateral
        sp.attrs["packets"] = len(packets)
        telem.counter("runner.packets_dropped").inc(int(packets["dropped"].sum()))

    control = _skewed_control_corpus(ixp, config.control_clock_skew)
    data = DataPlaneCorpus(packets, sampling_rate=config.sampling_rate,
                           copy=False)
    with telem.span("generate.observations") as sp:
        observations = simulate_external_observations(plan, rng)
        sp.attrs["observations"] = len(observations)
    return ScenarioResult(config=config, plan=plan, control=control,
                          data=data, timeline=timeline, ixp=ixp,
                          observations=observations)


# ------------------------------------------------------------------ control


def _build_ixp(config: ScenarioConfig, plan: ScenarioPlan) -> IXP:
    ixp = IXP()
    blocks_by_announcer: Dict[int, List[IPv4Prefix]] = {}
    origin_by_announcer: Dict[int, List[int]] = {}
    for origin in plan.origin_asns:
        blocks_by_announcer.setdefault(origin.announcer_asn, []).append(origin.block)
        origin_by_announcer.setdefault(origin.announcer_asn, []).append(origin.asn)
    for member in plan.members:
        originated = [member.own_prefix] + blocks_by_announcer.get(member.asn, [])
        ixp.add_member(member.asn, policy=_policy_for(member.policy, member.asn),
                       originated=originated, name=f"AS{member.asn}")
        ixp.peeringdb.register(PeeringDBRecord(
            asn=member.asn, name=f"AS{member.asn} Networks",
            org_type=member.org_type,
        ))
    from repro.ixp.peeringdb import OrgType

    for origin in plan.origin_asns:
        if origin.org_type is not OrgType.UNKNOWN:
            ixp.peeringdb.register(PeeringDBRecord(
                asn=origin.asn, name=f"AS{origin.asn} Customer",
                org_type=origin.org_type,
            ))
    return ixp


def _session_resets(config: ScenarioConfig, plan: ScenarioPlan,
                    rng: np.random.Generator) -> Dict[int, List[float]]:
    """Per announcer: times at which its BGP session flaps. A reset makes
    the announcer withdraw and immediately re-announce everything it has
    active — the per-minute message spikes of Fig. 3."""
    announcers = sorted({e.announcer_asn for e in plan.events
                         if e.category is not EventCategory.BILATERAL})
    resets: Dict[int, List[float]] = {}
    if not announcers or config.session_resets < 1:
        return resets
    for _ in range(config.session_resets):
        asn = int(rng.choice(announcers))
        t = float(rng.uniform(0.1, 0.95) * config.duration)
        resets.setdefault(asn, []).append(t)
    for times in resets.values():
        times.sort()
    return resets


def _split_at_resets(window, resets: List[float], rng: np.random.Generator,
                     duration: float) -> List[tuple]:
    """Split one (announce, withdraw) window at the given reset times.

    Returns (announce, withdraw-or-None) pairs; the gap at a reset is a
    few seconds (withdraw and re-announce in the same BGP burst)."""
    start = window.announce_time
    end = window.withdraw_time  # may be None (zombie)
    pieces = []
    for t in resets:
        if t <= start or (end is not None and t >= end):
            continue
        pieces.append((start, t))
        start = min(t + float(rng.uniform(2.0, 30.0)), duration)
        if end is not None and start >= end:
            return pieces
    pieces.append((start, end))
    return pieces


def _announce_times(start: float, end: float | None, config: ScenarioConfig,
                    rng: np.random.Generator) -> List[float]:
    """The initial announcement plus periodic re-advertisements.

    Standing blackholes get refreshed on roughly ``reannounce_interval``
    (jittered, capped) — semantically no-ops at the route server, but they
    are the message volume Fig. 10's announcement count is made of."""
    times = [start]
    if config.reannounce_interval <= 0:
        return times
    horizon = config.duration if end is None else end
    if horizon - start > DAY:
        # long-lived manual blackholes and zombies sit in static configs
        # and are not refreshed — only automation chatters
        return times
    t = start
    for _ in range(200):  # cap refreshes per window
        t += float(rng.uniform(0.5, 1.5)) * config.reannounce_interval
        if t >= horizon:
            break
        times.append(t)
    return times


def _replay_control_plane(config: ScenarioConfig, plan: ScenarioPlan, ixp: IXP) -> None:
    """Convert every planned window into announce/withdraw updates and feed
    them, time-ordered, through the route server."""
    rng = np.random.default_rng(config.seed + 0xBEEF)
    resets = _session_resets(config, plan, rng)
    updates: List[BGPUpdate] = []
    for event in plan.events:
        if event.category is EventCategory.BILATERAL:
            continue  # never crosses the route server
        member = ixp.member(event.announcer_asn)
        announcer_resets = resets.get(event.announcer_asn, [])
        # every announcement of an event carries the same attributes
        template = ixp.blackholing.build_announcement(
            0.0, member, event.prefix,
            targets=event.targets, origin_asn=event.origin_asn,
        )
        for window in event.windows:
            for start, end in _split_at_resets(window, announcer_resets, rng,
                                               config.duration):
                updates.extend(replace(template, time=t) for t in
                               _announce_times(start, end, config, rng))
                if end is not None and end < config.duration:
                    updates.append(withdraw(end, member.asn, event.prefix))
    updates.sort(key=lambda u: u.time)
    for update in updates:
        ixp.route_server.process(update)


def _skewed_control_corpus(ixp: IXP, skew: float) -> ControlPlaneCorpus:
    messages = [replace(msg, time=msg.time + skew) for msg in ixp.route_server.log
                if msg.time > 0.0]  # drop the t=0 regular-route setup
    return ControlPlaneCorpus(messages)


# ------------------------------------------------------------------- traffic


def _generate_flows(config: ScenarioConfig, plan: ScenarioPlan,
                    rng: np.random.Generator) -> List[FlowSpec]:
    flows: List[FlowSpec] = []
    flows.extend(_attack_flows(config, plan, rng))
    flows.extend(_legit_flows(config, plan, rng))
    flows.extend(_scan_flows(config, plan, rng))
    return flows


def _attack_flows(config: ScenarioConfig, plan: ScenarioPlan,
                  rng: np.random.Generator) -> List[FlowSpec]:
    member_asns = plan.member_asns()
    amp_origins = sorted({a.origin_asn for a in plan.amplifier_pool.amplifiers})
    flows: List[FlowSpec] = []
    for event in plan.events:
        if event.vector is AttackVector.NONE or not event.has_attack:
            continue
        assert event.victim_ip is not None
        if event.vector is AttackVector.AMPLIFICATION:
            attack = AmplificationAttackConfig(
                victim_ip=event.victim_ip,
                start=event.attack_start, duration=event.attack_end - event.attack_start,
                total_pps=event.attack_pps, protocols=event.protocols,
                num_amplifiers=config.amplifiers_per_attack,
            )
            new_flows = generate_amplification_flows(rng, plan.amplifier_pool, attack)
        elif event.vector is AttackVector.CARPET:
            pattern = PortPattern.RANDOM
            draw = rng.random()
            if draw < 0.3:
                pattern = PortPattern.INCREASING
            elif draw < 0.5:
                pattern = PortPattern.MULTI_PROTOCOL
            attack = CarpetAttackConfig(
                victim_ip=event.victim_ip, start=event.attack_start,
                duration=event.attack_end - event.attack_start,
                total_pps=event.attack_pps, pattern=pattern,
            )
            new_flows = generate_carpet_flows(rng, attack, member_asns, amp_origins)
        else:  # SYN flood
            attack = SynFloodConfig(
                victim_ip=event.victim_ip,
                victim_port=int(rng.choice([80, 443, 25565])),
                start=event.attack_start,
                duration=event.attack_end - event.attack_start,
                total_pps=event.attack_pps,
            )
            new_flows = generate_syn_flood_flows(rng, attack, member_asns, amp_origins)
        if event.category is EventCategory.BILATERAL:
            new_flows = [_relabel(f, FlowLabel.BILATERAL_BLACKHOLE) for f in new_flows]
        flows.extend(new_flows)
    return flows


def _relabel(flow: FlowSpec, label: FlowLabel) -> FlowSpec:
    from dataclasses import replace

    return replace(flow, label=label)


def _legit_flows(config: ScenarioConfig, plan: ScenarioPlan,
                 rng: np.random.Generator) -> List[FlowSpec]:
    days = int(np.ceil(config.duration / DAY))
    flows: List[FlowSpec] = []
    for victim in plan.victims:
        if victim.role is HostRole.SILENT:
            flows.extend(_silent_trickle(config, plan, victim, days, rng))
            continue
        profile = _traffic_profile(victim)
        # each host talks to a stable handful of remote networks
        peer_idx = rng.choice(len(plan.remote_peers),
                              size=min(8, len(plan.remote_peers)), replace=False)
        peers = [plan.remote_peers[i] for i in peer_idx]
        for day in range(days):
            if victim.role is HostRole.SERVER:
                flows.extend(generate_server_traffic(
                    rng, profile, peers, day,
                    flows_per_day=config.legit_flows_per_day,
                ))
            else:
                flows.extend(generate_client_traffic(
                    rng, profile, peers, day,
                    flows_per_day=config.legit_flows_per_day,
                ))
    return flows


def _silent_trickle(config: ScenarioConfig, plan: ScenarioPlan,
                    victim: VictimHost, days: int,
                    rng: np.random.Generator) -> List[FlowSpec]:
    """Sub-sampling-floor traffic of a "silent" victim.

    At 1:10,000 this rarely produces a sample (the host stays in the
    paper's no-data class); at denser sampling it becomes visible — the
    measurement-visibility effect of §5.2."""
    if config.silent_trickle_pps <= 0:
        return []
    flows: List[FlowSpec] = []
    n_peers = len(plan.remote_peers)
    for day in range(days):
        if rng.random() > 0.3:  # most days see no activity at all
            continue
        ingress, origin = plan.remote_peers[int(rng.integers(n_peers))]
        start = day * DAY + float(rng.uniform(0, DAY / 2))
        flows.append(FlowSpec(
            start=start,
            duration=float(rng.uniform(DAY / 8, DAY / 2)),
            src_ip=int(0x0D000000 + rng.integers(0, 1 << 20)),
            dst_ip=victim.ip,
            protocol=6,
            src_port=443,
            dst_port=int(rng.integers(49152, 65536)),
            pps=config.silent_trickle_pps * float(rng.uniform(0.5, 1.5)),
            mean_packet_size=600.0,
            ingress_asn=ingress,
            origin_asn=origin,
            label=FlowLabel.LEGIT,
        ))
    return flows


def _traffic_profile(victim: VictimHost):
    if victim.role is HostRole.SERVER:
        return ServerProfile(
            ip=victim.ip, member_asn=victim.announcer_asn,
            services=victim.services, base_pps_in=2.0, base_pps_out=1.6,
        )
    return ClientProfile(
        ip=victim.ip, member_asn=victim.announcer_asn,
        base_pps_in=2.0, base_pps_out=1.0,
    )


def _scan_flows(config: ScenarioConfig, plan: ScenarioPlan,
                rng: np.random.Generator) -> List[FlowSpec]:
    """Scanners sweep the victim space all period long; near-silent event
    victims receive a slightly denser trickle so they show the paper's
    "<10 packets" signature rather than none at all."""
    near_silent_ips = {e.victim_ip for e in plan.events
                       if e.category is EventCategory.NEAR_SILENT and e.victim_ip}
    silent_ips = [v.ip for v in plan.victims if v.role is HostRole.SILENT]
    flows: List[FlowSpec] = []
    for scanner_ip, ingress, origin in plan.scanners:
        scan = ScanConfig(
            scanner_ip=scanner_ip, ingress_asn=ingress, origin_asn=origin,
            start=0.0, duration=config.duration, pps_per_target=0.003,
        )
        sample_size = min(len(silent_ips), max(1, int(0.05 * len(silent_ips))))
        if sample_size:
            targets = rng.choice(silent_ips, size=sample_size, replace=False)
            flows.extend(generate_scan_flows(rng, scan, targets.tolist()))
    if near_silent_ips:
        scanner_ip, ingress, origin = plan.scanners[0] if plan.scanners else (
            0x09000000, plan.member_asns()[0], 58_000)
        dense = ScanConfig(
            scanner_ip=scanner_ip + 100, ingress_asn=ingress, origin_asn=origin,
            start=0.0, duration=config.duration, pps_per_target=0.05,
        )
        flows.extend(generate_scan_flows(rng, dense, sorted(near_silent_ips)))
    return flows
