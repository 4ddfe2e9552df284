"""Scenario configuration.

All knobs of the synthetic world in one dataclass. The class defaults
describe the *full-scale* study (104 days, 830 members, ~34k RTBH events);
:meth:`ScenarioConfig.paper` applies a linear ``scale`` to the count-like
parameters so tests run in milliseconds and benchmarks in minutes while
every *fraction* (event mix, policy mix, timing) stays untouched — the
fractions are what the paper's figures are made of.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ScenarioError

DAY = 86_400.0


@dataclass(frozen=True)
class PolicyMix:
    """Traffic-weighted shares of member import-policy families (§4.2).

    Calibrated so /32 blackholes drop ≈50% of packets, /24 ≈97%, and
    /25–/31 almost nothing — the acceptance landscape of Figs 5–7.
    """

    whitelist_32: float = 0.36      # accepts /32 blackholes (and <= /24)
    default_le24: float = 0.42      # factory default: rejects > /24
    partial: float = 0.13           # inconsistent /32 acceptance
    full_blackhole: float = 0.06    # accepts any blackhole length
    no_blackhole: float = 0.03      # rejects all blackhole routes
    partial_accept_fraction: float = 0.5

    def __post_init__(self) -> None:
        total = (self.whitelist_32 + self.default_le24 + self.partial
                 + self.full_blackhole + self.no_blackhole)
        if abs(total - 1.0) > 1e-9:
            raise ScenarioError(f"policy mix must sum to 1, got {total}")
        if not 0.0 <= self.partial_accept_fraction <= 1.0:
            raise ScenarioError("partial_accept_fraction must be in [0,1]")


@dataclass(frozen=True)
class EventMix:
    """Shares of RTBH-event categories (Table 2 / Fig. 19)."""

    ddos_visible: float = 0.27      # attack traffic crosses the IXP
    ddos_remote: float = 0.19       # victim has traffic, but no anomaly
    silent: float = 0.42            # mostly below the sampling floor
    zombie: float = 0.08            # announced once, never withdrawn
    near_silent: float = 0.04       # scan-only trickle (<10 packets)

    def __post_init__(self) -> None:
        total = (self.ddos_visible + self.ddos_remote + self.silent
                 + self.zombie + self.near_silent)
        if abs(total - 1.0) > 1e-9:
            raise ScenarioError(f"event mix must sum to 1, got {total}")


@dataclass(frozen=True)
class VectorMix:
    """Attack vectors of visible DDoS events (Table 3 / Fig. 14)."""

    amplification: float = 0.92
    carpet: float = 0.05
    syn_flood: float = 0.03
    #: distribution of the number of amplification protocols per attack
    protocols_per_attack: tuple[tuple[int, float], ...] = (
        (1, 0.43), (2, 0.47), (3, 0.09), (4, 0.008), (5, 0.002),
    )

    def __post_init__(self) -> None:
        if abs(self.amplification + self.carpet + self.syn_flood - 1.0) > 1e-9:
            raise ScenarioError("vector mix must sum to 1")
        if abs(sum(w for _, w in self.protocols_per_attack) - 1.0) > 1e-6:
            raise ScenarioError("protocols_per_attack weights must sum to 1")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything the generator needs; defaults are full paper scale."""

    seed: int = 7
    duration_days: float = 104.0

    # population
    num_members: int = 830
    num_victim_origin_asns: int = 170
    num_announcer_members: int = 78
    num_victim_hosts: int = 17_000
    num_amplifier_origin_asns: int = 1_200
    amplifiers_per_origin_asn: int = 4
    num_remote_peers: int = 400
    num_scanners: int = 12

    # events
    num_events: int = 34_000
    squatting_asns: int = 4
    squatting_prefixes: int = 21
    targeted_experiment_events: int = 120
    bilateral_event_fraction: float = 0.012
    #: BGP session resets over the whole period; each makes one announcer
    #: withdraw and re-announce everything within seconds (the message
    #: spikes of Fig. 3)
    session_resets: int = 40
    #: mean interval at which routers re-advertise a standing blackhole
    #: (route optimizers, config pushes, periodic refreshes). This BGP
    #: chatter is why the paper counts ~12 announcements per merged event
    #: (400k -> 34k, Fig. 10). 0 disables.
    reannounce_interval: float = 600.0

    # traffic
    amplifiers_per_attack: int = 150
    attack_pps_median: float = 5_000.0
    attack_pps_sigma: float = 1.0
    attack_pps_cap: float = 200_000.0
    attack_duration_median: float = 2_400.0
    attack_duration_sigma: float = 0.9
    attack_duration_cap: float = 8.0 * 3_600.0
    legit_flows_per_day: int = 2
    #: victims with recurring legitimate traffic (the 30% of §6.1)
    victims_with_traffic_fraction: float = 0.30
    client_share_of_traffic_victims: float = 0.80
    #: mean packet rate of the sub-sampling-floor traffic of "silent"
    #: victims: real but almost never sampled at 1:10,000 — the reason the
    #: paper's no-data share is partly a measurement artefact (§5.2)
    silent_trickle_pps: float = 0.010

    # event prefix lengths (visible + remote + silent events)
    prefix_length_weights: tuple[tuple[int, float], ...] = (
        (32, 0.90), (31, 0.005), (30, 0.005), (29, 0.005), (28, 0.005),
        (27, 0.005), (26, 0.005), (25, 0.01), (24, 0.05), (23, 0.005),
        (22, 0.005),
    )

    # measurement
    sampling_rate: int = 10_000
    control_clock_skew: float = -0.04

    # sub-mixes
    policy_mix: PolicyMix = field(default_factory=PolicyMix)
    event_mix: EventMix = field(default_factory=EventMix)
    vector_mix: VectorMix = field(default_factory=VectorMix)

    def __post_init__(self) -> None:
        if self.duration_days < 3:
            raise ScenarioError("need at least 3 days (72 h pre-windows)")
        positive = [
            "num_members", "num_victim_origin_asns", "num_announcer_members",
            "num_victim_hosts", "num_amplifier_origin_asns",
            "amplifiers_per_origin_asn", "num_remote_peers", "num_events",
            "amplifiers_per_attack", "sampling_rate",
        ]
        for name in positive:
            if getattr(self, name) < 1:
                raise ScenarioError(f"{name} must be >= 1")
        if self.num_announcer_members > self.num_members:
            raise ScenarioError("more announcers than members")
        if not 0.0 <= self.victims_with_traffic_fraction <= 1.0:
            raise ScenarioError("victims_with_traffic_fraction must be in [0,1]")
        if not 0.0 <= self.bilateral_event_fraction <= 0.5:
            raise ScenarioError("bilateral_event_fraction must be in [0, 0.5]")
        if abs(sum(w for _, w in self.prefix_length_weights) - 1.0) > 1e-6:
            raise ScenarioError("prefix_length_weights must sum to 1")
        if any(not 22 <= l <= 32 for l, _ in self.prefix_length_weights):
            raise ScenarioError("event prefix lengths must be /22../32")

    @property
    def duration(self) -> float:
        """Observation period in seconds."""
        return self.duration_days * DAY

    @classmethod
    def paper(cls, scale: float = 1.0, duration_days: float = 104.0,
              seed: int = 7, **overrides) -> "ScenarioConfig":
        """The paper scenario at a linear ``scale`` of the full study.

        Counts scale linearly (with sane floors); fractions and timing do
        not. ``overrides`` are applied last and win.
        """
        if not 0.0 < scale <= 1.0:
            raise ScenarioError(f"scale must be in (0, 1]: {scale}")

        def n(value: int, floor: int = 1) -> int:
            return max(floor, round(value * scale))

        params = dict(
            seed=seed,
            duration_days=duration_days,
            num_members=n(830, 20),
            # enough customer ASes that the Table 4 org-type join has
            # statistics even at small scales
            num_victim_origin_asns=n(170, 40),
            num_announcer_members=n(78, 5),
            num_victim_hosts=n(17_000, 40),
            # the reflector population must stay much larger than one
            # attack's fan-out, or every origin AS becomes a frequent
            # participant (Fig. 15 needs a long rare-participation tail)
            num_amplifier_origin_asns=n(1_200, 300),
            num_remote_peers=n(400, 20),
            num_scanners=n(12, 2),
            num_events=n(34_000, 40),
            squatting_asns=n(4, 1),
            squatting_prefixes=n(21, 2),
            targeted_experiment_events=n(120, 4),
            amplifiers_per_attack=n(150, 25),
            session_resets=n(40, 3),
        )
        params.update(overrides)
        config = cls(**params)
        if config.num_announcer_members > config.num_members:
            raise ScenarioError("scaled announcers exceed members")
        return config
