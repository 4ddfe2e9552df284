"""Fig. 4's matrix reduction against the per-snapshot loop oracle."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import BLACKHOLE
from repro.bgp.community import announce_to, do_not_announce_to, suppress_all
from repro.bgp.message import announce, withdraw
from repro.core.visibility import targeted_visibility
from repro.corpus import ControlPlaneCorpus
from repro.net import IPv4Address, IPv4Prefix

from tests.core.kernel_oracles import oracle_targeted_visibility

RS = 64_500
PEERS = [100, 200, 300, 400]
NH = IPv4Address("192.0.2.66")
PREFIXES = [IPv4Prefix("203.0.113.7/32"), IPv4Prefix("203.0.113.0/24"),
            IPv4Prefix("198.51.100.9/32")]
#: a few community sets, so announcements repeat them; 900 is no peer
COMMUNITY_SETS = [
    frozenset({BLACKHOLE}),
    frozenset({BLACKHOLE, do_not_announce_to(200)}),
    frozenset({BLACKHOLE, suppress_all(RS), announce_to(RS, 300)}),
    frozenset({BLACKHOLE, suppress_all(RS)}),
    frozenset({BLACKHOLE, do_not_announce_to(900)}),
]


@st.composite
def rtbh_corpora(draw):
    """Blackhole announcements, withdrawals and plain re-announcements
    by members and by announcers outside the peer list, with gaps long
    enough that some samples find no active prefix."""
    n = draw(st.integers(1, 25))
    time, msgs = 0.0, []
    for _ in range(n):
        time += draw(st.sampled_from([0.0, 30.0, 500.0, 4000.0]))
        peer = draw(st.sampled_from(PEERS + [900]))
        prefix = draw(st.sampled_from(PREFIXES))
        kind = draw(st.sampled_from(["blackhole", "blackhole", "withdraw",
                                     "plain"]))
        if kind == "blackhole":
            msgs.append(announce(time, peer, prefix, NH, communities=draw(
                st.sampled_from(COMMUNITY_SETS))))
        elif kind == "withdraw":
            msgs.append(withdraw(time, peer, prefix))
        else:
            msgs.append(announce(time, peer, prefix, NH))
    # always at least one RTBH message
    msgs.insert(0, announce(0.0, PEERS[0], PREFIXES[0], NH,
                            communities=COMMUNITY_SETS[0]))
    interval = draw(st.sampled_from([60.0, 700.0, 3600.0]))
    return ControlPlaneCorpus(msgs), interval


@settings(deadline=None)
@given(rtbh_corpora())
def test_matrix_reduction_matches_the_snapshot_loop(case):
    control, interval = case
    got = targeted_visibility(control, PEERS, RS, sample_interval=interval)
    want = oracle_targeted_visibility(control, PEERS, RS,
                                      sample_interval=interval)
    for name in ("times", "announced", "filtered_max", "filtered_p99",
                 "filtered_median"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

