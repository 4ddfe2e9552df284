"""Fig. 19 — classification of RTBH events according to use cases.

Paper: ~27% of events are DDoS-likely infrastructure protection;
squatting protection appears for 4 ASes / 21 prefixes; 13% of events are
/32s with <10 packets — suspected RTBH zombies; ~60% remain "other".
Zombies/squatting last orders of magnitude longer than DDoS reactions.
"""

from benchmarks.conftest import once, report
from repro.core.classify import UseCase
from repro.core.report import seconds_human


def test_bench_fig19_classification(benchmark, pipeline):
    result = once(benchmark, lambda: pipeline.run("fig19_use_cases"))
    shares = result.shares()
    counts = result.counts()
    lines = [
        "paper:    infra-protection 27% | squatting 21 prefixes | zombies ~13% | other ~60%",
        "measured: infra-protection "
        f"{100 * shares[UseCase.INFRASTRUCTURE_PROTECTION]:.0f}% | squatting "
        f"{counts[UseCase.SQUATTING_PROTECTION]} events | zombies "
        f"{100 * shares[UseCase.ZOMBIE]:.0f}% | other "
        f"{100 * shares[UseCase.OTHER]:.0f}%",
    ]
    for case in UseCase:
        if counts[case]:
            q1, med, q3 = result.duration_quartiles(case)
            lines.append(f"duration {case.value}: "
                         f"{seconds_human(q1)} / {seconds_human(med)} / "
                         f"{seconds_human(q3)} (quartiles)")
    report("Fig. 19 — RTBH event use cases", *lines)
    assert 0.15 < shares[UseCase.INFRASTRUCTURE_PROTECTION] < 0.40
    assert shares[UseCase.OTHER] > 0.35
    assert 0.03 < shares[UseCase.ZOMBIE] < 0.30
    assert counts[UseCase.SQUATTING_PROTECTION] >= 1
    _, ddos_med, _ = result.duration_quartiles(UseCase.INFRASTRUCTURE_PROTECTION)
    _, zombie_med, _ = result.duration_quartiles(UseCase.ZOMBIE)
    assert zombie_med > 10 * ddos_med
