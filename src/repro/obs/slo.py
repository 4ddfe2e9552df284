"""SLO rules and the health evaluator behind ``repro status``.

Health is a pure function of one *operational sample* — the dict the
streaming engine assembles each tick (watermark, commit-log lag, tap
states, quarantine accounting, checkpoint staleness) — against a frozen
:class:`SLORules`.  Keeping it pure means the live session and the
on-disk snapshot reproduce the identical verdict from the same inputs:
SIGKILL the session, run ``status`` on the snapshot, and get the same
answer the session computed on its last tick.

Escalation model, per check: within threshold → ``ok``; beyond it →
``degraded``; beyond ``unhealthy_factor``× the threshold → ``unhealthy``.
Dead taps are the exception — a dead tap is already a terminal fact, so
any count beyond ``max_dead_taps`` is ``degraded`` (the session is still
producing numbers from surviving feeds) and only *every* tap dead is
``unhealthy`` (nothing is feeding the reducers at all).  The session
state is the worst check state, with every tripped check listed as a
reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: overall / per-check states, in escalation order
STATE_OK = "ok"
STATE_DEGRADED = "degraded"
STATE_UNHEALTHY = "unhealthy"
STATES = (STATE_OK, STATE_DEGRADED, STATE_UNHEALTHY)

_RANK = {state: rank for rank, state in enumerate(STATES)}

#: ``repro status`` exit codes per state (0 ok / 4 degraded / 5 unhealthy)
EXIT_CODES = {STATE_OK: 0, STATE_DEGRADED: 4, STATE_UNHEALTHY: 5}


@dataclass(frozen=True, kw_only=True)
class SLORules:
    """Thresholds one watch session is judged against."""

    #: committed-but-unconsumed days before the watcher counts as behind
    max_lag_days: float = 2.0
    #: permanently dead taps tolerated before the session degrades
    max_dead_taps: int = 0
    #: malformed/total feed-record ratio tolerated
    max_quarantine_rate: float = 0.10
    #: seconds since the last stream-checkpoint write (None disables —
    #: a tail-only watcher of a finished corpus legitimately goes quiet)
    max_checkpoint_age: Optional[float] = 900.0
    #: per-check degraded→unhealthy escalation multiplier
    unhealthy_factor: float = 3.0

    def to_json(self) -> dict:
        return {
            "max_lag_days": self.max_lag_days,
            "max_dead_taps": self.max_dead_taps,
            "max_quarantine_rate": self.max_quarantine_rate,
            "max_checkpoint_age": self.max_checkpoint_age,
            "unhealthy_factor": self.unhealthy_factor,
        }

    @classmethod
    def from_json(cls, raw: dict) -> "SLORules":
        known = {f: raw[f] for f in (
            "max_lag_days", "max_dead_taps", "max_quarantine_rate",
            "max_checkpoint_age", "unhealthy_factor") if f in raw}
        return cls(**known)


@dataclass
class Check:
    """One evaluated SLO dimension."""

    name: str
    state: str
    value: Optional[float]
    threshold: Optional[float]
    detail: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "state": self.state,
                "value": self.value, "threshold": self.threshold,
                "detail": self.detail}


@dataclass
class Health:
    """The session verdict: worst check state plus every reason."""

    state: str = STATE_OK
    checks: List[Check] = field(default_factory=list)

    @property
    def reasons(self) -> List[str]:
        return [f"{c.name}: {c.detail}" for c in self.checks
                if c.state != STATE_OK]

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.state]

    @property
    def ready(self) -> bool:
        return self.state == STATE_OK

    def to_json(self) -> dict:
        return {"state": self.state, "reasons": self.reasons,
                "checks": [c.to_json() for c in self.checks]}

    @classmethod
    def from_json(cls, raw: dict) -> "Health":
        health = cls(state=str(raw.get("state", STATE_OK)))
        if health.state not in _RANK:
            raise ValueError(f"unknown health state {health.state!r}")
        for entry in raw.get("checks", []):
            health.checks.append(Check(
                name=str(entry.get("name", "?")),
                state=str(entry.get("state", STATE_OK)),
                value=entry.get("value"),
                threshold=entry.get("threshold"),
                detail=str(entry.get("detail", ""))))
        return health


def _escalate(value: float, threshold: float, factor: float) -> str:
    if value <= threshold:
        return STATE_OK
    if value > threshold * factor:
        return STATE_UNHEALTHY
    return STATE_DEGRADED


def evaluate(sample: dict, rules: SLORules = SLORules()) -> Health:
    """Judge one operational sample; see the module docstring.

    The sample dict is the shape :meth:`StreamEngine.obs_sample`
    produces; absent keys are treated as "not applicable" (e.g. a
    tap-less watcher has no quarantine rate), never as failures.
    """
    health = Health()

    lag = sample.get("lag_days")
    if lag is not None:
        state = _escalate(float(lag), rules.max_lag_days,
                          rules.unhealthy_factor)
        health.checks.append(Check(
            "stream.lag_days", state, float(lag), rules.max_lag_days,
            f"{float(lag):g} committed day(s) not yet consumed "
            f"(threshold {rules.max_lag_days:g})"))

    taps: Optional[Dict[str, dict]] = sample.get("taps")
    if taps:
        dead = sorted(name for name, entry in taps.items()
                      if entry.get("state") == "dead")
        if not dead:
            state = STATE_OK
        elif len(dead) == len(taps):
            state = STATE_UNHEALTHY
        elif len(dead) > rules.max_dead_taps:
            state = STATE_DEGRADED
        else:
            state = STATE_OK
        health.checks.append(Check(
            "taps.dead", state, float(len(dead)),
            float(rules.max_dead_taps),
            f"{len(dead)}/{len(taps)} tap(s) permanently dead"
            + (f": {', '.join(dead)}" if dead else "")))

        total = sum(int(entry.get("records_ok", 0))
                    + int(entry.get("records_malformed", 0))
                    for entry in taps.values())
        malformed = sum(int(entry.get("records_malformed", 0))
                        for entry in taps.values())
        if total:
            rate = malformed / total
            state = _escalate(rate, rules.max_quarantine_rate,
                              rules.unhealthy_factor)
            health.checks.append(Check(
                "taps.quarantine_rate", state, rate,
                rules.max_quarantine_rate,
                f"{malformed}/{total} feed records malformed "
                f"({100.0 * rate:.1f}%, threshold "
                f"{100.0 * rules.max_quarantine_rate:g}%)"))

    doctor = sample.get("doctor")
    if doctor is not None:
        errors = int(doctor.get("error_count", 0))
        classes = doctor.get("classes") or []
        # damage is a repairable condition, not a death sentence: the
        # watcher keeps producing numbers from what it already ingested,
        # so readiness degrades (run ``repro doctor --repair``) but the
        # session is never judged unhealthy on this check alone
        state = STATE_DEGRADED if errors > 0 else STATE_OK
        detail = (f"{errors} integrity error(s) found by the background "
                  f"scrub ({', '.join(classes)}); run repro doctor --repair"
                  if errors else "background scrub clean")
        health.checks.append(Check(
            "doctor.damage", state, float(errors), 0.0, detail))

    age = sample.get("checkpoint_age_seconds")
    if age is not None and rules.max_checkpoint_age is not None:
        state = _escalate(float(age), rules.max_checkpoint_age,
                          rules.unhealthy_factor)
        health.checks.append(Check(
            "checkpoint.age_seconds", state, float(age),
            rules.max_checkpoint_age,
            f"stream checkpoint last written {float(age):.0f}s ago "
            f"(threshold {rules.max_checkpoint_age:g}s)"))

    for check in health.checks:
        if _RANK[check.state] > _RANK[health.state]:
            health.state = check.state
    return health
