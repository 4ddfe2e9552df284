"""Typed damage and repair vocabulary for the integrity doctor.

A scrub pass produces a :class:`DamageReport`: one :class:`Damage` per
broken artifact, naming *what* is damaged (artifact path + kind), *how*
(a stable damage-class tag), *how bad* (severity), and *what the repair
engine would do about it* (a repair-plan tag plus the parameters the
plan needs, e.g. the byte offset a torn journal must be truncated at).
The repair engine then produces a :class:`RepairReport`: one
:class:`RepairAction` per plan it executed, plus the damages it had to
declare unrecoverable (those artifacts are quarantined, never silently
dropped).

Both reports render for humans (``format``) and machines (``to_json``);
the CLI's ``--json`` output is exactly ``to_json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: severity levels, mirroring ValidationIssue
SEVERITIES = ("warning", "error")


@dataclass(frozen=True)
class Damage:
    """One damaged durable artifact found by the scrub pass."""

    #: corpus-relative path of the damaged artifact
    artifact: str
    #: artifact kind: "journal" | "segment" | "corpus-file" | "manifest" |
    #: "stream-checkpoint" | "cache-entry" | "obs-snapshot" |
    #: "obs-events" | "tap-offset" | "tmp"
    kind: str
    #: stable damage-class tag, e.g. "torn-tail", "checksum-drift"
    damage: str
    severity: str
    detail: str
    #: repair-plan tag the engine dispatches on, e.g. "truncate-journal"
    plan: str
    #: plan parameters (byte offsets, day numbers, stored config, …)
    context: dict = field(default_factory=dict, compare=False)

    def __str__(self) -> str:
        return (f"[{self.severity}] {self.kind}/{self.damage} "
                f"{self.artifact}: {self.detail} (repair: {self.plan})")

    def to_json(self) -> dict:
        return {"artifact": self.artifact, "kind": self.kind,
                "damage": self.damage, "severity": self.severity,
                "detail": self.detail, "plan": self.plan,
                "context": dict(self.context)}


@dataclass
class DamageReport:
    """Everything one scrub pass learned about a corpus directory."""

    corpus_dir: str
    damages: List[Damage] = field(default_factory=list)
    #: artifact kind -> how many artifacts of that kind were examined
    scanned: Dict[str, int] = field(default_factory=dict)
    #: whether file contents were re-hashed (deep) or only structure,
    #: sizes, and schemas were checked (quick — the watch scrub tick)
    deep: bool = True

    @property
    def clean(self) -> bool:
        return not self.damages

    @property
    def errors(self) -> List[Damage]:
        return [d for d in self.damages if d.severity == "error"]

    def add(self, damage: Damage) -> None:
        self.damages.append(damage)

    def count(self, kind: str, n: int = 1) -> None:
        self.scanned[kind] = self.scanned.get(kind, 0) + n

    def classes(self) -> List[str]:
        return sorted({d.damage for d in self.damages})

    def format(self) -> str:
        mode = "deep" if self.deep else "quick"
        total = sum(self.scanned.values())
        lines = [f"doctor {self.corpus_dir}: "
                 f"{'CLEAN' if self.clean else 'DAMAGED'} "
                 f"({mode} scrub, {total} artifacts examined)"]
        for damage in self.damages:
            lines.append(f"  {damage}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "corpus_dir": self.corpus_dir,
            "clean": self.clean,
            "deep": self.deep,
            "scanned": dict(self.scanned),
            "damages": [d.to_json() for d in self.damages],
        }


@dataclass
class RepairAction:
    """One repair plan the engine executed (or failed to)."""

    plan: str
    artifact: str
    ok: bool
    detail: str = ""

    def __str__(self) -> str:
        status = "repaired" if self.ok else "FAILED"
        tail = f": {self.detail}" if self.detail else ""
        return f"{status} {self.plan} {self.artifact}{tail}"

    def to_json(self) -> dict:
        return {"plan": self.plan, "artifact": self.artifact,
                "ok": self.ok, "detail": self.detail}


@dataclass
class RepairReport:
    """What one ``doctor --repair`` pass did."""

    corpus_dir: str
    actions: List[RepairAction] = field(default_factory=list)
    #: damages no redundancy exists for; their artifacts were quarantined
    unrecoverable: List[Damage] = field(default_factory=list)
    #: the post-repair verification scrub (attached by the caller)
    verified: Optional[DamageReport] = None

    @property
    def ok(self) -> bool:
        """Every executed action succeeded and nothing was unrecoverable."""
        return (all(action.ok for action in self.actions)
                and not self.unrecoverable)

    def format(self) -> str:
        lines = [f"doctor --repair {self.corpus_dir}: "
                 f"{len(self.actions)} actions, "
                 f"{len(self.unrecoverable)} unrecoverable"]
        for action in self.actions:
            lines.append(f"  {action}")
        for damage in self.unrecoverable:
            lines.append(f"  unrecoverable: {damage}")
        if self.verified is not None:
            lines.append(f"  re-scrub: "
                         f"{'CLEAN' if self.verified.clean else 'DAMAGED'}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "corpus_dir": self.corpus_dir,
            "ok": self.ok,
            "actions": [a.to_json() for a in self.actions],
            "unrecoverable": [d.to_json() for d in self.unrecoverable],
            "verified": None if self.verified is None
            else self.verified.to_json(),
        }
