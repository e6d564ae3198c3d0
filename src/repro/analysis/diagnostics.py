"""Shared diagnostic model for the static verification suite.

Every analysis pass reports :class:`Diagnostic` records with a stable
``RAnnn`` code, a severity, and a source locus, collected into a
:class:`CheckResult`.  Codes are stable API: tools (CI gates, waiver
files, tests) key on them, so a code is never reused for a different
condition.

The single source of truth for the code space is :data:`REGISTRY`
(code -> :class:`CodeInfo`: default severity, one-line summary, emitting
pass); the table in ``docs/static-analysis.md`` is asserted to match it
exactly by the test suite.  Passes construct findings through
:meth:`Diagnostic.new`, which fills the severity and pass name from the
registry so per-module severity literals cannot drift.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

__all__ = [
    "CODES",
    "REGISTRY",
    "CheckResult",
    "CodeInfo",
    "Diagnostic",
    "Severity",
]


class Severity(enum.Enum):
    """Diagnostic severity; ``ERROR`` findings gate CI (nonzero exit)."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        """Sort key: more severe first."""
        return {"error": 0, "warning": 1, "info": 2}[self.value]


@dataclass(frozen=True)
class CodeInfo:
    """Registry entry of one stable diagnostic code.

    Attributes:
        severity: the default severity a finding of this code carries
            (a pass may override it for a specific site, e.g. ``RA102``
            is a warning when the plan disables DLB movement).
        summary: one-line condition summary, mirrored verbatim in the
            docs table.
        pass_name: the emitting pass (``owner`` | ``comm`` | ``movement``
            | ``protocol`` | ``replay`` | ``model`` | ``injector``).
    """

    severity: Severity
    summary: str
    pass_name: str


_E = Severity.ERROR
_W = Severity.WARNING
_I = Severity.INFO

REGISTRY: dict[str, CodeInfo] = {
    # Owner-computes checker (RA1xx)
    "RA101": CodeInfo(
        _E, "write to a non-owned element of a distributed array", "owner"
    ),
    "RA102": CodeInfo(
        _E,
        "write to a distributed array independent of the distributed "
        "loop without reduction-front machinery",
        "owner",
    ),
    "RA103": CodeInfo(
        _E, "front-style write whose subscript is not an owned unit id", "owner"
    ),
    "RA104": CodeInfo(
        _W, "write to a replicated array inside the distributed loop", "owner"
    ),
    # Communication-completeness checker (RA2xx)
    "RA201": CodeInfo(
        _E, "loop-carried flow dependence not covered by a modelled message", "comm"
    ),
    "RA202": CodeInfo(
        _E,
        "anti dependence (old-value read) not covered by a modelled message",
        "comm",
    ),
    "RA203": CodeInfo(
        _E, "non-local read not covered by a broadcast channel", "comm"
    ),
    "RA204": CodeInfo(
        _W,
        "unresolvable dependence distance: conservative treatment required",
        "comm",
    ),
    "RA205": CodeInfo(
        _I, "modelled channel covers no dependence (superfluous traffic)", "comm"
    ),
    # Movement-safety checker (RA3xx)
    "RA301": CodeInfo(
        _E, "unrestricted work movement despite loop-carried dependences", "movement"
    ),
    "RA302": CodeInfo(_E, "movement payload size is not positive", "movement"),
    "RA303": CodeInfo(
        _E,
        "movement channel direction contradicts the movement constraint",
        "movement",
    ),
    "RA304": CodeInfo(
        _W,
        "carried dependence distance exceeds the modelled halo width",
        "movement",
    ),
    # Protocol lint (RA4xx)
    "RA401": CodeInfo(
        _E, "message tag family sent but never selectively received", "protocol"
    ),
    "RA402": CodeInfo(
        _E, "message tag family received but never sent", "protocol"
    ),
    "RA403": CodeInfo(
        _W, "tag family declared in the protocol but never used", "protocol"
    ),
    "RA404": CodeInfo(
        _W, "tag family consumed only by non-blocking polls", "protocol"
    ),
    "RA405": CodeInfo(
        _E,
        "control kind constructed and sent but no receiver arm handles it",
        "protocol",
    ),
    "RA406": CodeInfo(
        _W, "control kind handled by a receiver arm but never sent", "protocol"
    ),
    # Happens-before replay checker (RA5xx)
    "RA501": CodeInfo(
        _E, "element touched by two slaves without an ordering message", "replay"
    ),
    "RA502": CodeInfo(
        _W, "event log carries no access events; replay check is vacuous", "replay"
    ),
    "RA503": CodeInfo(
        _W, "access event malformed; element accounting incomplete", "replay"
    ),
    # Protocol model checker: deadlock/liveness (RA6xx)
    "RA601": CodeInfo(
        _E,
        "model: reachable non-quiescent state with no enabled transition "
        "(deadlock)",
        "model",
    ),
    "RA602": CodeInfo(
        _E,
        "model: reachable state from which termination is unreachable "
        "(livelock)",
        "model",
    ),
    "RA603": CodeInfo(
        _I,
        "model: exploration budget exhausted; verification was bounded, "
        "not exhaustive",
        "model",
    ),
    # Protocol model checker: safety invariants (RA7xx)
    "RA701": CodeInfo(
        _E, "model: work unit lost (conservation undercount)", "model"
    ),
    "RA702": CodeInfo(
        _E,
        "model: work unit duplicated or owned by more than one actor",
        "model",
    ),
    "RA703": CodeInfo(
        _E,
        "model: era/epoch monotonicity violated (stale state applied)",
        "model",
    ),
    "RA704": CodeInfo(
        _E, "model: protocol-specific safety invariant violated", "model"
    ),
    # Injector equivalence (RA8xx)
    "RA801": CodeInfo(
        _E,
        "injector: trace under a silent fault injector not byte-identical "
        "to the uninjected run",
        "injector",
    ),
    "RA802": CodeInfo(
        _E,
        "injector: run outcome (results/metrics) under a silent fault "
        "injector diverges from the uninjected run",
        "injector",
    ),
}

#: Backward-compatible view: code -> one-line summary.
CODES: dict[str, str] = {code: info.summary for code, info in REGISTRY.items()}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one analysis pass.

    Attributes:
        code: stable ``RAnnn`` identifier (a :data:`REGISTRY` key).
        severity: finding severity.
        message: human-readable description of this occurrence.
        pass_name: emitting pass (``owner`` | ``comm`` | ``movement`` |
            ``protocol`` | ``replay`` | ``model`` | ``injector``).
        locus: source position of the finding — a statement label, a
            ``file:line``, a plan name, or a unit id, whichever the pass
            can pinpoint.
        details: small JSON-safe annotations (distances, pids, tags).
    """

    code: str
    severity: Severity
    message: str
    pass_name: str
    locus: str = ""
    details: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.code not in REGISTRY:
            raise ValueError(f"unknown diagnostic code {self.code!r}")

    @classmethod
    def new(
        cls,
        code: str,
        message: str,
        *,
        locus: str = "",
        details: Mapping[str, object] | None = None,
        severity: Severity | None = None,
    ) -> "Diagnostic":
        """Construct a finding with severity and pass from the registry.

        ``severity`` overrides the registry default for the rare code
        whose weight is site-dependent.
        """
        info = REGISTRY[code]
        return cls(
            code=code,
            severity=severity if severity is not None else info.severity,
            message=message,
            pass_name=info.pass_name,
            locus=locus,
            details=details if details is not None else {},
        )

    def to_dict(self) -> dict[str, object]:
        """Flat JSON-safe representation."""
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "pass": self.pass_name,
            "locus": self.locus,
            "details": dict(self.details),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Diagnostic":
        """Inverse of :meth:`to_dict`; raises ``ValueError`` on bad shapes."""
        details = data.get("details", {})
        return cls(
            code=str(data["code"]),
            severity=Severity(str(data["severity"])),
            message=str(data["message"]),
            pass_name=str(data["pass"]),
            locus=str(data.get("locus", "")),
            details=dict(details) if isinstance(details, Mapping) else {},
        )

    def format(self) -> str:
        """One-line rendering: ``RA101 error [owner] locus: message``."""
        where = f" {self.locus}:" if self.locus else ":"
        return (
            f"{self.code} {self.severity.value} "
            f"[{self.pass_name}]{where} {self.message}"
        )


@dataclass
class CheckResult:
    """All diagnostics of one checked subject (one plan, one log, ...)."""

    subject: str
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def extend(self, found: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(found)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    def by_code(self, code: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    @property
    def ok(self) -> bool:
        """True when no error-severity finding was reported."""
        return not self.errors()

    def sorted(self) -> list[Diagnostic]:
        """Diagnostics ordered most-severe first, then by code."""
        return sorted(
            self.diagnostics, key=lambda d: (d.severity.rank, d.code, d.locus)
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "counts": {
                sev.value: sum(
                    1 for d in self.diagnostics if d.severity is sev
                )
                for sev in Severity
            },
            "diagnostics": [d.to_dict() for d in self.sorted()],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CheckResult":
        raw = data.get("diagnostics", [])
        if not isinstance(raw, list):
            raise ValueError("diagnostics must be a list")
        return cls(
            subject=str(data.get("subject", "")),
            diagnostics=[
                Diagnostic.from_dict(item)
                for item in raw
                if isinstance(item, Mapping)
            ],
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [f"check {self.subject}: " + ("OK" if self.ok else "FAILED")]
        for d in self.sorted():
            lines.append("  " + d.format())
            trace = d.details.get("trace")
            if isinstance(trace, (list, tuple)):
                lines.extend(f"      {step}" for step in trace)
        if not self.diagnostics:
            lines.append("  no findings")
        return "\n".join(lines)
