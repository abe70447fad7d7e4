"""Deterministic check reports.

Every checker in the package builds its own ``Report`` of ``ReportEntry``
rows.  Serialization is canonical (sorted keys, insertion order preserved)
so that identical inputs yield byte-identical report files.

A law row follows one rule, kept in ``Report.verdict``: no offenders is a
PASS whose witness is the check's counts (or none), and any offenders is a
FAIL whose witness is the first three of them.  Rows with another rule are
written with ``Report.add``:

- ``operad/associativity``, a SKIP when its budget stops it;
- the SKIP rows ``multifunctor/*-coverage``, ``timeslice/coverage`` and
  ``causality/coverage``;
- ``pseudo-operad/coverage``, DEGENERATE over zero operations;
- ``two-adjunction/counit-identity``, one verdict from two conditions;
- ``timeslice/cauchy-isos``, which says when there is no Cauchy operation;
- the ``additivity/*`` rows, DEGENERATE or SKIP on region categories that
  are empty or not filtered, and a FAIL that names why the comparison fails;
- ``causality/commutation`` without binary operations;
- ``bordism/out-cauchy`` and ``bordism/surface-order``, whose offenders are
  a single condition or the first five events.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Sequence

PASS = "pass"
FAIL = "fail"
DEGENERATE = "degenerate"
SKIP = "skip"

_STATUSES = (PASS, FAIL, DEGENERATE, SKIP)


@dataclass(frozen=True)
class ReportEntry:
    check: str
    target: str
    status: str
    witness: Any = None

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}")

    def to_json(self) -> dict:
        data = {"check": self.check, "target": self.target, "status": self.status}
        if self.witness is not None:
            data["witness"] = self.witness
        return data


@dataclass
class Report:
    entries: list[ReportEntry] = field(default_factory=list)

    def add(self, check: str, target: str, status: str, witness: Any = None) -> ReportEntry:
        entry = ReportEntry(check, target, status, witness)
        self.entries.append(entry)
        return entry

    def verdict(self, check: str, target: str, bad: Sequence,
                counts: Any = None) -> ReportEntry:
        """PASS with ``counts`` when ``bad`` is empty, else FAIL with ``bad[:3]``."""
        if bad:
            return self.add(check, target, FAIL, witness=bad[:3])
        return self.add(check, target, PASS, witness=counts)

    def extend(self, other: "Report") -> None:
        self.entries.extend(other.entries)

    @property
    def failures(self) -> list[ReportEntry]:
        return [e for e in self.entries if e.status == FAIL]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> list[dict]:
        return [e.to_json() for e in self.entries]

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    def summary(self) -> str:
        counts: dict[str, int] = {}
        for e in self.entries:
            counts[e.status] = counts.get(e.status, 0) + 1
        parts = [f"{status}={counts[status]}" for status in _STATUSES if status in counts]
        return ", ".join(parts) if parts else "empty"
