"""Report structures and canonical JSON serialization.

Reports are deterministic: dictionaries are emitted with sorted keys, floats
with shortest round-trip repr, and no timestamps or environment-dependent
fields, so identical run configurations produce byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

SCHEMA_VERSION = 1

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

_ORDER = {FAIL: 2, INCONCLUSIVE: 1, PASS: 0}


def classify_distance(value: float, tol: float, floor: float) -> str:
    """pass if within tolerance; inconclusive when the requested tolerance is
    finer than what binary64 can certify (value at numeric-noise level)."""
    if value <= tol:
        return PASS
    if value <= floor:
        return INCONCLUSIVE
    return FAIL


def worst(statuses) -> str:
    statuses = list(statuses)
    if not statuses:
        return PASS
    return max(statuses, key=lambda s: _ORDER[s])


@dataclass
class CheckResult:
    name: str
    status: str
    value: Optional[float] = None
    threshold: Optional[float] = None
    note: str = ""

    def to_json(self) -> dict:
        d = {"name": self.name, "status": self.status}
        if self.value is not None:
            d["value"] = float(self.value)
        if self.threshold is not None:
            d["threshold"] = float(self.threshold)
        if self.note:
            d["note"] = self.note
        return d


@dataclass
class ClaimReport:
    claim_id: str
    kind: str
    checks: list = field(default_factory=list)
    grids: dict = field(default_factory=dict)
    anchors: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        return worst(c.status for c in self.checks)

    def add(self, name, status, value=None, threshold=None, note="") -> CheckResult:
        c = CheckResult(name, status, value, threshold, note)
        self.checks.append(c)
        return c

    def add_distance(self, name, value, tol, floor, note="") -> CheckResult:
        return self.add(name, classify_distance(value, tol, floor), value, tol, note)

    def add_margin(self, name, value, minimum, note="") -> CheckResult:
        status = PASS if value > minimum else FAIL
        return self.add(name, status, value, minimum, note)

    def to_json(self) -> dict:
        return {
            "claim": self.claim_id,
            "kind": self.kind,
            "verdict": self.verdict,
            "checks": [c.to_json() for c in self.checks],
            "grids": self.grids,
            "anchors": list(self.anchors),
            "notes": list(self.notes),
            **({"extra": self.extra} if self.extra else {}),
        }


@dataclass
class RunReport:
    config: dict
    claims: dict = field(default_factory=dict)       # id -> ClaimReport
    braid: dict = field(default_factory=dict)        # family -> report json
    winding_tables: dict = field(default_factory=dict)
    certificates: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def summary(self) -> dict:
        counts = {PASS: 0, FAIL: 0, INCONCLUSIVE: 0}
        for rep in self.claims.values():
            counts[rep.verdict] += 1
        for fam in self.braid.values():
            counts[PASS if fam.get("ok") else FAIL] += 1
        return {
            "pass": counts[PASS],
            "fail": counts[FAIL],
            "inconclusive": counts[INCONCLUSIVE],
            "families": len(self.claims) + len(self.braid),
        }

    def exit_code(self) -> int:
        s = self.summary()
        if s["fail"]:
            return 1
        if s["inconclusive"]:
            return 2
        return 0

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config,
            "claims": {cid: rep.to_json() for cid, rep in sorted(self.claims.items())},
            "braid": {k: v for k, v in sorted(self.braid.items())},
            "winding_tables": self.winding_tables,
            "certificates": self.certificates,
            "summary": self.summary(),
            "notes": list(self.notes),
        }


def _numpy_scalar(obj):
    """``json.dumps`` hook for the numpy scalars it cannot write (bool_,
    integers, float32); float64 is a ``float`` and needs none."""
    import numpy as np

    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, default=_numpy_scalar) + "\n"


def _claim_order(cid: str):
    return (int(cid[1:]), cid) if cid[1:].isdigit() else (10 ** 6, cid)


def render_text(report_json: dict) -> str:
    """Short human-readable summary, one line per claim family."""
    lines = []
    for cid in sorted(report_json["claims"], key=_claim_order):
        rep = report_json["claims"][cid]
        lines.append(f"{cid:6s} {rep['verdict']:12s} {len(rep['checks'])} checks")
        for c in rep["checks"]:
            if c["status"] != PASS:
                lines.append(f"       - {c['name']}: {c['status']}"
                             + (f" (value {c.get('value'):.3e})" if "value" in c else ""))
    for fam, r in report_json["braid"].items():
        lines.append(f"{fam:6s} {'pass' if r['ok'] else 'fail':12s} "
                     f"{r['identities']} identities over {r['tuples']} tuples")
    s = report_json["summary"]
    lines.append(
        f"total: {s['pass']} pass, {s['fail']} fail, {s['inconclusive']} inconclusive"
    )
    return "\n".join(lines) + "\n"
