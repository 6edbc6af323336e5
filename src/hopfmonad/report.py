"""Check results and deterministic report serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .cat import GradedMor

PASS = "pass"
FAIL = "fail"
SKIP = "skip"


def _mor_payload(m: GradedMor) -> dict:
    f = m.field
    blocks = {}
    for (i, l) in sorted(m.blocks):
        blocks[f"{i},{l}"] = [[f.show(v) for v in row] for row in m.block(i, l).tolist()]
    return {
        "source_dims": m.src.dims_grid(),
        "target_dims": m.dst.dims_grid(),
        "blocks": blocks,
    }


@dataclass
class CheckResult:
    check: str
    status: str
    simple: tuple | None = None  # simple tuple label, e.g. ((0,1),(1,0))
    witness: GradedMor | None = None
    note: str = ""

    def to_json(self) -> dict:
        out = {"check": self.check, "status": self.status}
        if self.simple is not None:
            out["simple"] = [list(g) for g in self.simple]
        if self.witness is not None:
            out["witness"] = _mor_payload(self.witness)
        if self.note:
            out["note"] = self.note
        return out

    def line(self) -> str:
        where = ""
        if self.simple:
            where = " at simple " + "".join(f"({i},{j})" for i, j in self.simple)
        tail = f" [{self.note}]" if self.note else ""
        return f"{self.status.upper():4s} {self.check}{where}{tail}"


@dataclass
class Report:
    name: str
    results: list = field(default_factory=list)
    info: dict = field(default_factory=dict)
    # structures the run built, for callers; never serialized
    built: dict = field(default_factory=dict, repr=False, compare=False)

    def add(self, result: CheckResult) -> "Report":
        self.results.append(result)
        return self

    def record(self, check: str, ok: bool, simple=None, witness=None, note="") -> bool:
        if ok:
            self.add(CheckResult(check, PASS, note=note))
        else:
            self.add(CheckResult(check, FAIL, simple=simple, witness=witness, note=note))
        return ok

    def skip(self, check: str, note: str = ""):
        self.add(CheckResult(check, SKIP, note=note))

    def merge(self, other: "Report") -> "Report":
        self.results.extend(other.results)
        for k, v in other.info.items():
            self.info.setdefault(k, v)
        return self

    @property
    def passed(self) -> bool:
        return all(r.status != FAIL for r in self.results)

    def failures(self) -> list:
        return [r for r in self.results if r.status == FAIL]

    def find(self, check: str) -> CheckResult | None:
        for r in self.results:
            if r.check == check:
                return r
        return None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "info": {k: self.info[k] for k in sorted(self.info)},
            "checks": [r.to_json() for r in self.results],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    def lines(self) -> list[str]:
        out = [f"== {self.name}: {'PASS' if self.passed else 'FAIL'}"]
        out.extend("  " + r.line() for r in self.results)
        return out

