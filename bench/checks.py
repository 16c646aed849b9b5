"""Output checks behind ``failed_share``, ``ledger_match_share`` and ``exact_doc_share``.

Every CLI invocation and every traced pass is one attempted operation. It
fails on any of:

- a non-zero exit;
- ``Traceback`` on stderr;
- a report that is not byte-identical to the first one of its family
  (serial analyze, parallel analyze and the traced pass form one family,
  repeated score runs another);
- an analyze report whose per-document error counts differ from the
  injection ledger, or a score report whose scores differ from analyze's;
- a ``count-matchings 1 1`` that does not print 2.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass

SETUP_EXPECTED = b"2"


@dataclass(frozen=True)
class Invocation:
    kind: str  # "analyze", "analyze_parallel", "score", "setup" or "trace"
    exit_code: int
    stderr: str
    output: bytes


def ledger_matches(report: dict, ledger: dict) -> int:
    """Documents whose reported per-doc error counts equal the ledger's."""
    reported = report.get("errors", {}).get("per_doc", {})
    return sum(reported.get(doc_id) == expected for doc_id, expected in ledger["per_doc"].items())


class OutputChecker:
    def __init__(self, ledger: dict):
        self.ledger = ledger
        self.docs = len(ledger["per_doc"])
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()
        self.reference: dict[str, str] = {}
        self.reference_report: dict | None = None
        self.ledger_checked = 0
        self.ledger_matched = 0

    def check(self, inv: Invocation) -> list[str]:
        """Record one invocation and return why it failed (empty if it passed)."""
        reasons = []
        if inv.exit_code != 0:
            reasons.append("exit")
        if "Traceback" in inv.stderr:
            reasons.append("traceback")
        if inv.kind == "setup":
            if inv.output.strip() != SETUP_EXPECTED:
                reasons.append("output")
        else:
            reasons.extend(self._check_report(inv))
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.reasons.update(f"{inv.kind}:{r}" for r in reasons)
        return reasons

    def _check_report(self, inv: Invocation) -> list[str]:
        reasons = []
        digest = hashlib.sha256(inv.output).hexdigest()
        family = "score" if inv.kind == "score" else "analyze"
        if self.reference.setdefault(family, digest) != digest:
            reasons.append("not_identical")
        try:
            report = json.loads(inv.output)
        except ValueError:
            report = {}
            reasons.append("unparsable")
        if family == "analyze":
            matched = ledger_matches(report, self.ledger)
            self.ledger_checked += self.docs
            self.ledger_matched += matched
            if matched != self.docs:
                reasons.append("ledger")
            if self.reference_report is None and not reasons:
                self.reference_report = report
        elif self.reference_report is None or report.get("scores") != self.reference_report["scores"]:
            reasons.append("scores")
        return reasons

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def ledger_match_share(self) -> float:
        return self.ledger_matched / self.ledger_checked if self.ledger_checked else 0.0

    @property
    def exact_doc_share(self) -> float:
        """Documents neither skipped nor approximate in the reference analyze report."""
        report = self.reference_report
        if report is None:
            return 0.0
        inexact = len(report["skipped_documents"]) + len(report["approximate_documents"])
        return (self.docs - inexact) / self.docs

    @property
    def report_sha256(self) -> str | None:
        return self.reference.get("analyze")
