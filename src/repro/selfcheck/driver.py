"""Run selfcheck on one tree: parse it, run every pass, check suppressions."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.selfcheck.core import (
    FRAMEWORK_CODES,
    Finding,
    LintContext,
    SourceTree,
)
from repro.selfcheck.passes import ALL_PASSES, PASS_CODES

#: Every code the tool can emit, for suppression validation and docs.
ALL_CODES = {**FRAMEWORK_CODES, **PASS_CODES}


@dataclass
class SelfcheckReport:
    """Outcome of one selfcheck run over one source tree."""

    root: str
    #: Files scanned (rel paths).
    scanned: "list[str]" = field(default_factory=list)
    #: Findings that fail the run (suppressed ones are never recorded).
    active: "list[Finding]" = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.active

    def to_payload(self) -> "dict[str, object]":
        return {
            "root": self.root,
            "scanned": len(self.scanned),
            "ok": self.ok,
            "active": [
                {
                    "severity": finding.severity.value,
                    "code": finding.code,
                    "path": finding.path,
                    "line": finding.line,
                    "context": finding.context,
                    "message": finding.message,
                }
                for finding in self.active
            ],
        }


def _finding_order(finding: Finding) -> "tuple[str, int, str, str]":
    return (finding.path, finding.line, finding.code, finding.message)


def run_selfcheck(root: str,
                  env_md_path: "str | None" = None) -> SelfcheckReport:
    """Scan ``root`` and run every pass; suppressions apply per line."""
    tree = SourceTree(root)
    ctx = LintContext(tree, env_md_path=env_md_path)

    for sf in tree.files:
        if sf.parse_error is not None:
            ctx.emit(
                "SC001",
                f"file does not parse: {sf.parse_error.msg}",
                path=sf.rel, line=sf.parse_error.lineno or 0,
                context="<module>",
            )
    for pass_module in ALL_PASSES:
        pass_module.run(ctx)

    # Suppression hygiene: every suppression comment must have absorbed
    # a finding (SC002) and name a code the tool can emit (SC003).
    for sf in tree.files:
        for line, codes in sorted(sf.suppressions.items()):
            for code in sorted(codes):
                if code != "all" and code not in ALL_CODES:
                    ctx.emit(
                        "SC003",
                        f"suppression names unknown code {code!r}",
                        path=sf.rel, line=line,
                        context=sf.context_at(line),
                    )
                elif (line, code) not in sf.used_suppressions:
                    ctx.emit(
                        "SC002",
                        f"suppression of {code} absorbed no finding — "
                        f"delete the stale comment",
                        path=sf.rel, line=line,
                        context=sf.context_at(line),
                    )

    return SelfcheckReport(
        root=tree.root,
        scanned=[sf.rel for sf in tree.files],
        active=sorted(ctx.findings, key=_finding_order),
    )
