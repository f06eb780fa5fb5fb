"""Diagnostics: stable rule codes, severities, and source locations.

Every finding of the analyzer is a :class:`Diagnostic` tagged with one of
the ``ZAR0xx`` rule codes below.  The codes are a stable public interface:
tests, CI gates, and downstream tooling match on them, so codes are never
renumbered -- retired rules leave a hole.

========  ====================  ========  =====================================
Code      Name                  Severity  Meaning
========  ====================  ========  =====================================
ZAR001    divergent-loop        error*    loop can never exit (error) or has
                                          no provable escape probability
                                          (warning)
ZAR002    infeasible-observe    error     conditioning can never be satisfied
                                          (certain rejection)
ZAR003    dead-branch           warning   branch/loop body with no reachable
                                          mass; pruned by the compiler pass
ZAR004    unbounded-bit-cost    warning   expected bits consumed per sample
                                          is unbounded
ZAR005    invalid-probability   error     choice probability outside [0, 1]
ZAR006    invalid-uniform-range error     uniform range that is (or may be)
                                          non-positive
ZAR007    unassigned-read       info      variable read before any assignment
                                          (defaults to 0)
ZAR008    analysis-incomplete   info      a budget (widening threshold, path
                                          or work cap) truncated the analysis
ZAR009    bit-cost              info      Knuth--Yao entropy bound vs the
                                          expected bits of the compiled tree
========  ====================  ========  =====================================

(*) ZAR001 is emitted at ``error`` severity only for *certain* divergence;
possible divergence (escape lower bound 0) is a warning.
"""

from enum import IntEnum
from typing import Any, Dict, List, Optional, Tuple


class Severity(IntEnum):
    """Diagnostic severities, ordered so ``max()`` picks the worst."""

    INFO = 1
    WARNING = 2
    ERROR = 3

    @property
    def label(self) -> str:
        return self.name.lower()


class Rule(object):
    """A stable diagnostic rule: code, mnemonic name, default severity."""

    __slots__ = ("code", "name", "default_severity", "summary")

    def __init__(
        self, code: str, name: str, default_severity: Severity, summary: str
    ) -> None:
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "default_severity", default_severity)
        object.__setattr__(self, "summary", summary)

    def __setattr__(self, *_: object) -> None:
        raise AttributeError("Rule is immutable")

    def __repr__(self) -> str:
        return "Rule(%s, %s)" % (self.code, self.name)


_RULE_LIST = (
    Rule(
        "ZAR001",
        "divergent-loop",
        Severity.ERROR,
        "loop with no provable escape",
    ),
    Rule(
        "ZAR002",
        "infeasible-observe",
        Severity.ERROR,
        "conditioning that can never be satisfied",
    ),
    Rule(
        "ZAR003",
        "dead-branch",
        Severity.WARNING,
        "branch or loop body with no reachable probability mass",
    ),
    Rule(
        "ZAR004",
        "unbounded-bit-cost",
        Severity.WARNING,
        "unbounded expected bits per sample",
    ),
    Rule(
        "ZAR005",
        "invalid-probability",
        Severity.ERROR,
        "choice probability outside [0, 1]",
    ),
    Rule(
        "ZAR006",
        "invalid-uniform-range",
        Severity.ERROR,
        "non-positive uniform range",
    ),
    Rule(
        "ZAR007",
        "unassigned-read",
        Severity.INFO,
        "variable read before assignment (reads as 0)",
    ),
    Rule(
        "ZAR008",
        "analysis-incomplete",
        Severity.INFO,
        "an analysis budget was exhausted; results are partial",
    ),
    Rule(
        "ZAR009",
        "bit-cost",
        Severity.INFO,
        "entropy lower bound vs expected bits per sample",
    ),
)

RULES: Dict[str, Rule] = {rule.code: rule for rule in _RULE_LIST}


class Diagnostic(object):
    """A single analyzer finding, locatable two ways: a dotted *path* into
    the command term (``second.body.first`` ...) that survives
    normalization, and -- when the program came from source -- a 1-based
    line/column."""

    __slots__ = ("code", "severity", "message", "path", "line", "column")

    def __init__(
        self,
        code: str,
        message: str,
        path: Tuple[str, ...] = (),
        severity: Optional[Severity] = None,
        line: Optional[int] = None,
        column: Optional[int] = None,
    ) -> None:
        if code not in RULES:
            raise ValueError("unknown rule code %r" % (code,))
        object.__setattr__(self, "code", code)
        object.__setattr__(
            self,
            "severity",
            RULES[code].default_severity if severity is None else severity,
        )
        object.__setattr__(self, "message", message)
        object.__setattr__(self, "path", tuple(path))
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "column", column)

    def __setattr__(self, *_: object) -> None:
        raise AttributeError("Diagnostic is immutable")

    @property
    def rule(self) -> Rule:
        return RULES[self.code]

    def located(self, line: int, column: int) -> "Diagnostic":
        return Diagnostic(
            self.code, self.message, self.path, self.severity, line, column
        )

    def where(self) -> str:
        """Human-readable location: ``line:col`` when known, else the
        term path, else ``<program>``."""
        if self.line is not None:
            return "%d:%d" % (self.line, self.column or 0)
        if self.path:
            return "at %s" % ".".join(self.path)
        return "<program>"

    def to_dict(self) -> Dict[str, Any]:
        """The schema-stable JSON form (covered by tests; extend, do not
        rename fields)."""
        return {
            "code": self.code,
            "rule": self.rule.name,
            "severity": self.severity.label,
            "message": self.message,
            "path": ".".join(self.path),
            "line": self.line,
            "column": self.column,
        }

    def render(self) -> str:
        return "%s: %s[%s]: %s" % (
            self.where(),
            self.severity.label,
            self.code,
            self.message,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Diagnostic):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        return hash((self.code, self.message, self.path, self.line))

    def __repr__(self) -> str:
        return "Diagnostic(%s)" % (self.render(),)


def exit_code(diagnostics: List[Diagnostic]) -> int:
    """CLI exit status: 2 if any error, 1 if any warning, else 0."""
    worst = max(
        (d.severity for d in diagnostics), default=Severity.INFO
    )
    if worst >= Severity.ERROR:
        return 2
    if worst >= Severity.WARNING:
        return 1
    return 0
