"""Developer tooling: the ``repro check`` invariant lint engine.

The engine's correctness story rests on a handful of hand-enforced
invariants — block reductions accumulate no floats (exact integer
totals, one division), lock-guarded state must stay behind its lock,
cached arrays must come back read-only, hot block kernels must not
allocate.  This package checks them mechanically with a zero-dependency
stdlib-``ast`` lint framework (:mod:`repro.devtools.lint`) hosting the
project rules in :mod:`repro.devtools.rules`.

Run it as ``repro check`` (or ``python -m repro check``); see
``docs/static-analysis.md`` for the rule catalogue and suppression
policy.
"""

from repro.devtools.lint import (
    LINT_VERSION,
    Finding,
    LintRule,
    format_json,
    format_text,
    lint_paths,
)
from repro.devtools.rules import all_rules

__all__ = [
    "LINT_VERSION",
    "Finding",
    "LintRule",
    "all_rules",
    "format_json",
    "format_text",
    "lint_paths",
]
