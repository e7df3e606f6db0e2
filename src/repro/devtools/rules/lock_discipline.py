"""R002 — lock-guarded attributes stay behind their lock.

PR 5's concurrency hardening fixed a real segfault whose root cause
was exactly this class of bug: state shared between threads (or
processes attached to shared memory) touched outside the lock that
guards it.  The guard registry below declares, per class, which
attributes are protected by which ``self.<lock>``; the rule flags any
``self.<attr>`` read or write in a method body that is not lexically
inside ``with self.<lock>:``.

The analysis is lexical on purpose: it cannot prove the absence of
races, but it *can* prove that every touch point sits inside a lock
block, which is the discipline the engine actually maintains.  Three
escapes keep it honest:

* ``__init__`` is exempt — no other thread can hold a reference yet;
* ``held_methods`` are helpers documented as "caller holds the lock"
  (``_BoundedStore._evict`` runs inside ``get_or_compute``'s critical
  section);
* nested functions and lambdas are treated as *not* holding the lock
  even when defined inside a ``with`` block — they may run later, on
  another thread (this is exactly how the PR 5 segfault escaped
  review).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List

from repro.devtools.lint import Finding, LintRule
from repro.devtools.rules._common import is_self_attr


@dataclass(frozen=True)
class GuardSpec:
    """Which attributes of one class are guarded by which lock."""

    lock: str
    attrs: FrozenSet[str]
    held_methods: FrozenSet[str] = field(default_factory=frozenset)


#: The engine's lock-guarded state, by class name.  Extend this when a
#: new class grows a ``_lock``; the registry *is* the documentation of
#: the locking contract.
GUARDS: Dict[str, GuardSpec] = {
    "_BoundedStore": GuardSpec(
        lock="_lock",
        attrs=frozenset({"_items", "_views", "_bytes", "stats"}),
        held_methods=frozenset({"_evict"}),
    ),
    "ContextPool": GuardSpec(
        lock="_lock",
        attrs=frozenset({"_contexts", "_curves", "_scheduler"}),
        held_methods=frozenset({"_wire_shared"}),
    ),
    "MetricContext": GuardSpec(
        lock="_scalar_lock",
        attrs=frozenset({"_scalars"}),
    ),
    "SharedGridStore": GuardSpec(
        lock="_lock",
        attrs=frozenset({"_entries", "_segments", "_views"}),
    ),
    "GridStore": GuardSpec(
        lock="_lock",
        attrs=frozenset({"counters", "_verified"}),
    ),
}


class LockDisciplineRule(LintRule):
    rule_id = "R002"
    title = "guarded attribute touched outside its lock"
    rationale = (
        "state declared lock-guarded in the guard registry must only "
        "be read or written inside 'with self.<lock>:' — the PR 5 "
        "segfault came from exactly this bug class"
    )
    version = 1
    scope = (
        "engine/context.py",
        "engine/pool.py",
        "engine/shm.py",
        "engine/store.py",
    )

    def check(self, tree: ast.Module, path: str) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            spec = GUARDS.get(node.name)
            if spec is None:
                continue
            for item in node.body:
                if not isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                if item.name == "__init__" or item.name in spec.held_methods:
                    continue
                visitor = _MethodVisitor(self, spec, path, node.name)
                for stmt in item.body:
                    visitor.visit(stmt)
                findings.extend(visitor.findings)
        return findings


class _MethodVisitor(ast.NodeVisitor):
    """Track lexical ``with self.<lock>`` depth through one method."""

    def __init__(
        self,
        rule: LockDisciplineRule,
        spec: GuardSpec,
        path: str,
        cls: str,
    ) -> None:
        self._rule = rule
        self._spec = spec
        self._path = path
        self._cls = cls
        self._depth = 0
        self.findings: List[Finding] = []

    def _is_lock_item(self, item: ast.withitem) -> bool:
        return is_self_attr(item.context_expr, self._spec.lock)

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def _visit_with(self, node) -> None:
        takes_lock = any(self._is_lock_item(item) for item in node.items)
        for item in node.items:  # the lock expression itself is exempt
            if not self._is_lock_item(item):
                self.visit(item.context_expr)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        if takes_lock:
            self._depth += 1
        for stmt in node.body:
            self.visit(stmt)
        if takes_lock:
            self._depth -= 1

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_deferred(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_deferred(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_deferred(node)

    def _visit_deferred(self, node) -> None:
        # A closure may outlive the critical section it was defined in:
        # analyze its body as if the lock were NOT held.
        saved, self._depth = self._depth, 0
        self.generic_visit(node)
        self._depth = saved

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            is_self_attr(node)
            and node.attr in self._spec.attrs
            and self._depth == 0
        ):
            self.findings.append(
                self._rule.finding(
                    self._path,
                    node,
                    f"{self._cls}.{node.attr} is guarded by "
                    f"self.{self._spec.lock} but touched outside "
                    f"'with self.{self._spec.lock}:'",
                )
            )
        self.generic_visit(node)
