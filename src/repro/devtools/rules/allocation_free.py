"""R004 — the declared hot kernels may not allocate.

PR 5 made the block kernels allocation-free: every temporary comes
from per-thread ``ScratchBuffers.take`` (or an ``out=`` parameter), so
steady-state block streaming does zero allocator traffic regardless of
block count.  That property is what lets a chunked sweep of a
beyond-RAM grid run at a flat memory ceiling and keeps the threaded
scheduler from serializing on the allocator.

It is also trivially easy to regress: one innocent ``np.zeros`` inside
a per-block loop re-introduces an allocation *per block per thread*
and nothing fails — throughput just sags.  This rule pins the
invariant to a declared hot-kernel set and flags any allocating NumPy
constructor (or ``.copy()``/``.astype()``) inside those functions,
nested helpers included.

``scratch.take(tag, shape, dtype)`` is the sanctioned allocator —
it reuses a keyed buffer after the first block — and ufuncs with
``out=`` targets are what the kernels are built from; neither is
flagged.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List

from repro.devtools.lint import Finding, LintRule, path_matches
from repro.devtools.rules._common import is_np_attr, numpy_aliases
from repro.devtools.rules.readonly_returns import ALLOCATORS

#: The allocation-free contract, by file: these functions (PR 5 block
#: kernels) run once per block per thread and must only use scratch.
HOT_KERNELS: Dict[str, FrozenSet[str]] = {
    "engine/chunked.py": frozenset(
        {
            "slab_neighbor_counts",
            "accumulate_block_pairs",
            "nn_planes",
            "_nn_range_kernel",
        }
    ),
    "engine/threads.py": frozenset({"_block_max_distance"}),
    "engine/context.py": frozenset({"_nn_values_blockwise"}),
}



class AllocationFreeRule(LintRule):
    rule_id = "R004"
    title = "allocation inside an allocation-free hot kernel"
    rationale = (
        "the PR 5 block kernels run once per block per thread; any "
        "NumPy constructor there re-introduces per-block allocator "
        "traffic that the scratch-buffer design exists to eliminate"
    )
    version = 1
    scope = tuple(HOT_KERNELS)

    def check(self, tree: ast.Module, path: str) -> List[Finding]:
        aliases = numpy_aliases(tree)
        names = self._kernel_names(path)
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if (
                not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                or node.name not in names
            ):
                continue
            for inner in ast.walk(node):
                if not isinstance(inner, ast.Call):
                    continue
                func = inner.func
                if is_np_attr(func, aliases, ALLOCATORS):
                    findings.append(
                        self.finding(
                            path,
                            inner,
                            f"np.{func.attr} allocates inside hot kernel "
                            f"'{node.name}'; take the buffer from "
                            "scratch.take(...) or accept it as out=",
                        )
                    )
                elif isinstance(func, ast.Attribute) and (
                    func.attr == "astype"
                    or (
                        func.attr == "copy"
                        and not inner.args
                        and not inner.keywords
                    )
                ):
                    findings.append(
                        self.finding(
                            path,
                            inner,
                            f".{func.attr}() allocates inside hot kernel "
                            f"'{node.name}'; copy into a scratch buffer "
                            "with np.copyto(scratch.take(...), src)",
                        )
                    )
        return findings

    @staticmethod
    def _kernel_names(path: str) -> FrozenSet[str]:
        """The declared kernel set for ``path``; when the path matches
        no registry entry (a fixture run under ``force=True``), every
        declared kernel name applies."""
        for pattern, names in HOT_KERNELS.items():
            if path_matches(path, pattern):
                return names
        return frozenset().union(*HOT_KERNELS.values())
