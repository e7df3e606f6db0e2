"""R001 — the block engines accumulate no floats.

The engine's block paths (``engine/chunked.py``, ``engine/threads.py``)
promise results *bit-for-bit equal* in every block partition, thread
count and backend.  They keep that promise by holding no float sum:
the NN fold adds exact integer totals and divides once (``int / int``),
and the window fold takes maxima.  Any float accumulation (``np.sum``/
``np.mean`` over a whole array, ``math.fsum``, a bare ``+=`` running
total) makes a value depend on the partition's association order, so
this rule flags it at the accumulation site.

What stays legal on purpose:

* integer accumulation — association order cannot change an exact sum,
  and the block kernels fold int64 partials all over;
* axis-wise reductions (``arr.sum(axis=-1, out=...)``): those are
  element-wise folds of a fixed small width, not streaming
  accumulations, and NumPy evaluates them identically on every path;
* ``np.add.reduce`` — the primitive of ``pairwise_sum_stream``, the
  NumPy-order float stream the folds no longer call.

The rule infers float-ness structurally (float literals, true
division, ``dtype=np.float64`` arguments, ``np.sqrt``/``.astype``
results, ``scratch.take(..., np.float64)``) and stays silent when it
cannot tell: a false "not bit-for-bit" claim would train people to
ignore the checker.
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.devtools.lint import Finding, LintRule
from repro.devtools.rules._common import (
    FLOAT_DTYPE_ATTRS,
    dotted_name,
    is_np_attr,
    keyword_value,
    math_fsum_names,
    numpy_aliases,
    walk_skipping_functions,
)

#: np.<attr> calls whose result is float regardless of inputs.
_FLOAT_PRODUCERS = frozenset(
    {"sqrt", "divide", "true_divide", "mean", "average", "var", "std"}
) | FLOAT_DTYPE_ATTRS

#: Reduction method names that accumulate over a whole array.
_REDUCERS = frozenset({"sum", "mean"})

#: ndarray attributes that are integers even on float arrays.
_INT_ATTRS = frozenset({"size", "shape", "ndim", "nbytes", "itemsize"})


class FloatDeterminismRule(LintRule):
    rule_id = "R001"
    title = "float accumulation in a block engine"
    rationale = (
        "block/threaded reductions must add exact integers and divide "
        "once, or results stop being bit-for-bit equal across block "
        "partitions"
    )
    version = 1
    scope = ("engine/chunked.py", "engine/threads.py")

    def check(self, tree: ast.Module, path: str) -> List[Finding]:
        self._aliases = numpy_aliases(tree)
        self._fsums = math_fsum_names(tree)
        findings: List[Finding] = []
        for fn in self._outer_functions(tree):
            self._scan_function(fn, set(), path, findings)
        return findings

    # -- structure ------------------------------------------------------
    @staticmethod
    def _outer_functions(tree: ast.Module):
        """Functions not nested inside another function (classes are
        transparent); nested defs are visited by :meth:`_scan_function`
        with their enclosing taint environment."""
        stack = list(tree.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node
            elif isinstance(node, ast.ClassDef):
                stack.extend(node.body)

    def _scan_function(
        self,
        fn: ast.AST,
        inherited: Set[str],
        path: str,
        findings: List[Finding],
    ) -> None:
        tainted = self._float_names(fn, inherited)
        nested = []
        for node in walk_skipping_functions(fn.body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested.append(node)
                continue
            if isinstance(node, ast.Call):
                self._check_call(node, tainted, path, findings)
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.op, ast.Add
            ):
                self._check_augadd(node, tainted, path, findings)
        for inner in nested:
            self._scan_function(inner, tainted, path, findings)

    # -- float inference ------------------------------------------------
    def _float_names(self, fn: ast.AST, inherited: Set[str]) -> Set[str]:
        """Names bound to float-valued expressions, to a fixpoint."""
        tainted = set(inherited)
        assigns = [
            node
            for node in walk_skipping_functions(fn.body)
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        ]
        for _ in range(4):
            grew = False
            for node in assigns:
                value = node.value
                if value is None or not self._is_float(value, tainted):
                    continue
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id not in tainted
                    ):
                        tainted.add(target.id)
                        grew = True
            if not grew:
                break
        return tainted

    def _is_float(self, node: ast.AST, tainted: Set[str]) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.Name):
            return node.id in tainted
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Div):
                return True
            return self._is_float(node.left, tainted) or self._is_float(
                node.right, tainted
            )
        if isinstance(node, ast.UnaryOp):
            return self._is_float(node.operand, tainted)
        if isinstance(node, ast.IfExp):
            return self._is_float(node.body, tainted) or self._is_float(
                node.orelse, tainted
            )
        if isinstance(node, (ast.Subscript, ast.Starred)):
            return self._is_float(node.value, tainted)
        if isinstance(node, ast.Attribute):
            if is_np_attr(node, self._aliases, FLOAT_DTYPE_ATTRS):
                return True
            if node.attr in _INT_ATTRS:
                return False
            return self._is_float(node.value, tainted)
        if isinstance(node, ast.Call):
            return self._call_is_float(node, tainted)
        return False

    def _call_is_float(self, call: ast.Call, tainted: Set[str]) -> bool:
        func = call.func
        if isinstance(func, ast.Name) and func.id == "float":
            return True
        if is_np_attr(func, self._aliases, _FLOAT_PRODUCERS):
            return True
        if isinstance(func, ast.Attribute):
            if func.attr == "mean":
                return True
            if func.attr == "astype" and any(
                self._is_float_dtype(arg) for arg in call.args
            ):
                return True
            if self._is_float(func.value, tainted) and func.attr in (
                "reshape",
                "ravel",
                "view",
                "take",
                "max",
                "min",
                "sum",
            ):
                return True
        dtype = keyword_value(call, "dtype")
        if dtype is not None and self._is_float_dtype(dtype):
            return True
        # scratch.take("tag", shape, np.float64)-style positional dtypes.
        return any(self._is_float_dtype(arg) for arg in call.args)

    def _is_float_dtype(self, node: ast.AST) -> bool:
        if is_np_attr(node, self._aliases, FLOAT_DTYPE_ATTRS):
            return True
        if isinstance(node, ast.Name) and node.id == "float":
            return True
        return isinstance(node, ast.Constant) and isinstance(
            node.value, str
        ) and node.value.startswith("float")

    # -- violations -----------------------------------------------------
    def _check_call(
        self,
        call: ast.Call,
        tainted: Set[str],
        path: str,
        findings: List[Finding],
    ) -> None:
        func = call.func
        name = dotted_name(func)
        if name is not None and name in self._fsums:
            findings.append(
                self.finding(
                    path,
                    call,
                    "math.fsum rounds each call's result, so block "
                    "partials depend on the partition; add exact "
                    "integer totals and divide once instead",
                )
            )
            return
        if not isinstance(func, ast.Attribute) or func.attr not in _REDUCERS:
            return
        axis = keyword_value(call, "axis")
        if axis is not None and not (
            isinstance(axis, ast.Constant) and axis.value is None
        ):
            return  # fixed-width axis fold, identical on every path
        receiver = func.value
        if isinstance(receiver, ast.Name) and receiver.id in self._aliases:
            # np.sum(x) / np.mean(x): positional axis (2nd arg) exempts.
            if len(call.args) >= 2:
                return
            findings.append(
                self.finding(
                    path,
                    call,
                    f"np.{func.attr} collapses the whole array in one "
                    "float reduction; block paths must add integer "
                    "totals and divide once to stay bit-for-bit",
                )
            )
            return
        if call.args:  # arr.sum(-1): positional axis, fixed-width fold
            return
        if self._is_float(receiver, tainted):
            findings.append(
                self.finding(
                    path,
                    call,
                    f".{func.attr}() over a float array accumulates "
                    "in block order; the value will depend on the "
                    "partition",
                )
            )

    def _check_augadd(
        self,
        node: ast.AugAssign,
        tainted: Set[str],
        path: str,
        findings: List[Finding],
    ) -> None:
        target_float = self._is_float(node.target, tainted)
        value_float = self._is_float(node.value, tainted)
        if target_float or value_float:
            findings.append(
                self.finding(
                    path,
                    node,
                    "float '+=' running total imposes left-to-right "
                    "association; add integer totals and divide once "
                    "instead",
                )
            )
