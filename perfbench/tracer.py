"""Out-of-program tracing of qqsp's public functions.

``Tracer`` replaces each target function by a wrapper in every ``qqsp.*``
module namespace that holds it (modules use ``from .algebra import ...``,
so patching the defining module alone would miss most calls), and patches
methods on their class. Span targets record (name, start, end, parent
span); count targets only count calls, because timing a call as cheap and
frequent as ``conditional_expectation`` would distort the run. A target a
later version of qqsp removes or renames is listed in ``absent`` and its
metrics read 0. Leaving the ``with`` block restores every original, so
untraced passes run unwrapped code.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# (metric prefix, defining module, attribute path, kind)
SPAN, COUNT = "span", "count"
TARGETS = [
    ("cli.main", "qqsp.cli", "main", SPAN),
    ("linalg.supermatrix_from_function", "qqsp.linalg", "supermatrix_from_function", SPAN),
    ("linalg.supermatrix_tensor", "qqsp.linalg", "supermatrix_tensor", SPAN),
    ("linalg.operator_norm", "qqsp.linalg", "operator_norm", SPAN),
    ("linalg.choi_matrix", "qqsp.linalg", "choi_matrix", SPAN),
    ("linalg.predual_matrix", "qqsp.linalg", "predual_matrix", SPAN),
    ("linalg.trace_norm", "qqsp.linalg", "trace_norm", SPAN),
    ("algebra.expectation_supermap", "qqsp.algebra", "expectation_supermap", SPAN),
    ("algebra.conditional_expectation", "qqsp.algebra", "conditional_expectation", COUNT),
    ("algebra.supermap_tensor", "qqsp.algebra", "supermap_tensor", SPAN),
    ("algebra.SuperMap.compose", "qqsp.algebra", "SuperMap.compose", SPAN),
    ("algebra.State.init", "qqsp.algebra", "State.__post_init__", COUNT),
    ("algebra.certify_unital_cp", "qqsp.algebra", "certify_unital_cp", SPAN),
    ("process.validate_seed", "qqsp.process", "validate_seed", SPAN),
    ("process.propagate", "qqsp.process", "propagate", SPAN),
    ("process.kc_consistency", "qqsp.process", "kc_consistency", SPAN),
] + [
    (f"marginal.{fn}", "qqsp.marginal", fn, SPAN)
    for fn in ("build_Q", "build_H", "build_h", "build_Z", "build_z", "check_markov",
               "slice_residuals", "reconstruct_qqsp", "state_consistency_residual",
               "verify_marginal_axioms")
] + [
    ("ergodic.ergodic_verdict", "qqsp.ergodic", "ergodic_verdict", SPAN),
    ("ergodic.decay_trace", "qqsp.ergodic", "decay_trace", SPAN),
    ("ergodic.contraction_coefficient", "qqsp.ergodic", "contraction_coefficient", SPAN),
    ("classical.lift_to_quantum", "qqsp.classical", "lift_to_quantum", SPAN),
    ("classical.classical_validate", "qqsp.classical", "classical_validate", SPAN),
    ("scenarios.parse_scenario", "qqsp.scenarios", "parse_scenario", SPAN),
    ("report.emit_report", "qqsp.report", "emit_report", SPAN),
]


class Tracer:
    """Context manager that wraps the targets for the duration of a block."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.calls: Counter = Counter()
        self.macs = 0
        self.omegas: set = set()         # distinct states passed to expectation_supermap
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (owner, attribute, original)

    def __enter__(self) -> "Tracer":
        for name, module, attr, kind in self.targets:
            owner, leaf, original = self._resolve(module, attr)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, kind)
            if owner is not None:
                self._patch(owner, leaf, wrapper)
                continue
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if mod_name != "qqsp" and not mod_name.startswith("qqsp."):
                    continue
                if getattr(mod, leaf, None) is original:
                    self._patch(mod, leaf, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _resolve(self, module: str, attr: str):
        """(class or None, attribute name, original callable or None)."""
        try:
            mod = importlib.import_module(module)
        except ImportError:
            return None, attr, None
        *owner_path, leaf = attr.split(".")
        owner = mod
        for part in owner_path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, leaf, None
        original = owner.__dict__.get(leaf) if owner_path else getattr(owner, leaf, None)
        if not callable(original):
            return None, leaf, None
        return (owner if owner_path else None), leaf, original

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, original, kind: str):
        calls = self.calls
        if kind == COUNT:
            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return counted

        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def spanned(*args, **kwargs):
            calls[name] += 1
            if name == "algebra.SuperMap.compose":   # self.matrix @ other.matrix
                (rows, inner), cols = args[0].matrix.shape, args[1].matrix.shape[1]
                self.macs += rows * inner * cols
            elif name == "algebra.expectation_supermap":
                self.omegas.add(args[0].rho.tobytes())
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
        return spanned

    def summary(self) -> dict:
        """Per-target ``calls``, ``s`` (inclusive) and ``self_s``, plus derived counts."""
        inclusive: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            inclusive[name] += end - start
            if parent >= 0:
                child_time[parent] += end - start
        self_time: Counter = Counter()
        for (name, start, end, _), children in zip(self.spans, child_time):
            self_time[name] += (end - start) - children
        out = {}
        for name, *_ in self.targets:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = inclusive[name]
            out[f"{name}.self_s"] = self_time[name]
        out["algebra.SuperMap.compose.macs"] = self.macs
        e_calls = self.calls["algebra.expectation_supermap"]
        out["algebra.expectation_supermap.distinct_ratio"] = (
            len(self.omegas) / e_calls if e_calls else 0.0)
        return out
