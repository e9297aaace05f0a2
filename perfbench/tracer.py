"""Per-layer tracing of surfqp from outside the package.

A Tracer wraps the public functions of each surfqp module (plus the few
private ones whose counts the benchmark reports) while it is installed.
Every wrapped call is a span: it starts, ends and has the enclosing
wrapped call as its parent.  A layer's self time is the sum of its spans'
durations minus the time their child spans cover.

Spans are folded into per-function totals as they close instead of being
stored: one pass of a workload opens millions of them, and keeping each
would cost more memory than the workload itself.

Wrappers are installed at the name each caller looks up: a module-level
function is replaced in every loaded module that imported it by name (for
example ``evaluation.mat_det``, ``suites.mat_det`` and ``repalgebra.mat_inv``
as well as ``matrices.mat_det``), a method on its class (so ``Poly.__mul__``
also covers the ``*`` operator).  Uninstalling restores the originals, so
outputs computed with and without tracing can be compared.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Iterable, Optional

LAYERS = ("words", "algebra", "foxpairing", "dbracket", "poly", "matrices",
          "repalgebra", "evaluation", "suites", "cli")

# layer -> wrapped names in surfqp.<layer>; "Class.method" names a method
TARGETS = {
    "words": (
        "Word.__mul__", "Word.inverse", "Word.__pow__", "Word.conjugate_by",
        "_min_rotation", "conjugacy_class", "parse_word", "format_word",
        "format_cyclic", "boundary_word", "sample_word",
    ),
    "algebra": (
        "AlgElem.__mul__", "AlgElem.__add__", "AlgElem.__sub__", "AlgElem.__neg__",
        "AlgElem.scale", "AlgElem.antipode", "AlgElem.comultiply", "AlgElem.counit",
        "Tensor2.__add__", "Tensor2.__sub__", "Tensor2.__neg__", "Tensor2.scale",
        "Tensor3.__add__", "Tensor3.__sub__", "Tensor3.__neg__", "Tensor3.scale",
        "tensor2", "tensor3", "permute", "outer_act", "inner_act", "m2", "m3",
    ),
    "foxpairing": (
        "SurfaceFoxPairing.__call__", "SurfaceFoxPairing.skew", "SurfaceFoxPairing.base",
        "inner_pairing", "rho_1", "transpose_apply", "eta", "eta_s", "eta_base",
    ),
    "dbracket": (
        "SurfaceDoubleBracket.__call__", "SurfaceDoubleBracket.base",
        "dbl_from_pairing", "dbl_from_inner", "triple", "triple_e", "angle",
        "project_cyclic", "goldman", "moment_power_rhs", "moment_rhs",
        "moment_neg_power_rhs", "is_quasi_poisson",
        "CyclicAlgElem.__add__", "CyclicAlgElem.__sub__", "CyclicAlgElem.scale",
    ),
    "poly": (
        "Poly.__mul__", "Poly.__add__", "Poly.__sub__", "Poly.__neg__", "Poly.scale",
        "Poly.__pow__", "Poly.diff", "Poly.subs", "Poly.evaluate",
    ),
    "matrices": ("mat", "identity", "mat_mul", "mat_det", "mat_adjugate", "mat_inv"),
    "repalgebra": (
        "RepAlgebra.sym", "RepAlgebra.det_poly", "RepAlgebra.adj_poly",
        "RepAlgebra.raise_den", "RepAlgebra.word_matrix", "RepAlgebra.entry",
        "RepAlgebra.trace", "RepAlgebra.trace_cyclic", "RepAlgebra.variables",
        "RepAlgebra.d_dvar", "RepAlgebra.gen_bracket", "RepAlgebra.entry_pair_image",
        "RepAlgebra.qp_bracket", "RepAlgebra.accumulate", "RepAlgebra.qp_bracket_entries",
        "RepAlgebra.lie_value", "RepAlgebra.gl_action", "RepAlgebra.elem_action",
        "RepAlgebra.group_action", "RepAlgebra.phi_action", "RepAlgebra.to_json",
        "RepElem.__add__", "RepElem.__sub__", "RepElem.__neg__", "RepElem.__mul__",
        "RepElem.scale", "cartan_trivector",
    ),
    "evaluation": (
        "sample_rep_point", "evaluate", "field_on_entry", "field_on_det", "field_apply",
        "field_apply_sym", "build_fusion_bivector", "bivector_bracket",
        "bivector_bracket_sym", "compare_constructions",
    ),
    "suites": (
        "fox_suite", "double_suite", "quasi_poisson_suite", "rep_suite", "moment_suite",
        "aksm_suite", "run_suite", "run_all",
    ),
    "cli": (
        "main", "build_parser", "cmd_pairing", "cmd_dbl_s", "cmd_triple", "cmd_goldman",
        "cmd_rep_bracket", "cmd_trace_bracket", "cmd_ev", "cmd_moment_check",
        "cmd_verify", "alg_elem_json", "tensor_json", "cyclic_json",
        "parse_expression", "load_rep_point",
    ),
}

# per-layer counts reported besides calls and self time: metric -> wrapped name
CALL_COUNTS = {
    "words.mul_calls": "words.Word.__mul__",
    "words.min_rotation_calls": "words._min_rotation",
    "algebra.mul_calls": "algebra.AlgElem.__mul__",
    "poly.mul_calls": "poly.Poly.__mul__",
    "repalgebra.qp_bracket_calls": "repalgebra.RepAlgebra.qp_bracket",
    "repalgebra.entry_pair_image_calls": "repalgebra.RepAlgebra.entry_pair_image",
    "evaluation.field_apply_calls": "evaluation.field_apply",
    "matrices.det_calls": "matrices.mat_det",
}


def _size(x) -> int:
    """Number of stored terms of a sparse surfqp object."""
    return len(x.items())


class Tracer:
    """Wraps surfqp while installed and accumulates per-function spans."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts = {"words.mul_letters_out": 0, "algebra.terms_out": 0,
                       "poly.mul_terms_out": 0, "poly.mul_pairs": 0, "poly.peak_terms": 0}
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._patches: Optional[list[tuple]] = None  # (owner, name, original, wrapper)

    # --- hooks that turn a call's result into counts ---------------------

    def _word_mul(self, args, out) -> None:
        self.counts["words.mul_letters_out"] += len(out)

    def _alg_mul(self, args, out) -> None:
        self.counts["algebra.terms_out"] += _size(out)

    def _poly_mul(self, args, out) -> None:
        a, b = args
        n = _size(out)
        c = self.counts
        c["poly.mul_terms_out"] += n
        c["poly.mul_pairs"] += _size(a) * (_size(b) if hasattr(b, "items") else 1)
        if n > c["poly.peak_terms"]:
            c["poly.peak_terms"] = n

    def _hooks(self) -> dict[str, Callable]:
        return {"words.Word.__mul__": self._word_mul,
                "algebra.AlgElem.__mul__": self._alg_mul,
                "poly.Poly.__mul__": self._poly_mul}

    # --- wrapping -----------------------------------------------------------

    def _wrap(self, key: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        calls, self_s, stack = self.calls, self.self_s, self._stack
        calls[key] = 0
        self_s[key] = 0.0
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[key] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                self_s[key] += took - frame[0]
                if stack:
                    stack[-1][0] += took
            if hook is not None:
                hook(args, out)
            return out

        return functools.wraps(fn)(traced)

    def install(self, extra_modules: Iterable = ()) -> None:
        """Put the wrappers in place.  The first call finds the targets;
        those that no longer exist are listed in `missing` instead of
        failing the run."""
        if self._patches is None:
            self._patches = []
            self._find_targets(list(extra_modules))
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches or ():
            setattr(owner, attr, original)

    def _find_targets(self, extra_modules: list) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "surfqp" or name.startswith("surfqp."))]
        modules += extra_modules
        hooks = self._hooks()
        for layer, names in TARGETS.items():
            home = sys.modules.get(f"surfqp.{layer}")
            for name in names:
                key = f"{layer}.{name}"
                if home is None:
                    self.missing.append(key)
                elif "." in name:
                    self._target_method(home, key, name, hooks.get(key))
                else:
                    self._target_function(home, modules, key, name, hooks.get(key))

    def _target_method(self, home, key: str, name: str, hook) -> None:
        cls_name, attr = name.split(".")
        cls = getattr(home, cls_name, None)
        raw = vars(cls).get(attr) if cls is not None else None
        if raw is None:
            self.missing.append(key)
            return
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrap(key, raw.__func__, hook))
        else:
            wrapped = self._wrap(key, raw, hook)
        self._patches.append((cls, attr, raw, wrapped))

    def _target_function(self, home, modules, key: str, name: str, hook) -> None:
        original = getattr(home, name, None)
        if original is None:
            self.missing.append(key)
            return
        wrapped = self._wrap(key, original, hook)
        for module in modules:
            for var, value in vars(module).items():
                if value is original:
                    self._patches.append((module, var, original, wrapped))

    # --- results ------------------------------------------------------------

    def layer_calls(self, layer: str) -> int:
        return sum(n for key, n in self.calls.items() if key.startswith(layer + "."))

    def layer_self_s(self, layer: str) -> float:
        return sum(t for key, t in self.self_s.items() if key.startswith(layer + "."))

    def count_metrics(self) -> dict[str, int]:
        """Counts only: these repeat exactly for the same inputs."""
        c = self.counts
        out = {metric: self.calls.get(key, 0) for metric, key in CALL_COUNTS.items()}
        out["foxpairing.calls"] = self.layer_calls("foxpairing")
        out["dbracket.calls"] = self.layer_calls("dbracket")
        out["words.mul_letters_out"] = c["words.mul_letters_out"]
        out["algebra.terms_out"] = c["algebra.terms_out"]
        out["poly.mul_terms_out"] = c["poly.mul_terms_out"]
        out["poly.peak_terms"] = c["poly.peak_terms"]
        return out

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = dict(self.count_metrics())
        pairs = self.counts["poly.mul_pairs"]
        out["poly.mul_fill_ratio"] = self.counts["poly.mul_terms_out"] / pairs if pairs else 0.0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.layer_self_s(layer)
        return out

    def top(self, n: int) -> list[tuple[str, int, float]]:
        """The n wrapped functions with the most self time."""
        rows = [(key, self.calls[key], self.self_s[key]) for key in self.calls if self.calls[key]]
        return sorted(rows, key=lambda r: -r[2])[:n]
