"""Spans around calls into the public functions of each ballmaps layer.

The tracer replaces each listed function in every ballmaps namespace that
binds it (modules import names directly, so ``realize.form_of`` is the same
object as ``hermitian.form_of``) and counts ``Polynomial.__init__`` calls.
Spans are recorded only while a job is active and are kept in memory; the
runner writes them out when the run ends.  ``uninstall`` restores every
binding.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

#: Layer -> public functions timed in the traced run.
TRACED = {
    "polynomials": ("substitute_fractional",),
    "maps": (
        "stacked_coefficients", "compose_source", "compose_target", "tensor",
        "oplus", "tensor_power", "catalog",
    ),
    "hermitian": (
        "form_of", "gram_form", "quotient_by_sphere", "is_proper", "signature",
        "image_rank", "hermitian_rank",
    ),
    "lattice": ("torus_annihilator",),
    "invariance": (
        "membership", "permutation_stabilizer", "strict_stabilizer",
        "diagonal_stabilizer", "block_partition", "full_unitary_test", "torus_test",
        "group_report", "power_chain_check", "emit_invariance_system",
    ),
    "realize": ("realize_subgroup", "symmetric_group_map", "pad_to_proper", "factor_form"),
    "analysis": ("sphere_sample_check", "analyze_map"),
    "cli": ("main",),
}

#: Counts recorded per job besides the calls of each traced function.
COUNTS = ("polynomials.Polynomial.constructed", "invariance.equations_emitted", "cli.json_bytes")

#: Size tags reported as the largest value over the traced jobs.
GAUGES = {
    "maps.target_dim": "N",
    "hermitian.form_basis": "form_basis",
    "hermitian.division_simplex": "division_simplex",
}


def span_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units.update({name: "count" for name in COUNTS})
    units.update({name: "count" for name in GAUGES})
    units["trace.overhead_share"] = "ratio"
    units["trace.unattributed_ms"] = "ms"
    return units


class Tracer:
    def __init__(self) -> None:
        self.job: int | None = None
        self.spans: list[tuple] = []  # (name, start, end, parent index, job)
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._child_s: list[float] = []
        self._restore: list[tuple] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "ballmaps"]
        for layer, fns in TRACED.items():
            module = sys.modules[f"ballmaps.{layer}"]
            for fn_name in fns:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        polynomial = sys.modules["ballmaps.polynomials"].Polynomial
        init = polynomial.__init__

        def counted_init(obj, *args, **kwargs):
            if self.job is not None:
                self.counts["polynomials.Polynomial.constructed"] += 1
            init(obj, *args, **kwargs)

        self._restore.append((polynomial, "__init__", init))
        polynomial.__init__ = counted_init

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        emits = name == "invariance.emit_invariance_system"

        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                child = self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += end - start
                self.spans[index] = (name, start, end, parent, self.job)
                self.calls[name] += 1
                self.self_s[name] += end - start - child
            if emits:
                self.counts["invariance.equations_emitted"] += len(result["equations"])
            return result

        traced.__wrapped__ = fn
        return traced
