"""Per-layer spans for the traced benchmark run, installed from outside.

A layer is one or more public functions of a polydecomp module.  Its
wrapper replaces the function in every module namespace that binds it:
decomp, witness and cli import their callees with ``from ... import``, so
patching only the defining module would miss those calls.  Methods are
patched on their class.

A span holds layer, start, end, parent and decision id, plus two values
read from the call's result (such as the number of digits returned).
Spans live in flat arrays and are reduced when the run ends.
``Polynomial.__mul__`` runs too often for a span per call, so its count
and time are added to the enclosing span instead.  Coefficient arithmetic
(Fraction, QuadraticInt, QuadraticRat) is not wrapped; its cost lands in
the caller's self time.
"""

from __future__ import annotations

import functools
import json
from array import array
from time import perf_counter_ns
from types import ModuleType
from typing import Any, Callable, Optional


def _length(args, out) -> tuple:
    return len(out), 0


def _digits(args, out) -> tuple:
    """Digits computed, and how many came after the first non-constant one
    (work a rejected candidate did not need)."""
    first = next((i for i, d in enumerate(out) if not d.is_constant()), None)
    return len(out), 0 if first is None else len(out) - first - 1


def _hit(args, out) -> tuple:
    return int(out is not None), 0


def _candidates(args, out) -> tuple:
    return len(out.candidates), sum(c.passed for c in out.candidates)


def _both_rings(method: str) -> tuple:
    return (("domains", f"IntegerRing.{method}"),
            ("domains", f"QuadraticIntRing.{method}"))


#: (layer, targets as (module, function or Class.method), result reader)
LAYERS = (
    ("poly.pow", (("poly", "Polynomial.__pow__"),), None),
    ("poly.compose", (("poly", "compose"),), None),
    ("poly.divrem_monic", (("poly", "divrem_monic"),), None),
    ("poly.hadic_digits", (("poly", "hadic_digits"),), _digits),
    ("domains.divisors", _both_rings("divisors_up_to_associates"), _length),
    ("domains.elements_of_norm", _both_rings("elements_of_norm"), _length),
    ("domains.divides_exact", _both_rings("divides_exact"), None),
    ("domains.embed_descend", (("domains", "embed_element"),
                               ("domains", "embed_poly"),
                               ("domains", "descend_element"),
                               ("domains", "descend_poly")), None),
    ("domains.is_irreducible", _both_rings("is_irreducible"), None),
    ("decomp.monic_decompose", (("decomp", "monic_decompose"),), _hit),
    ("decomp.decompose_over_field",
     (("decomp", "decompose_over_field"),), None),
    ("decomp.decompose_fully", (("decomp", "decompose_fully"),), None),
    ("decomp.quartic_field_decompose",
     (("decomp", "quartic_field_decompose"),), None),
    ("decomp.quartic_ring_decide", (("decomp", "quartic_ring_decide"),),
     _candidates),
    ("decomp.certificate", (("decomp", "Decomposition.__init__"),), None),
    ("witness.run_pipeline", (("witness", "run_pipeline"),), None),
    ("witness.verify_witness", (("witness", "verify_witness"),), None),
    ("witness.build_witness_poly", (("witness", "build_witness_poly"),), None),
    ("witness.validate_inequivalent",
     (("witness", "validate_inequivalent"),), None),
    ("cli.main", (("cli", "main"),), None),
    ("cli.build_parser", (("cli", "build_parser"),), None),
    ("cli.parse_poly", (("cli", "parse_poly"),), None),
    ("cli.resolve_ring", (("cli", "resolve_ring"),), None),
    ("cli.format_result", (("cli", "format_result"),), None),
    ("cli.run", (("cli", "run"),), None),
)
MUL_LAYER = "poly.mul"
MUL_TARGET = ("poly", "Polynomial.__mul__")
LAYER_NAMES = (MUL_LAYER,) + tuple(name for name, _, _ in LAYERS)

#: Layers each workload must reach, and layers it must never reach.  A
#: renamed or inlined function then shows up as a named missing layer.
MUST_FIRE = {
    "field-highdeg": ("poly.mul", "poly.pow", "poly.compose",
                      "poly.divrem_monic", "poly.hadic_digits",
                      "decomp.monic_decompose", "decomp.decompose_over_field",
                      "decomp.decompose_fully", "decomp.certificate"),
    "ring-quartic": ("poly.mul", "poly.compose", "domains.divisors",
                     "domains.elements_of_norm", "domains.divides_exact",
                     "domains.embed_descend", "domains.is_irreducible",
                     "decomp.quartic_field_decompose",
                     "decomp.quartic_ring_decide", "decomp.certificate",
                     "witness.run_pipeline", "witness.verify_witness",
                     "witness.build_witness_poly",
                     "witness.validate_inequivalent"),
    "cli-mixed": ("cli.main", "cli.build_parser", "cli.parse_poly",
                  "cli.resolve_ring", "cli.format_result", "cli.run",
                  "decomp.monic_decompose", "decomp.quartic_ring_decide",
                  "domains.divides_exact", "domains.embed_descend",
                  "witness.run_pipeline"),
}
_CLI_LAYERS = tuple(n for n in LAYER_NAMES if n.startswith("cli."))
MUST_NOT_FIRE = {
    "field-highdeg": ("domains.divisors",) + _CLI_LAYERS,
    "ring-quartic": _CLI_LAYERS,
    "cli-mixed": (),
}


def _per_layer_metrics() -> tuple:
    out = []
    for name in LAYER_NAMES:
        out += [(f"{name}.calls", "count/pass", "lower"),
                (f"{name}.total_s", "s/pass", "lower"),
                (f"{name}.self_s", "s/pass", "lower")]
    out += [
        ("poly.hadic_digits.digits", "count/pass", "lower"),
        ("poly.hadic_digits.wasted_frac", "ratio", "lower"),
        ("domains.divisors.classes", "count/pass", "higher"),
        ("domains.elements_of_norm.found", "count/pass", "lower"),
        ("domains.divisor_yield", "ratio", "higher"),
        ("decomp.monic_decompose.hits", "count/pass", "higher"),
        ("decomp.monic_decompose.hit_frac", "ratio", "higher"),
        ("decomp.monic_decompose.pow_s", "s/pass", "lower"),
        ("decomp.monic_decompose.pow_frac", "ratio", "lower"),
        ("decomp.quartic_ring_decide.candidates", "count/pass", "lower"),
        ("decomp.quartic_ring_decide.candidates_passed", "count/pass",
         "higher"),
        ("decomp.quartic_ring_decide.divisors_frac", "ratio", "lower"),
        ("trace.ops_per_s_untraced", "1/s", "higher"),
        ("trace.ops_per_s_traced", "1/s", "higher"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.spans", "count/pass", "lower"),
        ("trace.layers_missing", "count", "lower"),
    ]
    return tuple(out)


#: (name, unit, better) of every metric a traced run reports.
PER_LAYER_METRICS = _per_layer_metrics()


class Recorder:
    """Spans of one traced run, kept in memory until the run ends."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.layer = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.decision = array("l")
        self.nested = array("b")
        self.v1 = array("q")
        self.v2 = array("q")
        self.mul_n = array("l")
        self.mul_ns = array("q")
        self.root_mul_n = 0
        self.root_mul_ns = 0
        self.mul_depth = 0
        self.stack: list = []
        self.depth = [0] * len(LAYER_NAMES)
        self.decision_id = -1
        self.absent: list = []
        self._restore: list = []

    # -- installing the wrappers ------------------------------------------

    def _target(self, module: str, qualname: str):
        """(owner, attribute, function) or None when it no longer exists."""
        owner = self.modules[module]
        if "." in qualname:
            cls_name, qualname = qualname.split(".")
            owner = getattr(owner, cls_name, None)
        fn = vars(owner).get(qualname) if owner is not None else None
        return None if fn is None else (owner, qualname, fn)

    def _replace(self, owner: Any, attr: str, fn: Callable,
                 wrapper: Callable) -> None:
        if isinstance(owner, ModuleType):
            # every namespace that imported the function by name
            for ns in self.modules.values():
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, key, wrapper)
                        self._restore.append((ns, key, fn))
        else:
            setattr(owner, attr, wrapper)
            self._restore.append((owner, attr, fn))

    def install(self) -> None:
        found = self._target(*MUL_TARGET)
        if found is None:
            self.absent.append(f"{MUL_LAYER}: {'.'.join(MUL_TARGET)} "
                               "not found")
        else:
            self._replace(*found, self._mul_wrapper(found[2]))
        for layer, (name, targets, reader) in enumerate(LAYERS, start=1):
            for module, qualname in targets:
                found = self._target(module, qualname)
                if found is None:
                    self.absent.append(
                        f"{name}: {module}.{qualname} not found")
                    continue
                self._replace(*found, self._span_wrapper(layer, found[2],
                                                         reader))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def _span_wrapper(self, layer: int, fn: Callable,
                      reader: Optional[Callable]) -> Callable:
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(rec.layer)
            rec.layer.append(layer)
            rec.parent.append(rec.stack[-1] if rec.stack else -1)
            rec.decision.append(rec.decision_id)
            rec.nested.append(rec.depth[layer] > 0)
            rec.end.append(0)
            rec.v1.append(0)
            rec.v2.append(0)
            rec.mul_n.append(0)
            rec.mul_ns.append(0)
            rec.depth[layer] += 1
            rec.stack.append(i)
            rec.start.append(perf_counter_ns())
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.end[i] = perf_counter_ns()
                rec.stack.pop()
                rec.depth[layer] -= 1
            if reader is not None:
                rec.v1[i], rec.v2[i] = reader(args, out)
            return out

        return wrapper

    def _mul_wrapper(self, fn: Callable) -> Callable:
        rec = self

        @functools.wraps(fn)
        def wrapper(*args):
            # Over Q[t] the coefficients are polynomials too, so a product
            # can nest; only the outermost one adds its time.
            rec.mul_depth += 1
            t0 = perf_counter_ns()
            try:
                out = fn(*args)
            finally:
                dt = perf_counter_ns() - t0
                rec.mul_depth -= 1
            if rec.stack:
                rec.mul_n[rec.stack[-1]] += 1
                if not rec.mul_depth:
                    rec.mul_ns[rec.stack[-1]] += dt
            else:
                rec.root_mul_n += 1
                if not rec.mul_depth:
                    rec.root_mul_ns += dt
            return out

        return wrapper

    # -- reducing the spans -------------------------------------------------

    def __len__(self) -> int:
        return len(self.layer)

    def summarize(self, passes: int, scales=None) -> tuple:
        """Per-pass layer metrics (calls, total and self time, named counts),
        and each layer's per-pass self time with the time of the
        polynomial products it called folded in.

        scales[d] is the host-speed scale of decision d; span times are
        scaled like the decision they belong to.  total_s counts only the
        outermost span of a layer, so recursion (decompose_fully,
        descend_element) is not counted twice.
        """
        n = len(self.layer)
        L = {name: k for k, name in enumerate(LAYER_NAMES)}
        scale = [scales[d] if scales and d >= 0 else 1.0
                 for d in self.decision]
        dur = [(self.end[i] - self.start[i]) * scale[i] for i in range(n)]
        mul_ns = [self.mul_ns[i] * scale[i] for i in range(n)]
        child = [0] * n
        monic = L["decomp.monic_decompose"]
        qrd = L["decomp.quartic_ring_decide"]
        under_monic = [False] * n
        under_qrd = [False] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                under_monic[i] = under_monic[p] or self.layer[p] == monic
                under_qrd[i] = under_qrd[p] or self.layer[p] == qrd
        calls = [0] * len(LAYER_NAMES)
        total = [0] * len(LAYER_NAMES)
        self_ns = [0] * len(LAYER_NAMES)
        folded = [0] * len(LAYER_NAMES)
        v1 = [0] * len(LAYER_NAMES)
        v2 = [0] * len(LAYER_NAMES)
        pow_ns = divisors_ns = scanned = 0
        scanning = set()
        for i in range(n):
            k = self.layer[i]
            calls[k] += 1
            if not self.nested[i]:
                total[k] += dur[i]
            self_ns[k] += dur[i] - child[i] - mul_ns[i]
            folded[k] += dur[i] - child[i]
            v1[k] += self.v1[i]
            v2[k] += self.v2[i]
            if k == L["poly.pow"] and under_monic[i] and not self.nested[i]:
                pow_ns += dur[i]
            if k == L["domains.divisors"] and under_qrd[i] \
                    and not self.nested[i]:
                divisors_ns += dur[i]
            p = self.parent[i]
            if k == L["domains.elements_of_norm"] and p >= 0 \
                    and self.layer[p] == L["domains.divisors"]:
                scanned += self.v1[i]
                scanning.add(p)
        mul = L[MUL_LAYER]
        calls[mul] = sum(self.mul_n) + self.root_mul_n
        total[mul] = self_ns[mul] = sum(mul_ns) + self.root_mul_ns
        folded[mul] = self.root_mul_ns

        m = {}
        for name, k in L.items():
            m[f"{name}.calls"] = calls[k] / passes
            m[f"{name}.total_s"] = total[k] / passes / 1e9
            m[f"{name}.self_s"] = self_ns[k] / passes / 1e9

        def ratio(a, b):
            return a / b if b else 0.0

        hadic = L["poly.hadic_digits"]
        classes_scanned = sum(self.v1[p] for p in scanning)
        m.update({
            "poly.hadic_digits.digits": v1[hadic] / passes,
            "poly.hadic_digits.wasted_frac": ratio(v2[hadic], v1[hadic]),
            "domains.divisors.classes": v1[L["domains.divisors"]] / passes,
            "domains.elements_of_norm.found":
                v1[L["domains.elements_of_norm"]] / passes,
            "domains.divisor_yield": ratio(classes_scanned, scanned),
            "decomp.monic_decompose.hits": v1[monic] / passes,
            "decomp.monic_decompose.hit_frac": ratio(v1[monic], calls[monic]),
            "decomp.monic_decompose.pow_s": pow_ns / passes / 1e9,
            "decomp.monic_decompose.pow_frac": ratio(pow_ns, total[monic]),
            "decomp.quartic_ring_decide.candidates": v1[qrd] / passes,
            "decomp.quartic_ring_decide.candidates_passed": v2[qrd] / passes,
            "decomp.quartic_ring_decide.divisors_frac":
                ratio(divisors_ns, total[qrd]),
            "trace.spans": n / passes,
        })
        return m, {name: folded[k] / passes / 1e9 for name, k in L.items()}

    def write(self, path: str) -> None:
        """One JSON object per span, in the order the spans opened."""
        with open(path, "w") as out:
            for i in range(len(self.layer)):
                out.write(json.dumps({
                    "layer": LAYER_NAMES[self.layer[i]],
                    "start_ns": self.start[i], "end_ns": self.end[i],
                    "parent": self.parent[i], "decision": self.decision[i],
                    "mul_calls": self.mul_n[i], "mul_ns": self.mul_ns[i],
                }) + "\n")


def coverage_problems(workload: str, metrics: dict, absent: list) -> list:
    """Layers that stayed silent where they must fire, or fired where the
    interaction table predicts they are never called."""
    problems = [f"absent: {a}" for a in absent]
    for name in MUST_FIRE[workload]:
        if metrics[f"{name}.calls"] == 0:
            problems.append(f"missing: {name} never fired on {workload}")
    for name in MUST_NOT_FIRE[workload]:
        if metrics[f"{name}.calls"] != 0:
            problems.append(f"unexpected: {name} fired on {workload}")
    return problems
