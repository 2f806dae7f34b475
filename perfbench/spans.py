"""Spans and exact work counts for the traced run, recorded from outside pglrep.

``Tracer.install()`` wraps each layer's public functions, every name under
which another pglrep module imported them, and the methods RatMatrix.__mul__,
det and is_orthogonal, CliffordElement.__mul__ and SurfaceRep.__post_init__.
Each call appends a span (name, start, end, parent span, item id) to a list
kept in memory; ``uninstall()`` puts the originals back.

A span's self time is its duration minus the time its direct child spans
cover.  Counters that inspect arguments or results (bit sizes, term
products) run after the span closes; their cost is stored with the span and
left out of the parent's self time too, so it shows only in the overhead.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

LAYERS = ("linalg", "clifford", "surfrep", "construct", "classify", "poincare", "cli")

# (module, attribute, span name); a module's other public functions are
# added by _public_functions as "<layer>.<function>"
_NAMED = (
    ("linalg", "RatMatrix.__mul__", "linalg.matmul"),
    ("linalg", "RatMatrix.det", "linalg.det"),
    ("linalg", "RatMatrix.is_orthogonal", "linalg.orth_check"),
    ("clifford", "CliffordElement.__mul__", "clifford.mul"),
    ("clifford", "lift_orthogonal", "clifford.lift"),
    ("surfrep", "SurfaceRep.__post_init__", "surfrep.certify"),
    ("construct", "build_representation", "construct.build"),
    ("construct", "catalogue_matrix", "construct.catalogue"),
    ("cli", "read_rep_file", "cli.read_rep"),
    ("cli", "write_rep_file", "cli.write_rep"),
)

# called once per matrix entry or coefficient, so a span would cost more than
# the call; its time stays in the caller's self time
_UNTRACED = {("linalg", "as_fraction")}


def _bits(x):
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, item, hook_ns]
        self.stack = []
        self.item = None
        self.counts = Counter()
        self.maxima = Counter()
        self._patches = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, hook=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0, 0, stack[-1] if stack else -1, self.item, 0]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
                record[5] = clock() - record[2]
            return result

        return traced

    def _peak(self, key, value):
        if value > self.maxima[key]:
            self.maxima[key] = value

    def _matmul_hook(self, args, result):
        if result is NotImplemented:
            return
        for m in (*args, result):
            self._peak("linalg.max_entry_bits", max(_bits(x) for row in m.rows for x in row))

    def _clifford_mul_hook(self, args, result):
        a, b = args
        if result is NotImplemented or not hasattr(b, "terms"):
            return
        self.counts["clifford.term_products"] += len(a.terms) * len(b.terms)
        self._peak("clifford.max_terms", max(len(a.terms), len(b.terms), len(result.terms)))
        if result.terms:
            self._peak("clifford.max_coeff_bits", max(_bits(c) for c in result.terms.values()))

    def _certify_hook(self, args, result):
        rep = args[0]
        self.counts["surfrep.generators"] += len(rep.gens)
        self.counts["surfrep.handles"] += rep.genus

    def _classes_hook(self, args, result):
        self.counts["classify.classes_enumerated"] += len(result)

    # -- installing --------------------------------------------------------

    def install(self):
        import pglrep.cli  # noqa: F401  (loads every layer)

        modules = {layer: sys.modules[f"pglrep.{layer}"] for layer in LAYERS}
        hooks = {
            "linalg.matmul": self._matmul_hook,
            "clifford.mul": self._clifford_mul_hook,
            "surfrep.certify": self._certify_hook,
            "classify.invariant_classes": self._classes_hook,
        }
        targets = [(modules[layer], attr, name) for layer, attr, name in _NAMED]
        skip = {(layer, attr) for layer, attr, _ in _NAMED} | _UNTRACED
        used = {name for _, _, name in _NAMED}
        for layer, module in modules.items():
            for attr in _public_functions(module):
                name = f"{layer}.{attr}"
                if (layer, attr) not in skip:
                    # clifford.mul (the function) must not share the method's name
                    targets.append((module, attr, name if name not in used else f"{name}_fn"))
        for module, attr, name in targets:
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[fn_name]
            wrapped = self.wrap(name, original, hooks.get(name))
            if owner_name:
                self._set(owner, fn_name, wrapped, original)
                continue
            # rebind the function wherever a pglrep module imported it
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "pglrep" and mod.__dict__.get(fn_name) is original:
                    self._set(mod, fn_name, wrapped, original)

    def _set(self, owner, attr, value, original):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Self seconds and call counts per span name."""
        covered = [0] * len(self.spans)
        for name, start, end, parent, _, hook in self.spans:
            if parent >= 0:
                covered[parent] += end - start + hook
        self_s, calls = Counter(), Counter()
        for (name, start, end, *_), child in zip(self.spans, covered):
            self_s[name] += (end - start - child) / 1e9
            calls[name] += 1
        return self_s, calls

    def metrics(self):
        """Per-layer metrics, keyed by name, as (value, unit)."""
        self_s, calls = self.self_times()
        out = {}

        def count(key, value):
            out[key] = (value, "count")

        def seconds(key, value):
            out[key] = (value, "s")

        for name in ("linalg.matmul", "linalg.det", "linalg.orth_check", "clifford.lift",
                     "clifford.commutator_product", "cli.read_rep", "cli.main"):
            count(f"{name}.calls", calls[name])
            seconds(f"{name}.self_s", self_s[name])
        count("clifford.mul.calls", calls["clifford.mul"])
        count("surfrep.certify.calls", calls["surfrep.certify"])
        count("surfrep.invariants.calls", calls["surfrep.invariants"])
        count("construct.build.calls", calls["construct.build"])
        count("construct.catalogue.calls", calls["construct.catalogue"])
        count("classify.classes_enumerated", self.counts["classify.classes_enumerated"])
        count("clifford.term_products", self.counts["clifford.term_products"])
        count("clifford.max_terms", self.maxima["clifford.max_terms"])
        out["clifford.max_coeff_bits"] = (self.maxima["clifford.max_coeff_bits"], "bits")
        out["linalg.max_entry_bits"] = (self.maxima["linalg.max_entry_bits"], "bits")
        for layer in LAYERS:
            seconds(f"{layer}.self_s", sum(v for k, v in self_s.items() if k.split(".")[0] == layer))
        for layer in ("classify", "poincare"):
            count(f"{layer}.calls", sum(v for k, v in calls.items() if k.split(".")[0] == layer))
        gens, handles = self.counts["surfrep.generators"], self.counts["surfrep.handles"]
        out["surfrep.orth_checks_per_gen"] = (calls["linalg.orth_check"] / gens if gens else 0.0, "ratio")
        out["surfrep.commutators_per_handle"] = (calls["linalg.commutator"] / handles if handles else 0.0, "ratio")
        out["trace.spans"] = (len(self.spans), "count")
        out["trace.hook_s"] = (sum(s[5] for s in self.spans) / 1e9, "s")
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, item, hook) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "item": item, "hook_ns": hook}) + "\n")


def _public_functions(module):
    """Functions defined in the module itself whose names do not start with _."""
    return sorted(
        name for name, value in vars(module).items()
        if callable(value) and not isinstance(value, type) and not name.startswith("_")
        and getattr(value, "__module__", None) == module.__name__
    )
