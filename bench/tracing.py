"""Spans at foldline's module boundaries, recorded from outside the package.

:meth:`Tracer.install` wraps every public function of the traced modules
and the ``+``, ``*`` and ``/`` operators of ``SemifieldValue``, and puts
each wrapper in place of the original in every foldline module that holds
the original by name (``from .chamber import apply_move`` copies the
function into ``checks``, so patching ``chamber`` alone would miss it).
Each call records a span (name, start, end, parent span) in flat arrays;
counts are taken by the same wrappers.  The benchmark names each op with a
root span ``op.<kind>``, so every span of one request shares that root.

A span's self time is its duration minus the durations of its direct
children; calls are nested and single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("cartan", "weyl", "semifield", "chamber", "folding", "monoid", "checks", "cli")

CHECK_NAMES = (
    "chain-b2-from-a3", "chain-b2-from-a4", "closed-form-models", "tropical-b2",
    "path-independence", "word-counts", "monoid-laws", "frobenius", "crystal",
    "filling-independence",
)

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("cartan.self_s", "s", "lower"),
    ("weyl.word_for_w0.calls", "count", "lower"),
    ("weyl.self_s", "s", "lower"),
    ("semifield.ops.tropz", "count", "lower"),
    ("semifield.ops.tropn", "count", "lower"),
    ("semifield.ops.rat", "count", "lower"),
    ("semifield.ops.sym", "count", "lower"),
    ("semifield.sym.self_s", "s", "lower"),
    ("semifield.sym_max_terms", "terms", "lower"),
    ("semifield.sym_max_factors", "factors", "lower"),
    ("chamber.transition.calls", "count", "lower"),
    ("chamber.transition.self_s", "s", "lower"),
    ("chamber.moves.r2", "count", "lower"),
    ("chamber.moves.r3", "count", "lower"),
    ("chamber.path_len.mean", "moves", "lower"),
    ("chamber.path_len.max", "moves", "lower"),
    ("chamber.apply_move.self_s", "s", "lower"),
    ("folding.folded_transition.calls", "count", "lower"),
    ("folding.transitions_per_op", "ratio", "lower"),
    ("folding.self_s", "s", "lower"),
    ("monoid.left_mul_gen.calls", "count", "lower"),
    ("monoid.transitions_per_op", "ratio", "lower"),
    ("monoid.scan_attempts", "count", "lower"),
    ("monoid.scan_useful_ratio", "ratio", "higher"),
    ("monoid.self_s", "s", "lower"),
    *((f"checks.{name}.s", "s", "lower") for name in CHECK_NAMES),
    ("cli.import_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.enabled = True
        self.counts: Counter = Counter()
        self.sym_max_terms = 0
        self.sym_max_factors = 0

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        index = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(index)
        return index

    def call(self, nid, fn, args, kwargs):
        """Run fn inside a span; returns (result, span index or -1)."""
        if not self.enabled:
            return fn(*args, **kwargs), -1
        index = self._open(nid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs), index
        finally:
            self.end[index] = perf_counter()
            self.start[index] = start
            self.stack.pop()

    # ------------------------------------------------------------------
    # Installing the wrappers

    def _wrap(self, fn, name):
        nid, call = self.intern(name), self.call
        if name == "chamber.apply_move":
            counts = self.counts

            def traced(dw, k, r):
                if self.enabled:
                    counts[f"chamber.moves.r{r}"] += 1
                return call(nid, fn, (dw, k, r), {})[0]

        elif name.startswith("checks.check_"):
            # one span name per acceptance check, from the result it returns
            def traced(*args, **kwargs):
                result, index = call(nid, fn, args, kwargs)
                if index >= 0 and isinstance(getattr(result, "name", None), str):
                    self.name[index] = self.intern(f"checks.{result.name}")
                return result

        else:

            def traced(*args, **kwargs):
                return call(nid, fn, args, kwargs)[0]

        return functools.wraps(fn)(traced)

    def _wrap_operator(self, semifield, attr, op):
        original = getattr(semifield.SemifieldValue, attr)
        models = {
            semifield.TropInt: "tropz",
            semifield.TropNat: "tropn",
            semifield.PosRational: "rat",
            semifield.SymRat: "sym",
        }
        ids = {cls: self.intern(f"semifield.{model}.{op}") for cls, model in models.items()}
        keys = {cls: f"semifield.ops.{model}" for cls, model in models.items()}
        sym, call, counts = semifield.SymRat, self.call, self.counts

        def traced(a, b):
            cls = type(a)
            if not self.enabled:
                return original(a, b)
            counts[keys[cls]] += 1
            out = call(ids[cls], original, (a, b), {})[0]
            if cls is sym:
                self._measure_sym(out)
            return out

        setattr(semifield.SemifieldValue, attr, functools.wraps(original)(traced))

    def _measure_sym(self, value):
        """Track the largest sym output; timed as its own span, in no layer."""
        index = self._open(self.intern("trace.measure"))
        start = perf_counter()
        fnum, fden = getattr(value, "fnum", ()), getattr(value, "fden", ())
        self.sym_max_factors = max(self.sym_max_factors, len(fnum) + len(fden))
        # the expanded numerator has at most the product of its factors' terms
        bound = 1
        for factor in fnum:
            bound *= len(factor.terms)
        if not fnum or bound > self.sym_max_terms:
            self.sym_max_terms = max(self.sym_max_terms, len(value.num.terms))
        self.end[index] = perf_counter()
        self.start[index] = start
        self.stack.pop()

    def install(self, modules):
        """Wrap the public functions of ``modules`` (layer name -> module)."""
        replace = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                replace[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        for name, module in list(sys.modules.items()):
            if name != "foldline" and not name.startswith("foldline."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
        semifield = modules["semifield"]
        for attr, op in (("__add__", "add"), ("__mul__", "mul"), ("__truediv__", "div")):
            self._wrap_operator(semifield, attr, op)

    # ------------------------------------------------------------------
    # From spans to per-layer metrics

    def metrics(self) -> dict:
        names, name, parent = self.names, self.name, self.parent
        n = len(name)
        duration = [e - s for s, e in zip(self.start, self.end)]
        children = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                children[parent[i]] += duration[i]
        self_by_name: Counter = Counter()
        calls: Counter = Counter()
        total_by_name: Counter = Counter()
        for i in range(n):
            self_by_name[name[i]] += duration[i] - children[i]
            total_by_name[name[i]] += duration[i]
            calls[name[i]] += 1

        def ids(predicate):
            return {k for k, text in enumerate(names) if predicate(text)}

        def by_name(text):
            return self._ids.get(text, -1)

        layer_self = Counter()
        for k, text in enumerate(names):
            layer_self[text.split(".")[0]] += self_by_name[k]
        out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}

        transition, apply_move = by_name("chamber.transition"), by_name("chamber.apply_move")
        moves = Counter(parent[i] for i in range(n) if name[i] == apply_move)
        lengths = [moves[i] for i in range(n) if name[i] == transition]

        folding_ids = ids(lambda t: t.startswith("folding."))
        monoid_ids = ids(lambda t: t.startswith("monoid."))
        scan_ids = {by_name("monoid.l_scan"), by_name("monoid.r_scan")} - {-1}
        action_ids = {by_name("monoid.left_mul_gen"), by_name("monoid.right_mul_gen")} - {-1}
        top_fold = array("i", [-1]) * n
        top_mono = array("i", [-1]) * n
        fold_transitions, mono_transitions = Counter(), Counter()
        attempts = 0
        for i in range(n):
            p = parent[i]
            top_fold[i] = top_fold[p] if p >= 0 and top_fold[p] >= 0 else (
                i if name[i] in folding_ids else -1
            )
            top_mono[i] = top_mono[p] if p >= 0 and top_mono[p] >= 0 else (
                i if name[i] in monoid_ids else -1
            )
            if name[i] == transition:
                if top_fold[i] >= 0:
                    fold_transitions[top_fold[i]] += 1
                if top_mono[i] >= 0:
                    mono_transitions[top_mono[i]] += 1
            elif name[i] in action_ids and p >= 0 and name[p] in scan_ids:
                attempts += 1
        scans = sum(calls[k] for k in scan_ids)

        def per_op(counter):
            return sum(counter.values()) / len(counter) if counter else 0.0

        out.update(
            {
                "weyl.word_for_w0.calls": calls[by_name("weyl.word_for_w0")],
                "semifield.sym.self_s": sum(
                    self_by_name[k] for k in ids(lambda t: t.startswith("semifield.sym."))
                ),
                "semifield.sym_max_terms": self.sym_max_terms,
                "semifield.sym_max_factors": self.sym_max_factors,
                "chamber.transition.calls": calls[transition],
                "chamber.transition.self_s": self_by_name[transition],
                "chamber.moves.r2": self.counts["chamber.moves.r2"],
                "chamber.moves.r3": self.counts["chamber.moves.r3"],
                "chamber.path_len.mean": statistics.fmean(lengths) if lengths else 0.0,
                "chamber.path_len.max": max(lengths, default=0),
                "chamber.apply_move.self_s": self_by_name[apply_move],
                "folding.folded_transition.calls": calls[by_name("folding.folded_transition")],
                "folding.transitions_per_op": per_op(fold_transitions),
                "monoid.left_mul_gen.calls": calls[by_name("monoid.left_mul_gen")],
                "monoid.transitions_per_op": per_op(mono_transitions),
                "monoid.scan_attempts": attempts,
                "monoid.scan_useful_ratio": scans / attempts if attempts else 0.0,
            }
        )
        for model in ("tropz", "tropn", "rat", "sym"):
            out[f"semifield.ops.{model}"] = self.counts[f"semifield.ops.{model}"]
        for check in CHECK_NAMES:
            out[f"checks.{check}.s"] = total_by_name[by_name(f"checks.{check}")]
        out["trace.spans"] = n
        return out

    def write(self, path):
        """The span file: one JSON header line, then the four raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.name),
            "arrays": ["name:int32", "parent:int32", "start:float64", "end:float64"],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(handle)
