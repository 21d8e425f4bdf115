"""Spans and counters for the benchmark's traced runs.

The tracer wraps every public function of the spinpic layer modules, by
identity, in every spinpic module namespace that binds it (so `verify`'s own
from-import of `mat_mul` is wrapped too). Each call records a span: name,
start, end, parent span and op id, kept in flat arrays in memory and written
to a file when the run ends. Constructions of DivisorClass, CurveFunctional
and Fraction are counted, not spanned, because there are millions of them.

Useful-work ratios are computed from a call's arguments at the boundary, in
a `trace.hook` span that belongs to no layer, so the hook's own cost is
charged neither to the caller nor to the callee.

A function that a later version of spinpic removes or renames simply reports
zero calls.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import math
import statistics
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

LAYERS = ("cli", "verify", "kodaira", "catalog", "testcurves", "transfer", "picard", "exact")
HOOK = "trace.hook"
# Helpers that every class construction calls, once per basis label: like the
# constructions themselves they are counted, not spanned, and their time stays
# with the enclosing span.
COUNTED_ONLY = {"exact.rational", "picard.labels_for", "picard.m_labels", "picard.s_labels"}

# Ratios: (metric, numerator counter, denominator counter).
RATIOS = [
    ("exact.mat_mul.useful_ratio", "exact.mat_mul.useful_products", "exact.mat_mul.products"),
    ("testcurves.intersect.useful_ratio", "testcurves.intersect.useful_terms", "testcurves.intersect.terms"),
    ("testcurves.curve_map.useful_ratio", "testcurves.curve_map.distinct", "testcurves.curve_map.built"),
    ("catalog.canonical_s.useful_ratio", "catalog.canonical_s.distinct", "catalog.canonical_s.built"),
]


def _mat_mul_hook(t: "Tracer", a, b, *args, **kwargs) -> None:
    """Scalar products with both factors nonzero, out of all products a dense product does."""
    try:
        inner = len(b)
        t.counts["exact.mat_mul.products"] += len(a) * inner * len(b[0])
        t.counts["exact.mat_mul.useful_products"] += sum(
            sum(1 for row in a if row[k] != 0) * sum(1 for v in b[k] if v != 0) for k in range(inner)
        )
    except (TypeError, IndexError):
        pass


def _intersect_hook(t: "Tracer", curve, x, *args, **kwargs) -> None:
    """Terms with a nonzero curve entry and a nonzero coefficient, out of the terms summed."""
    try:
        numbers, coeff = curve.numbers, x.coeff
        t.counts["testcurves.intersect.terms"] += len(numbers)
        t.counts["testcurves.intersect.useful_terms"] += sum(
            1 for label, v in numbers.items() if v != 0 and coeff.get(label, 0) != 0
        )
    except AttributeError:
        pass


def _per_genus_hook(key: str):
    """Count calls whose genus this interpreter has not seen before for `key`."""

    def hook(t: "Tracer", ctx, *args, **kwargs) -> None:
        g = getattr(ctx, "g", None)
        t.counts[f"{key}.built"] += 1
        seen = t.seen.setdefault(key, set())
        if g not in seen:
            seen.add(g)
            t.counts[f"{key}.distinct"] += 1

    return hook


HOOKS = {
    "exact.mat_mul": _mat_mul_hook,
    "testcurves.intersect": _intersect_hook,
    "testcurves.curve_map": _per_genus_hook("testcurves.curve_map"),
    "catalog.canonical_s": _per_genus_hook("catalog.canonical_s"),
}


class Tracer:
    """Span recorder for one interpreter; `merge` folds in a child process's trace."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.counts: Counter = Counter()
        self.seen: dict[str, set] = {}
        self.construct_s = 0.0
        self.current_op = -1
        self.active = False
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []
        self._plain_fraction_new = None

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    # --- installing the wrappers ---------------------------------------------

    def _wrap(self, qualname: str, fn):
        if qualname in COUNTED_ONLY:
            key = f"{qualname}.calls"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if self.active:
                    self.counts[key] += 1
                return fn(*args, **kwargs)

            return counted

        nid, hook_id, hook = self._id(qualname), self._id(HOOK), HOOKS.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if hook is not None:
                h = self._open(hook_id)
                hook(self, *args, **kwargs)
                self._close(h)
            i = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the layer modules' public functions and count constructions."""
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"spinpic.{layer}")
            except ImportError:
                continue
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "spinpic" and not modname.startswith("spinpic."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        self._count_constructions("spinpic.picard", "DivisorClass", "picard.DivisorClass.new", timed=True)
        self._count_constructions("spinpic.testcurves", "CurveFunctional", "testcurves.CurveFunctional.new")
        self._count_fractions()

    def _count_constructions(self, modname: str, clsname: str, key: str, timed: bool = False) -> None:
        cls = getattr(sys.modules.get(modname), clsname, None)
        post = getattr(cls, "__post_init__", None)
        if post is None:
            return

        def counting_post_init(obj, *args, **kwargs):
            if not self.active:
                return post(obj, *args, **kwargs)
            self.counts[key] += 1
            t0 = perf_counter()
            try:
                return post(obj, *args, **kwargs)
            finally:
                if timed:
                    self.construct_s += perf_counter() - t0

        self._patch(cls, "__post_init__", counting_post_init)

    def _count_fractions(self) -> None:
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            if self.active:
                self.counts["exact.fraction_new"] += 1
            return new(cls, *args, **kwargs)

        self._plain_fraction_new = vars(Fraction)["__new__"]
        self._patch(Fraction, "__new__", counting_new)

    @contextmanager
    def suspended(self):
        """Neither record nor count, and construct Fractions unwrapped, while the clock calibrates."""
        active, self.active = self.active, False
        patched = vars(Fraction)["__new__"]
        if self._plain_fraction_new is not None:
            setattr(Fraction, "__new__", self._plain_fraction_new)
        try:
            yield
        finally:
            setattr(Fraction, "__new__", patched)
            self.active = active

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    # --- moving traces between processes ------------------------------------

    def to_json(self) -> dict:
        return {
            "names": self.names, "name": list(self.name), "start": list(self.start),
            "end": list(self.end), "parent": list(self.parent),
            "counts": dict(self.counts), "construct_s": self.construct_s,
        }

    def merge(self, doc: dict, op: int) -> None:
        """Append a child interpreter's spans as spans of op `op`."""
        offset = len(self.start)
        ids = [self._id(n) for n in doc["names"]]
        self.name.extend(ids[n] for n in doc["name"])
        self.start.extend(doc["start"])
        self.end.extend(doc["end"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in doc["parent"])
        self.op.extend(op for _ in doc["name"])
        self.counts.update(doc["counts"])
        self.construct_s += doc["construct_s"]

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["op", "name", "start_s", "end_s", "parent_row"])
            for i in range(len(self.start)):
                out.writerow([self.op[i], self.names[self.name[i]],
                              f"{self.start[i]:.7f}", f"{self.end[i]:.7f}", self.parent[i]])

    # --- per-layer metrics ----------------------------------------------------

    def metrics(self, names: list[str], ops_per_s: float, verify_checks: int,
                genus_times: dict[int, list[float]]) -> dict[str, float]:
        """The per-layer metrics `names`, from the spans and counters.

        genus_times: genus -> speed-normalised times of the ops that verify that one genus.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls: Counter = Counter()
        total_s: Counter = Counter()
        self_s: Counter = Counter()
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            total_s[name] += dur[i]
            self_s[name.partition(".")[0]] += dur[i] - child[i]
        out: dict[str, float] = {}
        for metric in names:
            stem, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls[stem] + self.counts[metric]
            elif kind == "ms":
                out[metric] = 1000 * total_s[stem]
            elif kind == "self_ms":
                out[metric] = 1000 * self_s[stem]
            else:
                out[metric] = self.counts[metric]
        for metric, num, den in RATIOS:
            out[metric] = self.counts[num] / self.counts[den] if self.counts[den] else 0.0
        out["picard.DivisorClass.ms"] = 1000 * self.construct_s
        out["verify.run_genus.h_exponent"] = h_exponent(genus_times)
        out["verify.checks"] = verify_checks
        out["trace.ops_per_s"] = ops_per_s
        return out


def h_exponent(genus_times: dict[int, list[float]]) -> float:
    """Least-squares slope of log(median time per genus of h) against log(h); 0 under two h values."""
    by_h: dict[int, list[float]] = {}
    for g, times in genus_times.items():
        by_h.setdefault(g // 2, []).extend(times)
    if len(by_h) < 2:
        return 0.0
    xs = [math.log(h) for h in by_h]
    ys = [math.log(statistics.median(v)) for v in by_h.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
