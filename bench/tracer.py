"""Spans around calls into sicpl, installed from outside the package.

``Tracer.install`` replaces every public function of the seven sicpl
modules with a timing wrapper, both in the module that defines it and in
every sicpl module that imported the name, so a call from one module into
another nests under its caller.  Spans are kept in memory as
(name, start ns, end ns, parent index, op id, amount) and written out by
``dump``.  The GaussianRational operations are counted, not spanned.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

MODULES = ("exact", "groups", "selection", "catalog", "spectrum", "fileio", "cli")
# Per-sample and per-character helpers: a span on each call would cost
# more than the work it times.
UNTRACED = frozenset({"spectrum.cos2phi", "exact.rational"})
METHODS = (("catalog", "Catalog", "lines_for"), ("catalog", "Catalog", "unit_residuals"))
EXACT_OPS = ("__add__", "__mul__", "scale", "conjugate")
VERDICTS = frozenset({"selection.direct_verdict", "selection.phonon_assisted_verdict"})


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _cache_misses(fn, args, kwargs):
    before = fn.cache_info().misses
    return lambda: fn.cache_info().misses - before


def _point_components(fn, args, kwargs):
    bound = _bound(fn, args, kwargs)
    shapes = bound["shapes"]
    components = sum(
        1 + len((shapes[line.label] if isinstance(shapes, dict) else shapes).sideband)
        for line, _ in bound["excited"]
    )
    units = len(bound["grid"]) * components
    return lambda: units


def _samples(fn, args, kwargs):
    n = len(_bound(fn, args, kwargs)["phi_values"])
    return lambda: n


def _size_after(fn, args, kwargs):
    path = _bound(fn, args, kwargs)["path"]
    return lambda: os.path.getsize(path)


def _size_before(fn, args, kwargs):
    size = os.path.getsize(_bound(fn, args, kwargs)["path"])
    return lambda: size


# span name -> hook(fn, args, kwargs) called before the call; the callable it
# returns gives the span's amount after a successful call
AMOUNTS = {
    "groups.builtin_group": _cache_misses,
    "catalog.builtin_catalog": _cache_misses,
    "spectrum.synthesize_spectrum": _point_components,
    "spectrum.angular_scan": _samples,
    "fileio.write_spectrum": _size_after,
    "fileio.write_angular_samples": _size_after,
    "fileio.read_spectrum": _size_before,
    "fileio.read_angular_samples": _size_before,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.op = -1
        self.extra: dict[str, list[int]] = defaultdict(list)
        self._stack: list[int] = []
        self._exact_ops = [0]
        self._op_start_ops = 0
        self._undo: list = []

    # -- installation -------------------------------------------------
    def install(self) -> None:
        loaded = [m for n, m in list(sys.modules.items()) if n == "sicpl" or n.startswith("sicpl.")]
        for short in MODULES:
            module = sys.modules.get(f"sicpl.{short}")
            if module is None:
                continue
            for attr, obj in list(vars(module).items()):
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in UNTRACED or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                wrapper = self._span(name, obj)
                for importer in loaded:
                    for other, value in list(vars(importer).items()):
                        if value is obj:
                            self._set(importer, other, wrapper)
        for short, cls_name, method in METHODS:
            module = sys.modules.get(f"sicpl.{short}")
            if module is not None:
                cls = getattr(module, cls_name)
                self._set(cls, method, self._span(f"{short}.{method}", cls.__dict__[method]))
        exact = sys.modules["sicpl.exact"]
        for method in EXACT_OPS:
            cls = exact.GaussianRational
            self._set(cls, method, self._count(cls.__dict__[method]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _count(self, fn):
        counter = self._exact_ops

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counter[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        hook = AMOUNTS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            amount = hook(fn, args, kwargs) if hook else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.op,
                                amount() if ok and amount else 0)
        return wrapper

    # -- ops ----------------------------------------------------------
    def begin_op(self, kind: str) -> None:
        self.op += 1
        self._op_index = len(self.spans)
        self._stack.append(self._op_index)
        self.spans.append(None)
        self._op_start = time.perf_counter_ns()
        self._op_start_ops = self._exact_ops[0]
        self._op_kind = kind

    def end_op(self) -> None:
        self._stack.pop()
        self.spans[self._op_index] = (f"op.{self._op_kind}", self._op_start, time.perf_counter_ns(),
                             -1, self.op, self._exact_ops[0] - self._op_start_ops)

    def merge_child(self, path: str, in_op: bool = True) -> None:
        """Adopt a child process's dump, under the last op span if ``in_op``."""
        with open(path) as fh:
            child = json.load(fh)
        op_index, op = (self._op_index, self.op) if in_op else (-1, -1)
        if in_op:  # the child's exact operations belong to the op
            name, start, end, parent, op_id, amount = self.spans[op_index]
            self.spans[op_index] = (name, start, end, parent, op_id, amount + child["exact_ops"])
        base = len(self.spans)
        names = child["names"]
        for name_id, start, end, parent, _, amount in child["spans"]:
            self.spans.append((names[name_id], start, end,
                               op_index if parent < 0 else parent + base, op, amount))
        for key, values in child["extra"].items():
            self.extra[key].extend(values)

    def dump(self, path: str) -> None:
        names: dict[str, int] = {}
        rows = [[names.setdefault(s[0], len(names)), *s[1:]] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": list(names), "spans": rows,
                       "exact_ops": self._exact_ops[0], "extra": self.extra}, fh)


class SpanStats:
    """Per-name totals of a span list, with self time and an op-count window."""

    def __init__(self, spans: list, window: int) -> None:
        covered = [0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        self.calls = defaultdict(int)
        self.ns = defaultdict(int)
        self.amount = defaultdict(int)
        self.window_calls = defaultdict(int)
        self.window_amount = defaultdict(int)
        self.module_self_ns = defaultdict(int)
        self.cold_ns = defaultdict(list)
        self.verdict_decomposes = 0
        verdict_rows = set()
        for i, (name, start, end, parent, op, amount) in enumerate(spans):
            duration = end - start
            self.calls[name] += 1
            self.ns[name] += duration
            self.amount[name] += amount
            if 0 <= op < window:
                self.window_calls[name] += 1
                self.window_amount[name] += amount
            self.module_self_ns[name.split(".")[0]] += duration - covered[i]
            if name in ("groups.builtin_group", "catalog.builtin_catalog") and amount:
                self.cold_ns[name].append(duration)
            if name in VERDICTS:
                verdict_rows.add(i)
        for name, _, _, parent, _, _ in spans:
            if name != "groups.decompose":
                continue
            while parent >= 0 and parent not in verdict_rows:
                parent = spans[parent][3]
            self.verdict_decomposes += parent >= 0

    def mean_ms(self, *names: str) -> float:
        calls = sum(self.calls[n] for n in names)
        return sum(self.ns[n] for n in names) / calls / 1e6 if calls else 0.0
