"""Spans and counters around klsym's layers, installed from outside the package.

The tracer rebinds each target function wherever a klsym module or class
holds it (``cli`` imports ``local_factor`` by name, ``CycInt`` aliases
``__rmul__`` to ``__mul__``), so every call path is seen without editing
``src/``.  Layer functions get spans; the hot ring methods get counters
only, because a span per call would dwarf the arithmetic they time.

Spans are kept in memory as ``[name, start, end, parent]`` and written as
JSONL when the run ends.  A layer's self time is its span's duration minus
the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

SPAN, COUNT = "span", "count"

# (module under klsym, attribute path, layer label, kind)
TARGETS = (
    ("ff", "points_up_to", "ff.points_up_to", SPAN),
    ("ff", "Field.mul", "ff.field_mul", COUNT),
    ("expsum", "KloostermanEvaluator.kloosterman", "expsum.kloosterman", SPAN),
    # The per-field discrete-log/trace table boundary; the one private name.
    ("expsum", "_mult_data", "expsum.table", SPAN),
    ("expsum", "SumCache.get", "expsum.cache", COUNT),
    ("cyclo", "CycInt.__mul__", "cyclo.mul", COUNT),
    ("cyclo", "CycInt.__init__", "cyclo.init", COUNT),
    ("cyclo", "CycInt.pi_val", "cyclo.pi_val", COUNT),
    ("padic", "PadicCyc.__mul__", "padic.mul", COUNT),
    ("padic", "slope_split", "padic.slope_split", SPAN),
    ("padic", "one_unit_power", "padic.one_unit_power", SPAN),
    ("lfun", "local_factor", "lfun.local_factor", SPAN),
    ("lfun", "sym_k_factor", "lfun.sym_k_factor", SPAN),
    ("lfun", "sym_inf_local", "lfun.sym_inf_local", SPAN),
    ("lfun", "euler_product", "lfun.euler_product", SPAN),
    ("polygon", "newton_points", "polygon.newton_points", SPAN),
    ("polygon", "verify_above", "polygon.verdict", SPAN),
    ("polygon", "compare_slope_range", "polygon.verdict", SPAN),
    ("cli", "run", "cli.run", SPAN),
    ("cli", "write_report", "cli.write_report", SPAN),
)

# Per-layer metrics, named "<label>.<stat>": "s" and "self_s" are self
# seconds, "calls" counts calls, and the other stats are hook counters.
LAYER_METRICS = (
    "ff.points_up_to.s", "ff.field_mul.calls",
    "expsum.kloosterman.s", "expsum.kloosterman.calls",
    "expsum.table.s", "expsum.table.builds",
    "expsum.cache.hits", "expsum.cache.misses",
    "cyclo.mul.calls", "cyclo.init.calls", "cyclo.pi_val.calls",
    "padic.mul.calls", "padic.slope_split.s",
    "padic.one_unit_power.s", "padic.one_unit_power.calls",
    "lfun.local_factor.s", "lfun.local_factor.calls", "lfun.sym_k_factor.s",
    "lfun.sym_inf_local.s", "lfun.euler_product.s",
    "polygon.newton_points.s", "polygon.verdict.s",
    "cli.run.self_s", "cli.write_report.s",
)


def metric_unit(metric):
    return "s" if metric.rsplit(".", 1)[1] in ("s", "self_s") else "count"


def _hooks():
    """Counters that need a call's arguments or result, keyed by label.

    A table build is the first ``_mult_data`` call for a field: the child
    process starts with no tables, so distinct fields are builds.  A cache
    lookup is a hit when ``SumCache.get`` returns a value.
    """
    seen_fields = set()

    def table(args, result):
        if args and args[0] not in seen_fields:
            seen_fields.add(args[0])
            return "expsum.table.builds"
        return None

    def cache(args, result):
        return "expsum.cache.misses" if result is None else "expsum.cache.hits"

    return {"expsum.table": table, "expsum.cache": cache}


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._stack = []
        # One-element lists: bumping one costs a third of a Counter update,
        # which matters at millions of ring operations per run.
        self._cells = {}

    @property
    def counts(self):
        return {key: cell[0] for key, cell in self._cells.items()}

    def _cell(self, key):
        return self._cells.setdefault(key, [0])

    def _observe(self, hook, args, result):
        key = hook(args, result)
        if key is not None:
            self._cell(key)[0] += 1

    def wrap(self, label, kind, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        calls = self._cell(label + ".calls")

        if kind == COUNT and hook is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[0] += 1
                return fn(*args, **kwargs)
            return counted

        if kind == COUNT:
            @functools.wraps(fn)
            def observed(*args, **kwargs):
                calls[0] += 1
                result = fn(*args, **kwargs)
                self._observe(hook, args, result)
                return result
            return observed

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            calls[0] += 1
            rec = [label, clock(), None, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if hook is not None:
                self._observe(hook, args, result)
            return result
        return spanned

    def install(self, modules, targets=TARGETS):
        """Wrap every target found in ``modules`` (short name -> module).

        A target whose module or attribute no longer exists is recorded in
        ``self.absent`` as ``module.path`` and otherwise skipped.
        """
        hooks = _hooks()
        for modname, path, label, kind in targets:
            original = _resolve(modules.get(modname), path)
            if original is None:
                self.absent.append(f"{modname}.{path}")
                continue
            wrapper = self.wrap(label, kind, original, hooks.get(label))
            _rebind(modules.values(), original, wrapper)

    def dump(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
            fh.write(json.dumps({"counters": self.counts,
                                 "absent": self.absent}) + "\n")


def _resolve(module, path):
    """The raw function at ``path`` inside ``module``, or None."""
    obj = module
    for part in path.split("."):
        if obj is None:
            return None
        obj = vars(obj).get(part)
    return obj if callable(obj) else None


def _rebind(modules, original, wrapper):
    """Point every module global and class attribute that is ``original`` at ``wrapper``."""
    for mod in modules:
        owners = [mod] + [v for v in vars(mod).values()
                          if isinstance(v, type) and v.__module__ == mod.__name__]
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapper)


def read_trace(path):
    """(spans, counters, absent) from a JSONL trace written by ``Tracer.dump``."""
    spans, counters, absent = [], {}, []
    with open(path, encoding="ascii") as fh:
        for line in fh:
            rec = json.loads(line)
            if "counters" in rec:
                counters, absent = rec["counters"], rec["absent"]
            else:
                spans.append((rec["name"], rec["start"], rec["end"], rec["parent"]))
    return spans, counters, absent


def self_times(spans):
    """Self seconds per span: duration minus the union its children cover."""
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for s, e in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


def summarize(spans, counters, absent, targets=TARGETS):
    """Per-layer metric values, and the metrics whose every source is absent."""
    totals = Counter(counters)
    for (name, *_), own in zip(spans, self_times(spans)):
        totals[name + ".s"] += own
    sources = {}
    for modname, path, label, _ in targets:
        sources.setdefault(label, []).append(f"{modname}.{path}")
    values, missing = {}, []
    for metric in LAYER_METRICS:
        label = metric.rsplit(".", 1)[0]
        values[metric] = float(totals[label + ".s" if metric_unit(metric) == "s" else metric])
        if all(src in absent for src in sources.get(label, ())):
            missing.append(metric)
    return values, missing
