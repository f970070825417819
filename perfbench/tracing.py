"""Spans around the benchmark's calls into the library, and their totals.

A span is one call from the benchmark into a public function of one
layer: ``[name, layer, start, end, parent, op]``, where ``parent`` is the
index of the span that was open when this one began (-1 for none) and
``op`` the index of the operation it served (-1 during set-up).  Garbage
collector pauses become spans of the ``py`` layer through ``gc.callbacks``,
nested under whatever call they interrupted.  Spans stay in memory and are
written out once, when the session ends.

The untraced run uses :class:`NullTracer`, whose ``call`` is a plain call,
so both runs go through the same code.
"""

from __future__ import annotations

import gc
import json
from time import perf_counter

LAYERS = ("frontier", "forest", "bound", "graphio", "py", "bench")


class NullTracer:
    op = -1

    def call(self, layer, name, fn, *args):
        return fn(*args)

    def start(self):
        pass

    def stop(self):
        pass


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.open: list[int] = []
        self.op = -1
        # first and one-past-last span index of the timed phase
        self.timed = (0, 0)

    def call(self, layer, name, fn, *args):
        open_ = self.open
        # Build the record before taking its index: allocating it may run
        # the collector, whose own span would then take that index.
        rec = [name, layer, 0.0, 0.0, open_[-1] if open_ else -1, self.op]
        idx = len(self.spans)
        self.spans.append(rec)
        open_.append(idx)
        rec[2] = perf_counter()
        try:
            return fn(*args)
        finally:
            rec[3] = perf_counter()
            open_.pop()

    def _gc(self, phase, info):
        if phase == "start":
            rec = [f"gc{info['generation']}", "py", 0.0, 0.0, self.open[-1] if self.open else -1, self.op]
            self.open.append(len(self.spans))
            self.spans.append(rec)
            rec[2] = perf_counter()
        elif self.open and self.spans[self.open[-1]][1] == "py":
            self.spans[self.open.pop()][3] = perf_counter()

    def start(self):
        """Begin the timed phase; collector pauses are recorded from here."""
        self.timed = (len(self.spans), len(self.spans))
        gc.callbacks.append(self._gc)

    def stop(self):
        gc.callbacks.remove(self._gc)
        self.timed = (self.timed[0], len(self.spans))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent", "op"], "spans": self.spans}, fh)

    def totals(self) -> dict[str, float]:
        """Per-name and per-layer time and counts.

        Set-up spans count only for the ``frontier`` layer, which runs
        nowhere else; every other figure covers the timed phase.  A layer's
        self time is its spans' duration minus the part covered by their
        child spans.
        """
        spans = self.spans
        lo, hi = self.timed
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[4] >= 0:
                child_time[s[4]] += s[3] - s[2]
        out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS if layer != "py"}
        for i, s in enumerate(spans):
            name, layer, t0, t1 = s[0], s[1], s[2], s[3]
            if layer != "frontier" and not lo <= i < hi:
                continue
            dur = t1 - t0
            if layer == "py":
                out["py.gc_pause_s"] = out.get("py.gc_pause_s", 0.0) + dur
                if name == "gc2":
                    out["py.gc_gen2"] = out.get("py.gc_gen2", 0) + 1
                continue
            out[f"{layer}.self_s"] += dur - child_time[i]
            if layer != "bench":
                key = f"{layer}.{name}_s"
                out[key] = out.get(key, 0.0) + dur
        return out
