"""Per-layer spans recorded from outside the package.

A traced run replaces module-level names of ``lutpool`` (the functions
the pipeline and the training loop look up at call time) with wrappers
that record one span per call: name, start, end and the enclosing span.
Spans stay in memory and are written out once the run ends.  A layer's
self time is its span's duration minus the durations of its child spans.

Counters are taken at the same boundaries.  Work a counter does on
arrays (``count_nonzero`` over corner weights) is recorded as a
``trace.bookkeeping`` child span, so it never inflates the self time of
the layer that called the wrapped function.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import Counter, defaultdict

import numpy as np

BOOKKEEPING = "trace.bookkeeping"


def _count_corner_weights(counts, args, result):
    base = args[0]
    _, weights = result
    counts["lut.queries"] += base.shape[0]
    counts["lut.corner_reads"] += weights.size
    counts["lut.useful_corners"] += int(np.count_nonzero(weights))


def _count_interpolate(counts, args, result):
    table, base = args[0], args[1]
    # float64 rows gathered: one m-vector per corner per query
    counts["lut.bytes_read_computed"] += (
        base.shape[0] * (1 << base.shape[1]) * table.shape[-1] * table.itemsize)


def _count_real_table(counts, args, result):
    if result is not getattr(args[0], "entries", None):   # a real table is passed through
        counts["lut.real_table_bytes"] += result.nbytes


def _count_combine(counts, args, result):
    counts["pooling.anchors"] += args[1].shape[1]


def _count_restore(counts, args, result):
    counts["pipeline.frames"] += 1


def _count_step(counts, args, result):
    counts["train.steps"] += 1


# (module, attribute, span name, counter).  A function imported by name
# into several modules is replaced in each of them under one span name.
TARGETS = (
    ("lutpool.lut", "corner_weights", "lut.corner_weights", _count_corner_weights),
    ("lutpool.train", "corner_weights", "lut.corner_weights", _count_corner_weights),
    ("lutpool.lut", "interpolate", "lut.interpolate", _count_interpolate),
    ("lutpool.pipeline", "interpolate", "lut.interpolate", _count_interpolate),
    ("lutpool.lut", "real_table", "lut.real_table", _count_real_table),
    ("lutpool.pipeline", "real_table", "lut.real_table", _count_real_table),
    ("lutpool.pooling", "query_batch", "lut.query_batch", None),
    ("lutpool.pipeline", "average_weights", "pooling.average_weights", None),
    ("lutpool.pipeline", "gmp_weights", "pooling.gmp_weights", None),
    ("lutpool.pipeline", "oap_weights", "pooling.oap_weights", None),
    ("lutpool.pipeline", "combine", "pooling.combine", _count_combine),
    ("lutpool.pipeline", "bicubic_resize", "pipeline.bicubic_resize", None),
    ("lutpool.pipeline", "apply_residual", "pipeline.apply_residual", None),
    ("lutpool.pipeline", "pixel_shuffle", "pipeline.pixel_shuffle", None),
    ("lutpool.pipeline", "restore_image", "pipeline.restore_image", _count_restore),
    ("lutpool.train", "restore_image", "pipeline.restore_image", _count_restore),
    ("lutpool.train", "forward_backward", "train.forward_backward", _count_step),
    ("lutpool.train", "adam_step", "train.adam_step", None),
    ("lutpool.train", "sample_batch", "train.sample_batch", None),
    ("lutpool.train", "evaluate_pairs", "train.evaluate_pairs", None),
)


class Tracer:
    """In-memory span log for one single-threaded run."""

    def __init__(self):
        self.spans = []         # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.hooks = {}         # span name -> extra callable(args, result)

    def wrap(self, name, fn, count=None):
        spans, stack, counts, hooks = self.spans, self.stack, self.counts, self.hooks
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            hook = hooks.get(name)
            if count is not None or hook is not None:
                if count is not None:
                    count(counts, args, result)
                if hook is not None:
                    hook(args, result)
                spans.append([BOOKKEEPING, end, clock(), stack[-1] if stack else -1])
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every target name for the duration of the block."""
        saved = []
        try:
            for module_name, attr, span_name, count in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
        for module, attr, original in saved:
            if getattr(module, attr) is not original:
                raise RuntimeError(f"{module.__name__}.{attr} was not restored")

    def _own(self):
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def _inside(self, index, name):
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

    def summary(self):
        """Self seconds and inclusive seconds per span name.

        Inclusive time counts outermost calls only, so a name reached
        again inside itself (through another wrapped name) is not
        counted twice.
        """
        own = self._own()
        self_s = defaultdict(float)
        inclusive = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_s[name] += own[i]
            if not self._inside(parent, name):
                inclusive[name] += end - start
        return self_s, inclusive

    def attributed(self, root):
        """Self seconds of all layer spans at or below calls of ``root``."""
        own = self._own()
        return sum(own[i] for i, span in enumerate(self.spans)
                   if span[0] != BOOKKEEPING and self._inside(i, root))

    def write(self, path):
        """One JSON object per line: id, parent, name, start and end in seconds."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                     "start": start - origin,
                                     "end": end - origin}) + "\n")
