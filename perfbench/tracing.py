"""Per-layer spans recorded from outside the program.

A Tracer replaces public functions of the latseg modules, in the namespace
where their callers look them up, with wrappers that record a span (name,
start, end, parent) and count the work the call did. Spans stay in memory
and are written out at the end of the run. Leaving the `with` block puts
every original function back.

A layer's self time is its spans' duration minus the time covered by their
child spans. The op itself is the root span, `cli.self`, so the self times
of one op sum to its traced wall time. Counting work runs in `trace` spans
of its own, which keeps it out of the layers' self times.

With memory=True, tracemalloc runs during the op and the splat, slice and
forward spans also record their allocation peak above the memory in use
when they started.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import time
import tracemalloc
from collections import defaultdict

import numpy as np

MB = 1 << 20

# Metric names of the per-layer self times, in report order.
SELF_TIMES = (
    "lattice.build", "lattice.adjacency", "lattice.embed",
    "bcl.splat", "bcl.slice", "bcl.convolve", "bcl.slice_adjoint",
    "bcl.convolve_backward", "bcl.descriptor", "bcl.project",
    "network.forward", "network.backward",
    "train.loop", "train.adam", "train.loss",
    "data.load", "data.save",
    "checkpoint.load", "checkpoint.save",
    "cli.self",
)
PEAKS = ("bcl.splat", "bcl.slice", "network.forward")
ROOT = "cli.self"


_signature = functools.lru_cache(maxsize=None)(inspect.signature)


def _arg(fn, name, args, kwargs):
    return _signature(fn).bind(*args, **kwargs).arguments[name]


class Tracer:
    def __init__(self, memory=False):
        self.memory = memory
        self.spans = []  # [op, name, start, end, parent index]
        self.op_counts = []  # per op: {counter: value}
        self.op_peaks = []  # per op: {span name: peak bytes}
        self._stack = []  # open span indices
        self._peak_stack = []  # [traced memory at start, highest seen] per open peak span
        self._patched = []
        self._seen = None
        self._op = None
        self._missing = None

    # --------------------------------------------------------- patching

    def __enter__(self):
        from latseg import bcl, checkpoint, data, lattice, network, train

        self._missing = lattice.MISSING

        def patch(owner, attr, name, count=None, peak=False):
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count, peak))

        for owner in (lattice, bcl):
            patch(owner, "build_lattice", "lattice.build", self._count_build)
        patch(lattice.SparseLattice, "__init__", "lattice.adjacency")
        patch(lattice.SparseLattice, "embed", "lattice.embed")
        patch(bcl, "splat", "bcl.splat", self._count_splat, peak=True)
        patch(bcl, "slice", "bcl.slice", self._count_slice, peak=True)
        patch(bcl, "convolve", "bcl.convolve")
        patch(bcl, "slice_adjoint", "bcl.slice_adjoint")
        patch(bcl, "convolve_backward", "bcl.convolve_backward")
        patch(bcl, "make_descriptor", "bcl.descriptor")
        patch(bcl, "project", "bcl.project")
        patch(network, "forward", "network.forward", peak=True)
        patch(network, "backward", "network.backward")
        patch(train, "train_loop", "train.loop")
        patch(train, "adam_step", "train.adam", self._count_iteration)
        patch(train, "cross_entropy_loss", "train.loss")
        patch(data, "load_cloud", "data.load", self._count_read)
        patch(data, "save_cloud", "data.save", self._count_written)
        for owner in (checkpoint, train):
            patch(owner, "load_train_state", "checkpoint.load")
            patch(owner, "save_checkpoint", "checkpoint.save")
            patch(owner, "save_train_state", "checkpoint.save")
        patch(checkpoint, "load_checkpoint", "checkpoint.load")
        return self

    def __exit__(self, *exc):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, fn, name, count, peak):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            span = tracer._open(name, peak)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    inner = tracer._open("trace", False)
                    try:
                        count(fn, args, kwargs, result)
                    finally:
                        tracer._close(inner, False)
                return result
            finally:
                tracer._close(span, peak)

        return wrapper

    # ------------------------------------------------------------ spans

    def _open(self, name, peak):
        if peak and self.memory:
            current, highest = tracemalloc.get_traced_memory()
            if self._peak_stack:
                outer = self._peak_stack[-1]
                outer[1] = max(outer[1], highest)
            tracemalloc.reset_peak()
            self._peak_stack.append([current, current])
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self._op, name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, span, peak):
        self.spans[span][3] = time.perf_counter()
        self._stack.pop()
        if peak and self.memory:
            start, highest = self._peak_stack.pop()
            highest = max(highest, tracemalloc.get_traced_memory()[1])
            if self._peak_stack:
                outer = self._peak_stack[-1]
                outer[1] = max(outer[1], highest)
            name = self.spans[span][1]
            peaks = self.op_peaks[-1]
            peaks[name] = max(peaks.get(name, 0), highest - start)

    def run_op(self, fn):
        """Call fn() as one traced op under the root span."""
        self._op = len(self.op_counts)
        self.op_counts.append(defaultdict(float))
        self.op_peaks.append({})
        self._seen = set()
        if self.memory:
            tracemalloc.start()
        root = self._open(ROOT, True)
        try:
            return fn()
        finally:
            self._close(root, True)
            if self.memory:
                tracemalloc.stop()
            self._op = None

    # ---------------------------------------------------------- counters

    @property
    def _counts(self):
        return self.op_counts[-1]

    def _count_build(self, fn, args, kwargs, lat):
        c = self._counts
        c["lattice.builds"] += 1
        c["lattice.points"] += lat.num_points
        c["lattice.vertices"] += lat.num_vertices
        c["lattice.slots"] += lat.adjacency.size
        c["lattice.filled"] += int((lat.adjacency != self._missing).sum())
        features = np.ascontiguousarray(_arg(fn, "features", args, kwargs), np.float64)
        config = _arg(fn, "config", args, kwargs)
        h = hashlib.blake2b(digest_size=16)
        for arr in (features, config.scale):
            h.update(repr(arr.shape).encode())
            h.update(arr.tobytes())
        key = h.digest()
        if key in self._seen:
            c["lattice.rebuilds"] += 1
        self._seen.add(key)

    def _count_splat(self, fn, args, kwargs, out):
        lat = _arg(fn, "lat", args, kwargs)
        self._counts["bcl.splat_values"] += lat.point_vertices.size * out.shape[1]

    def _count_slice(self, fn, args, kwargs, out):
        indices = _arg(fn, "indices", args, kwargs)
        self._counts["bcl.slice_values"] += indices.size * out.shape[1]

    def _count_iteration(self, fn, args, kwargs, result):
        self._counts["train.iterations"] += 1

    def _count_read(self, fn, args, kwargs, result):
        path = _arg(fn, "path", args, kwargs)
        self._counts["data.read_mb"] += os.path.getsize(path) / MB

    def _count_written(self, fn, args, kwargs, result):
        path = _arg(fn, "path", args, kwargs)
        self._counts["data.written_mb"] += os.path.getsize(path) / MB

    # ----------------------------------------------------------- results

    def self_times(self):
        """Per op: ({span name: self seconds}, root wall seconds)."""
        per_op = [defaultdict(float) for _ in self.op_counts]
        walls = [0.0] * len(self.op_counts)
        for op, name, start, end, parent in self.spans:
            per_op[op][name] += end - start
            if parent is None:
                walls[op] = end - start
            else:
                p = self.spans[parent]
                per_op[op][p[1]] -= end - start
        return per_op, walls

    def op_metrics(self, op):
        """Counters and derived ratios of one op, plus peaks in MB."""
        c = dict(self.op_counts[op])
        builds = c.get("lattice.builds", 0)
        slots = c.pop("lattice.slots", 0)
        filled = c.pop("lattice.filled", 0)
        rebuilds = c.pop("lattice.rebuilds", 0)
        c["lattice.adjacency_fill"] = filled / slots if slots else 0.0
        c["lattice.rebuild_ratio"] = rebuilds / builds if builds else 0.0
        for name in PEAKS:
            c[f"{name}_peak_mb"] = self.op_peaks[op].get(name, 0) / MB
        return c

    def dump(self, path):
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": ["op", "name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
