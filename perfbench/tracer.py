"""Span recorder for the traced run, installed from outside the program.

``install()`` replaces public names of tracepattern, where their callers
look them up, with wrappers that keep spans (name, start, end, parent) in
memory and count work from return values. Nothing is written until
``Recorder.dump``. A name that no longer exists is reported as absent and
the run goes on without it. Untraced runs never import this module.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time


class Recorder:
    def __init__(self):
        self.spans = []  # [name, start, end, index of the parent span or -1]
        self.counts = {}
        self.absent = []
        self._open = []

    def begin(self, name):
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent])

    def end(self):
        self.spans[self._open.pop()][2] = time.perf_counter()

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def wrap(self, owner, attr, name, counter=None, timed=True):
        """Replace ``owner.attr`` by a wrapper that records a span ``name``
        around each call (unless ``timed`` is false) and then calls
        ``counter(recorder, result, args, kwargs)``."""
        orig = getattr(owner, attr, None) if owner is not None else None
        if orig is None:
            self.absent.append(name)
            return

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if timed:
                self.begin(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                if timed:
                    self.end()
            if counter is not None:
                try:
                    counter(self, result, args, kwargs)
                except Exception:  # a changed return type must not fail the run
                    if f"{name} (counts)" not in self.absent:
                        self.absent.append(f"{name} (counts)")
            return result

        setattr(owner, attr, wrapper)

    def wrap_chunks(self, owner, attr, span):
        """Time each ``next()`` of the chunk generator that ``owner.attr`` returns."""
        orig = getattr(owner, attr, None)
        if orig is None:
            self.absent.append(span)
            return

        def timed(chunks):
            while True:
                self.begin(span)
                try:
                    chunk = next(chunks)
                except StopIteration:
                    return
                finally:
                    self.end()
                yield chunk

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            return timed(orig(*args, **kwargs))

        setattr(owner, attr, wrapper)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "absent": self.absent}, fh)


def _module(name):
    try:
        return importlib.import_module(f"tracepattern.{name}")
    except ImportError:
        return None


def _ungated_nearest(rec, result, args, kwargs):
    gate = args[3] if len(args) > 3 else kwargs.get("max_dist_km")
    if gate is None:
        rec.count("network.nearest.calls", 1)


def _nearest_batch(rec, result, args, kwargs):
    seg_ids = result[0]
    rec.count("network.nearest_batch.points", len(seg_ids))
    rec.count("network.nearest_batch.matched", (seg_ids >= 0).sum())


def _file_bytes(name, pos):
    def counter(rec, result, args, kwargs):
        rec.count(name, os.path.getsize(args[pos] if len(args) > pos else kwargs["path"]))
    return counter


def install():
    """Wrap the layer boundaries of tracepattern; returns the Recorder."""
    rec = Recorder()
    pipeline, cli = _module("pipeline"), _module("cli")
    network, matching = _module("network"), _module("matching")
    patterns, congestion, export = _module("patterns"), _module("congestion"), _module("export")
    index = getattr(network, "SpatialIndex", None)
    tensors = getattr(patterns, "TensorBuilder", None)

    # roots: everything below runs inside one of these two
    rec.wrap(pipeline, "run_pipeline", "pipeline")
    rec.wrap(getattr(cli, "analyze", None), "callback", "pipeline")

    # pipeline imports read_chunks_from_path by name, so wrap it there
    rec.wrap_chunks(pipeline, "read_chunks_from_path", "ingest.read_chunks")
    rec.wrap(network, "load_network", "network.load_network")
    # net.index builds lazily, inside whichever call touches it first
    rec.wrap(index, "__init__", "network.index_build")
    rec.wrap(index, "nearest", "network.nearest", _ungated_nearest, timed=False)
    rec.wrap(index, "nearest_batch", "network.nearest_batch", _nearest_batch)
    rec.wrap(matching, "estimate_offset", "matching.estimate_offset")
    rec.wrap(matching, "apply_offset", "matching.apply_offset",
             lambda r, out, a, k: r.count("matching.offset_skipped", out[1]))
    rec.wrap(matching, "match_batch", "matching.match_batch",
             lambda r, out, a, k: r.count("matching.unmatched", out[1]))
    rec.wrap(tensors, "add", "patterns.add",
             lambda r, out, a, k: r.count("patterns.points", len(a[1])))
    rec.wrap(tensors, "finalize", "patterns.finalize",
             lambda r, out, a, k: r.count("patterns.cells", out[0].values.size))
    rec.wrap(patterns, "clean_speed_matrix", "patterns.clean",
             lambda r, out, a, k: r.count("patterns.roads_dropped", len(out.dropped_road_ids)))
    rec.wrap(congestion, "score_matrix", "congestion.score_matrix")
    rec.wrap(congestion, "daily_aggregates", "congestion.daily_aggregates")
    rec.wrap(congestion, "fitting_index", "congestion.fitting_index")
    rec.wrap(export, "write_matrix_csv", "export.write_matrix_csv",
             _file_bytes("export.write_matrix_csv.bytes", 1))
    rec.wrap(export, "sha256_file", "export.sha256_file")
    rec.wrap(export, "read_matrix_csv", "export.read_matrix_csv",
             _file_bytes("export.read_matrix_csv.bytes", 0))
    return rec
