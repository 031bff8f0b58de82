"""Span recording around the calls into each ``repro`` module.

The benchmark's traced run (``--trace 1``) installs a :class:`Tracer`,
which replaces public functions of the program with timed wrappers.  A
function imported by name into a caller module is replaced under the
caller's name as well (``repro.engine.runner.mark_naive``), because that
is the binding the caller looks up.  Each call records one span:
``(name, span_id, parent_id, request_id, start, end, self_seconds)``.
Spans stay in memory and are written out once, when the run ends.

A span's self time is its duration minus the time covered by its child
spans, so each layer's time is counted once.
"""
from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict


def _targets():
    """(owner, attribute, span name) of every wrapped function."""
    from repro.core import distance, histsim
    from repro.engine import costmodel, runner
    from repro.storage import blocks
    from repro.tables import metrics
    from repro.workloads import queries

    return [
        (queries, "generate", "datasets.generate"),
        (queries, "load_dataset", "queries.load_dataset"),
        (queries, "prepare", "queries.prepare"),
        (queries, "build_counts_index", "blocks.build_counts_index"),
        (queries, "bitmap_from_index", "bitmap.bitmap_from_index"),
        (runner, "run_variant", "runner.run_variant"),
        (runner, "run_scan", "runner.run_scan"),
        (runner, "mark_naive", "bitmap.mark_naive"),
        (runner, "block_counts", "blocks.block_counts"),
        (distance, "candidate_distances", "distance.candidate_distances"),
        (blocks.BlockCountsIndex, "gather", "blocks.gather"),
        (histsim.HistSimState, "update", "histsim.update"),
        (histsim.HistSimState, "iterate", "histsim.iterate"),
        (costmodel.CostModel, "modeled_seconds", "costmodel.modeled_seconds"),
        (metrics, "guarantee1_satisfied", "metrics.guarantee1"),
        (metrics, "guarantee2_satisfied", "metrics.guarantee2"),
    ]


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.request: str | None = None
        self._stack: list[list] = []  # [span_id, child_seconds] per open span
        self._next_id = 0
        self._saved: list[tuple] = []

    def _wrap(self, name, fn):
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                self._stack.pop()
                dur = end - start
                if self._stack:
                    self._stack[-1][1] += dur
                self.spans.append(
                    (name, span_id, parent, self.request, start, end, dur - frame[1])
                )

        return traced

    def install(self) -> None:
        for owner, attr, name in _targets():
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def clear(self) -> None:
        """Drop recorded spans (the set-up spans, once summarised)."""
        self.spans.clear()

    def self_seconds(self, request_ids=None) -> dict[str, float]:
        """Total self time per span name, over the given requests (or all)."""
        out: dict[str, float] = defaultdict(float)
        for name, _, _, req, _, _, self_s in self.spans:
            if request_ids is None or req in request_ids:
                out[name] += self_s
        return dict(out)

    def calls(self, request_ids=None) -> dict[str, int]:
        """Number of spans per name, over the given requests (or all)."""
        out: dict[str, int] = defaultdict(int)
        for name, _, _, req, *_ in self.spans:
            if request_ids is None or req in request_ids:
                out[name] += 1
        return dict(out)

    def calls_by_request(self, name: str) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span_name, _, _, req, *_ in self.spans:
            if span_name == name:
                out[req] += 1
        return dict(out)

    def write(self, path, spark_jobs: dict[str, list[int]]) -> None:
        """Write every span, and each request's Spark job ids, as gzip JSON."""
        with gzip.open(path, "wt") as fh:
            json.dump(
                {
                    "fields": ["name", "span_id", "parent_id", "request_id",
                               "start_s", "end_s", "self_s"],
                    "spans": self.spans,
                    "spark_jobs": spark_jobs,
                },
                fh,
            )
