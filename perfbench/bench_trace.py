"""Span tracing from outside the program, and the per-layer table built from it.

The benchmark wraps public functions of the scdselect modules at their call
sites (the name a calling module looks up), so every call becomes a span:
name, start, end, parent span, run id and thread id. Spans stay in memory
until the run ends. Nothing here changes what the wrapped functions compute.

A span's self time is its duration minus the part of its interval covered by
its direct child spans. A span recorded on a worker thread has no parent on
its own thread; it counts as a child of the innermost span of the run's main
thread that encloses it, so the wait for the workers is not that span's self
time. The workers' own time is busy time on their threads and is summed over
threads; it may exceed wall time.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable

LAYERS = ("corpus", "ngram", "divergence", "selection", "discretizer", "cli")


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int
    thread_id: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_start = cur_end = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _adopted_parents(spans: list[Span]) -> dict[int, int]:
    """Parent of each parentless worker-thread span: the innermost enclosing main-thread span.

    A run's main thread is the thread of its earliest parentless span.
    """
    by_run: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        by_run[span.run_id].append(span)
    adopted = {}
    for run_spans in by_run.values():
        roots = [s for s in run_spans if s.parent is None]
        if not roots:
            continue
        main_thread = min(roots, key=lambda s: s.start).thread_id
        on_main = [s for s in run_spans if s.thread_id == main_thread]
        for span in run_spans:
            if span.parent is not None or span.thread_id == main_thread:
                continue
            enclosing = [s for s in on_main if s.start <= span.start and span.end <= s.end]
            if enclosing:
                # Spans on one thread nest, so the latest-starting one is innermost.
                adopted[span.span_id] = max(enclosing, key=lambda s: s.start).span_id
    return adopted


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time of every span: duration minus the union of its direct children."""
    spans = list(spans)
    adopted = _adopted_parents(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        parent = span.parent if span.parent is not None else adopted.get(span.span_id)
        if parent is not None:
            children[parent].append((span.start, span.end))
    return {
        span.span_id: span.duration - covered_length(children[span.span_id], span.start, span.end)
        for span in spans
    }


class Tracer:
    """Records spans and named counters for one traced benchmark run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.run_id = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        """``fn`` recording one span per call; ``on_result(tracer, args, result)`` adds counts."""

        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    Span(span_id, name, start, end, parent, self.run_id, threading.get_ident())
                )
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced


def _count_loaded(tracer: Tracer, args, corpus) -> None:
    tracer.count("corpus.load_bytes", os.path.getsize(args[0]))
    tracer.count("corpus.labels_loaded", sum(len(seq) for seq in corpus.sequences))


def _count_support(tracer: Tracer, args, dist) -> None:
    tracer.count("ngram.target_support", len(dist.explicit))


def _count_terms(tracer: Tracer, args, value) -> None:
    tracer.count("divergence.scd_terms", value.support_terms)


def _count_buckets(tracer: Tracer, args, bounds) -> None:
    tracer.count("selection.buckets", len(bounds))
    tracer.count("selection.candidates", sum(end - start for start, end in bounds))


def _count_frames(tracer: Tracer, args, feats) -> None:
    tracer.count("discretizer.frames", feats.shape[0])


def _count_training(tracer: Tracer, args, model) -> None:
    tracer.count("discretizer.lloyd_iterations", model.iterations_run)
    tracer.count("discretizer.inertia_per_frame", model.final_inertia / args[0].shape[0])


# (calling module, attribute, span name, counter hook). A function called from
# two modules is wrapped at both call sites.
CALL_SITES = (
    ("cli", "load_label_corpus", "corpus.load_label_corpus", _count_loaded),
    ("cli", "save_label_corpus", "corpus.save_label_corpus", None),
    ("cli", "load_audio_manifest", "corpus.load_audio_manifest", None),
    ("selection", "sort_by_length", "corpus.sort_by_length", None),
    ("selection", "count_ngrams", "ngram.count_ngrams", None),
    ("selection", "interpolate", "ngram.interpolate", _count_support),
    ("selection", "scd", "divergence.scd", _count_terms),
    ("selection", "scd_incremental", "divergence.scd_incremental", _count_terms),
    ("selection", "build_target_distribution", "selection.build_target_distribution", None),
    ("selection", "partition_buckets", "selection.partition_buckets", _count_buckets),
    ("cli", "select_greedy_scd", "selection.select_greedy_scd", None),
    ("cli", "save_report", "selection.save_report", None),
    ("cli", "read_wav_mono", "discretizer.read_wav_mono", None),
    ("discretizer", "read_wav_mono", "discretizer.read_wav_mono", None),
    ("cli", "compute_mfcc", "discretizer.compute_mfcc", _count_frames),
    ("discretizer", "compute_mfcc", "discretizer.compute_mfcc", _count_frames),
    ("cli", "train_kmeans", "discretizer.train_kmeans", _count_training),
    ("discretizer", "apply_kmeans", "discretizer.apply_kmeans", None),
    ("cli", "discretize_manifest", "discretizer.discretize_manifest", None),
    ("cli", "save_kmeans_model", "discretizer.save_kmeans_model", None),
    ("cli", "load_kmeans_model", "discretizer.load_kmeans_model", None),
)

_CANDIDATE_METHODS = ("add", "distribution")

# Every per-layer metric of a traced run and its unit.
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "corpus.load_s": "s",
    "corpus.load_bytes": "bytes",
    "corpus.labels_loaded": "count",
    "corpus.sort_s": "s",
    "corpus.save_s": "s",
    "ngram.count_s": "s",
    "ngram.count_calls": "count",
    "ngram.interpolate_s": "s",
    "ngram.target_support": "count",
    "divergence.scd_s": "s",
    "divergence.scd_calls": "count",
    "divergence.scd_terms": "count",
    "divergence.scd_incremental_s": "s",
    "divergence.scd_incremental_calls": "count",
    "divergence.candidate_stats_s": "s",
    "selection.select_s": "s",
    "selection.target_s": "s",
    "selection.candidates": "count",
    "selection.buckets": "count",
    "selection.rescores_per_pick": "ratio",
    "selection.report_s": "s",
    "discretizer.wav_read_s": "s",
    "discretizer.mfcc_s": "s",
    "discretizer.frames": "count",
    "discretizer.train_s": "s",
    "discretizer.lloyd_iterations": "count",
    "discretizer.inertia_per_frame": "sqdist",
    "discretizer.assign_s": "s",
    "discretizer.discretize_s": "s",
    "discretizer.model_io_s": "s",
    "discretizer.threads": "count",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


class Instrumentation:
    """Installs the call-site wrappers into the imported scdselect modules."""

    def __init__(self, package) -> None:
        self.package = package
        self._saved: list[tuple[object, str, object]] = []

    def install(self, tracer: Tracer) -> None:
        modules = {name: getattr(self.package, name) for name in ("cli", "selection", "discretizer")}
        for module_name, attr, span_name, hook in CALL_SITES:
            module = modules[module_name]
            self._patch(module, attr, tracer.wrap(span_name, getattr(module, attr), hook))
        # Selection keeps its subset counts in a CandidateStats; a subclass
        # traces the two methods it calls on it.
        base = modules["selection"].CandidateStats
        traced_methods = {
            method: tracer.wrap(f"divergence.CandidateStats.{method}", getattr(base, method))
            for method in _CANDIDATE_METHODS
        }
        self._patch(modules["selection"], "CandidateStats", type(base.__name__, (base,), traced_methods))

    def _patch(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def _sum_durations(spans: list[Span], *names: str) -> float:
    return sum(span.duration for span in spans if span.name in names)


def _calls(spans: list[Span], name: str) -> int:
    return sum(1 for span in spans if span.name == name)


def layer_table(spans: list[Span], counters: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced run (every name in ``PER_LAYER_UNITS``)."""
    own = self_times(spans)
    table = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for span in spans:
        table[f"{span.layer}.self_s"] += own[span.span_id]
    picks = _calls(spans, "divergence.scd")
    rescores = _calls(spans, "divergence.scd_incremental")
    table.update(
        {
            "corpus.load_s": _sum_durations(spans, "corpus.load_label_corpus"),
            "corpus.load_bytes": counters.get("corpus.load_bytes", 0.0),
            "corpus.labels_loaded": counters.get("corpus.labels_loaded", 0.0),
            "corpus.sort_s": _sum_durations(spans, "corpus.sort_by_length"),
            "corpus.save_s": _sum_durations(spans, "corpus.save_label_corpus"),
            "ngram.count_s": _sum_durations(spans, "ngram.count_ngrams"),
            "ngram.count_calls": _calls(spans, "ngram.count_ngrams"),
            "ngram.interpolate_s": _sum_durations(spans, "ngram.interpolate"),
            "ngram.target_support": counters.get("ngram.target_support", 0.0),
            "divergence.scd_s": _sum_durations(spans, "divergence.scd"),
            "divergence.scd_calls": picks,
            "divergence.scd_terms": counters.get("divergence.scd_terms", 0.0),
            "divergence.scd_incremental_s": _sum_durations(spans, "divergence.scd_incremental"),
            "divergence.scd_incremental_calls": rescores,
            "divergence.candidate_stats_s": _sum_durations(
                spans, *(f"divergence.CandidateStats.{m}" for m in _CANDIDATE_METHODS)
            ),
            "selection.select_s": _sum_durations(spans, "selection.select_greedy_scd"),
            "selection.target_s": _sum_durations(spans, "selection.build_target_distribution"),
            "selection.candidates": counters.get("selection.candidates", 0.0),
            "selection.buckets": counters.get("selection.buckets", 0.0),
            "selection.rescores_per_pick": rescores / picks if picks else 0.0,
            "selection.report_s": _sum_durations(spans, "selection.save_report"),
            "discretizer.wav_read_s": _sum_durations(spans, "discretizer.read_wav_mono"),
            "discretizer.mfcc_s": _sum_durations(spans, "discretizer.compute_mfcc"),
            "discretizer.frames": counters.get("discretizer.frames", 0.0),
            "discretizer.train_s": _sum_durations(spans, "discretizer.train_kmeans"),
            "discretizer.lloyd_iterations": counters.get("discretizer.lloyd_iterations", 0.0),
            "discretizer.inertia_per_frame": counters.get("discretizer.inertia_per_frame", 0.0),
            "discretizer.assign_s": _sum_durations(spans, "discretizer.apply_kmeans"),
            "discretizer.discretize_s": _sum_durations(spans, "discretizer.discretize_manifest"),
            "discretizer.model_io_s": _sum_durations(
                spans, "discretizer.save_kmeans_model", "discretizer.load_kmeans_model"
            ),
            "discretizer.threads": len(
                {span.thread_id for span in spans if span.layer == "discretizer"}
            ),
        }
    )
    return table
