"""Tests of the benchmark's own pieces: span arithmetic, output checks, inputs.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import bench_checks  # noqa: E402
import bench_inputs  # noqa: E402
import bench_trace  # noqa: E402
import run  # noqa: E402
from bench_trace import Span, covered_length, self_times  # noqa: E402
from bench_workloads import ALPHA, LAMBDA, WORKLOADS  # noqa: E402


def span(span_id, start, end, parent=None, thread=1):
    return Span(span_id, f"test.s{span_id}", start, end, parent, 0, thread)


class TestSelfTime:
    def test_nested_spans_subtract_only_direct_children(self):
        spans = [span(0, 0.0, 10.0), span(1, 1.0, 4.0, parent=0), span(2, 2.0, 3.0, parent=1)]
        assert self_times(spans) == pytest.approx({0: 7.0, 1: 2.0, 2: 1.0})

    def test_overlapping_children_count_their_union_once(self):
        # Two children on different threads overlap between 3 and 5.
        spans = [span(0, 0.0, 10.0), span(1, 1.0, 5.0, 0, thread=2), span(2, 3.0, 8.0, 0, thread=3)]
        assert self_times(spans)[0] == pytest.approx(3.0)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(0, 0.0, 2.0), span(1, 1.5, 4.0, parent=0)]
        assert self_times(spans)[0] == pytest.approx(1.5)

    def test_covered_length_merges_touching_and_disjoint_intervals(self):
        assert covered_length([(0, 1), (1, 2), (5, 6), (5.5, 5.7)], 0, 10) == pytest.approx(3.0)
        assert covered_length([], 0, 10) == 0.0

    def test_tracer_links_parents_per_thread_and_records_failures(self):
        tracer = bench_trace.Tracer()

        def fail():
            raise RuntimeError("boom")

        inner = tracer.wrap("corpus.inner", lambda: None)
        failing = tracer.wrap("corpus.failing", fail)
        outer = tracer.wrap("cli.outer", lambda: (inner(), threading.Thread(target=inner).start()))
        outer()
        with pytest.raises(RuntimeError):
            failing()
        by_name = {}
        for s in tracer.spans:
            by_name.setdefault(s.name, []).append(s)
        outer_span = by_name["cli.outer"][0]
        parents = sorted(str(s.parent) for s in by_name["corpus.inner"])
        assert parents == sorted([str(outer_span.span_id), "None"])  # the thread's span has no parent
        assert by_name["corpus.failing"][0].parent is None

    def test_worker_thread_time_is_not_the_waiting_parent_self_time(self):
        tracer = bench_trace.Tracer()
        work = tracer.wrap("discretizer.work", lambda: time.sleep(0.05))

        def spawn_and_wait():
            workers = [threading.Thread(target=work) for _ in range(2)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()

        tracer.wrap("cli.main", tracer.wrap("discretizer.pool", spawn_and_wait))()
        by_name = {}
        for s in tracer.spans:
            by_name.setdefault(s.name, []).append(s)
        assert all(s.parent is None for s in by_name["discretizer.work"])
        own = self_times(tracer.spans)
        pool = by_name["discretizer.pool"][0]
        covered = covered_length([(s.start, s.end) for s in by_name["discretizer.work"]], pool.start, pool.end)
        assert own[pool.span_id] == pytest.approx(pool.duration - covered, abs=1e-12)
        assert own[pool.span_id] < 0.5 * covered
        for s in by_name["discretizer.work"]:
            assert own[s.span_id] == pytest.approx(s.duration)  # busy time stays with the worker
        # cli.main keeps its direct child only; the workers are the pool's.
        main = by_name["cli.main"][0]
        assert own[main.span_id] == pytest.approx(main.duration - pool.duration, abs=1e-12)

    def test_layer_table_reports_every_per_layer_metric(self):
        table = bench_trace.layer_table([Span(0, "cli.main", 0.0, 1.0, None, 0, 1)], {})
        assert set(table) | {"trace.overhead_pct", "trace.spans"} == set(bench_trace.PER_LAYER_UNITS)


def _pool(n_utts=60, seed=3):
    return bench_inputs.label_set(seed, n_utts, 0.2, "u", 1)


class TestBucketCheck:
    def test_one_pick_per_bucket_passes(self):
        pool = _pool()
        ordered = bench_checks.length_sorted_ids(pool)
        picks = tuple(ordered[start] for start, _ in bench_checks.bucket_bounds(len(ordered), 7))
        bench_checks.check_one_per_bucket(picks, ordered, 7)

    def test_two_picks_from_one_bucket_fail(self):
        pool = _pool()
        ordered = bench_checks.length_sorted_ids(pool)
        bounds = bench_checks.bucket_bounds(len(ordered), 7)
        picks = [ordered[start] for start, _ in bounds]
        picks[3] = ordered[bounds[2][0] + 1]  # bucket 2 twice, bucket 3 never
        with pytest.raises(bench_checks.CheckError, match="bucket 2 has 2 picks"):
            bench_checks.check_one_per_bucket(tuple(picks), ordered, 7)

    def test_bucket_bounds_match_the_program(self):
        from scdselect.selection import partition_buckets

        for n, c in [(10, 3), (7, 7), (100, 9), (50_000, 100)]:
            assert bench_checks.bucket_bounds(n, c) == partition_buckets(n, c)

    def test_length_order_matches_the_program(self, tmp_path):
        from scdselect import load_label_corpus, sort_by_length

        pool = _pool()
        bench_inputs.write_label_corpus(tmp_path / "pool.txt", pool)
        program_order = sort_by_length(load_label_corpus(tmp_path / "pool.txt")).ids
        assert list(program_order) == bench_checks.length_sorted_ids(pool)


def _select(tmp_path, order, budget):
    """Run the program's greedy selection through its CLI on a small generated pool."""
    from scdselect.cli import main

    pool, query = bench_inputs.label_set(5, 80, 0.2, "u", 1), bench_inputs.label_set(5, 12, 1.0, "q", 2)
    bench_inputs.write_label_corpus(tmp_path / "pool.txt", pool)
    bench_inputs.write_label_corpus(tmp_path / "query.txt", query)
    report = tmp_path / "report.txt"
    assert main(["select", str(tmp_path / "pool.txt"), str(tmp_path / "query.txt"),
                 "--order", str(order), "--budget-count", str(budget),
                 "--lambda", str(LAMBDA), "--alpha", str(ALPHA), "--output", str(report)]) == 0
    return pool, query, report.read_text(), (tmp_path / "report.txt.ids").read_text()


class TestSelectionChecks:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_program_output_passes_and_recount_agrees(self, tmp_path, order):
        pool, query, report_text, ids_text = _select(tmp_path, order, 6)
        report = bench_checks.check_selection(report_text, ids_text, pool, 6)
        recount = bench_checks.recount_scd(pool, query, report.ids, order, LAMBDA, ALPHA)
        bench_checks.check_recount(report.final_scd, recount)
        assert report.final_scd == pytest.approx(recount, rel=1e-12)

    def test_corrupted_reports_fail(self, tmp_path):
        pool, query, report_text, ids_text = _select(tmp_path, 1, 6)
        ids = bench_checks.parse_report(report_text).ids
        duplicated = report_text.replace(f"2\t{ids[1]}\t", f"2\t{ids[0]}\t")
        assert duplicated != report_text
        with pytest.raises(bench_checks.CheckError):
            bench_checks.check_selection(duplicated, ids_text, pool, 6)
        with pytest.raises(bench_checks.CheckError):
            bench_checks.check_selection(report_text, ids_text, pool, 5)

        report = bench_checks.check_selection(report_text, ids_text, pool, 6)
        recount = bench_checks.recount_scd(pool, query, report.ids, 1, LAMBDA, ALPHA)
        with pytest.raises(bench_checks.CheckError, match="recount"):
            bench_checks.check_recount(report.final_scd * (1 + 1e-7), recount)

    def test_label_file_check(self, tmp_path):
        pool = _pool(5)
        bench_inputs.write_label_corpus(tmp_path / "labels.txt", pool)
        text = (tmp_path / "labels.txt").read_text()
        parsed = bench_checks.parse_label_file(text)
        assert parsed.ids == pool.ids and np.array_equal(parsed.labels, pool.labels)
        with pytest.raises(bench_checks.CheckError, match="one to one"):
            bench_checks.check_label_file(text, pool.ids[:-1], int(pool.lengths[0]), 500)


class TestInputs:
    def test_label_files_are_byte_identical_for_one_seed(self, tmp_path):
        files = []
        for name, seed in [("a", 11), ("b", 11), ("c", 12)]:
            pool, query = bench_inputs.pool_and_query(seed, 300)
            bench_inputs.write_label_corpus(tmp_path / f"{name}.pool", pool)
            bench_inputs.write_label_corpus(tmp_path / f"{name}.query", query)
            files.append((tmp_path / f"{name}.pool").read_bytes() + (tmp_path / f"{name}.query").read_bytes())
        assert files[0] == files[1]
        assert files[0] != files[2]

    def test_label_set_shape(self):
        pool, query = bench_inputs.pool_and_query(4, 500)
        assert pool.from_b.sum() == 100 and query.from_b.all()
        assert pool.lengths.min() >= 400 and pool.lengths.max() <= 600
        assert pool.labels.shape[0] == pool.lengths.sum()
        runs = 1 + np.count_nonzero(np.diff(pool.labels))
        assert 3.0 < pool.labels.shape[0] / runs < 5.0  # mean run of about 4 frames

    def test_wav_files_are_byte_identical_for_one_seed(self, tmp_path):
        blobs = []
        for name, seed in [("a", 7), ("b", 7), ("c", 8)]:
            (tmp_path / name).mkdir()
            audio = bench_inputs.write_audio(tmp_path / name, seed, 3, 0.5)
            blobs.append(b"".join(p.read_bytes() for p in audio.paths))
        assert blobs[0] == blobs[1]
        assert blobs[0] != blobs[2]


class TestBenchmarkFile:
    def test_benchmark_json_matches_the_code(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert {w["name"]: w["why"] for w in spec["workloads"]} == {
            name: w.why for name, w in WORKLOADS.items()
        }
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench_trace.PER_LAYER_UNITS

    def test_refuses_to_run_without_the_program(self, tmp_path):
        (tmp_path / "perfbench").mkdir()
        for path in BENCH_DIR.glob("*.py"):
            (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
        (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", next(iter(WORKLOADS)),
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
