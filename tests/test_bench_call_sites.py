"""The benchmark's traced call sites still exist and are still called.

``perfbench/bench_trace.py`` wraps program functions by the names their
calling modules look up (``CALL_SITES``). This loads that file as it is,
installs its wrappers on the imported package, and runs one small greedy
``select``, ``train-kmeans`` and ``discretize`` through the CLI, so a
refactor that drops or renames a traced name, or stops calling it, fails
here and not only in a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import scdselect
import scdselect.cli
from scdselect.corpus import save_label_corpus

from conftest import make_corpus
from test_discretizer import tone, write_wav

BENCH_TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"


def _load_bench_trace(monkeypatch):
    spec = importlib.util.spec_from_file_location("_bench_trace_under_test", BENCH_TRACE)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name while the file runs.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _traced_main(bench_trace, argv):
    """Exit status of the CLI run with the benchmark's wrappers installed, and its tracer."""
    tracer = bench_trace.Tracer()
    instrumentation = bench_trace.Instrumentation(scdselect)
    try:
        instrumentation.install(tracer)
        status = scdselect.cli.main(argv)
    finally:
        instrumentation.uninstall()
    return status, tracer


def test_greedy_select_runs_every_traced_selection_call_site(tmp_path, monkeypatch):
    bench_trace = _load_bench_trace(monkeypatch)
    pool = tmp_path / "pool.txt"
    query = tmp_path / "query.txt"
    save_label_corpus(make_corpus([[0, 1, 2, 1, 0], [2, 2, 1], [1, 0, 0, 2], [0, 2]], 3), pool)
    save_label_corpus(make_corpus([[0, 1, 2]], 3, ids=["q"]), query)

    status, tracer = _traced_main(
        bench_trace,
        ["select", str(pool), str(query), "--order", "2", "--budget-count", "2",
         "--output", str(tmp_path / "report.txt")],
    )
    assert status == 0

    # Installing looked every traced name up. Greedy calls each of them on
    # the selection route but ``scd``: its trace reuses the winner's exact
    # rescore through ``scd_incremental``.
    route = {
        span_name
        for module, _, span_name, _ in bench_trace.CALL_SITES
        if module == "selection" or span_name.startswith("selection.")
    }
    route = route - {"divergence.scd"} | {"corpus.load_label_corpus", "divergence.CandidateStats.add"}
    called = {span.name for span in tracer.spans}
    assert route <= called, sorted(route - called)
    # The wrappers are gone again.
    assert scdselect.selection.CandidateStats is scdselect.divergence.CandidateStats
    assert scdselect.selection.count_ngrams is scdselect.ngram.count_ngrams


# The audio call sites each command reaches, as (calling module, attribute).
TRAIN_KMEANS_SITES = {
    ("cli", "load_audio_manifest"),
    ("cli", "read_wav_mono"),
    ("cli", "compute_mfcc"),
    ("cli", "train_kmeans"),
    ("cli", "save_kmeans_model"),
}
DISCRETIZE_SITES = {
    ("cli", "load_audio_manifest"),
    ("cli", "load_kmeans_model"),
    ("cli", "discretize_manifest"),
    ("discretizer", "read_wav_mono"),
    ("discretizer", "compute_mfcc"),
    ("discretizer", "apply_kmeans"),
    ("cli", "save_label_corpus"),
}


def test_audio_commands_run_every_traced_audio_call_site(tmp_path, monkeypatch):
    bench_trace = _load_bench_trace(monkeypatch)
    span_of = {(module, attr): span_name for module, attr, span_name, _ in bench_trace.CALL_SITES}
    audio_sites = {
        site for site, span_name in span_of.items()
        if site[0] in ("cli", "discretizer")
        and (span_name.startswith("discretizer.") or site[1] == "load_audio_manifest")
    }
    # A traced audio call site that no command below is expected to reach
    # must be listed in one of the two sets.
    assert audio_sites <= TRAIN_KMEANS_SITES | DISCRETIZE_SITES, sorted(
        audio_sites - TRAIN_KMEANS_SITES - DISCRETIZE_SITES
    )

    wavs = []
    for i, n in enumerate([4000, 6400, 9000]):
        wavs.append(tmp_path / f"a{i}.wav")
        write_wav(wavs[-1], tone(n, freq=200.0 + 150 * i, seed=i))
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("".join(f"utt{i}\t{p}\n" for i, p in enumerate(wavs)), encoding="utf-8")
    model = tmp_path / "model.json"

    # Two threads, so spans recorded on worker threads count too; a
    # subsample, so the pooling keeps only part of the frames.
    status, tracer = _traced_main(
        bench_trace,
        ["train-kmeans", str(manifest), "--k", "3", "--max-iters", "2", "--max-frames", "50",
         "--threads", "2", "--output", str(model)],
    )
    assert status == 0
    called = {span.name for span in tracer.spans}
    expected = {span_of[site] for site in TRAIN_KMEANS_SITES}
    assert expected <= called, sorted(expected - called)
    # Every entry is read and its frames computed.
    assert sum(span.name == "discretizer.compute_mfcc" for span in tracer.spans) == len(wavs)
    assert tracer.counters["discretizer.lloyd_iterations"] >= 1

    status, tracer = _traced_main(
        bench_trace,
        ["discretize", str(manifest), "--model", str(model), "--threads", "2",
         "--output", str(tmp_path / "labels.txt")],
    )
    assert status == 0
    called = {span.name for span in tracer.spans}
    expected = {span_of[site] for site in DISCRETIZE_SITES}
    assert expected <= called, sorted(expected - called)
    assert tracer.counters["discretizer.frames"] == sum(1 + (n - 400) // 160 for n in [4000, 6400, 9000])
    assert scdselect.cli.read_wav_mono is scdselect.discretizer.read_wav_mono
