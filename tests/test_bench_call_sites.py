"""The benchmark's traced call sites still exist and are still called.

``perfbench/bench_trace.py`` wraps program functions by the names their
calling modules look up (``CALL_SITES``). This loads that file as it is,
installs its wrappers on the imported package, and runs one small greedy
``select`` through the CLI, so a refactor that drops or renames a traced
name fails here and not only in a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import scdselect
import scdselect.cli
from scdselect.corpus import save_label_corpus

from conftest import make_corpus

BENCH_TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"


def _load_bench_trace(monkeypatch):
    spec = importlib.util.spec_from_file_location("_bench_trace_under_test", BENCH_TRACE)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name while the file runs.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_greedy_select_runs_every_traced_selection_call_site(tmp_path, monkeypatch):
    bench_trace = _load_bench_trace(monkeypatch)
    pool = tmp_path / "pool.txt"
    query = tmp_path / "query.txt"
    save_label_corpus(make_corpus([[0, 1, 2, 1, 0], [2, 2, 1], [1, 0, 0, 2], [0, 2]], 3), pool)
    save_label_corpus(make_corpus([[0, 1, 2]], 3, ids=["q"]), query)

    tracer = bench_trace.Tracer()
    instrumentation = bench_trace.Instrumentation(scdselect)
    try:
        instrumentation.install(tracer)
        status = scdselect.cli.main(
            ["select", str(pool), str(query), "--order", "2", "--budget-count", "2",
             "--output", str(tmp_path / "report.txt")]
        )
    finally:
        instrumentation.uninstall()
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
