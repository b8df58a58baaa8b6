"""Property tests: fast paths against their slow references.

``scd`` is checked against full enumeration of the K**N grams, and the
batched bucket scorer of greedy selection against ``scd_incremental``. The
seconds-budget contract of the selection strategies is checked on random
pools, and greedy with a seconds budget against a from-scratch recount.
Greedy and contrastive select the same on a loaded pool, with its narrow
label column, as on the same pool built with int32 labels. ``select`` runs
every strategy from files to a report whose trace is the from-scratch SCD,
or fails with one error line.
"""

import contextlib
import dataclasses
import io
import itertools
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from scdselect import selection
from scdselect.cli import main
from scdselect.corpus import load_label_corpus, save_label_corpus, sort_by_length
from scdselect.divergence import CandidateStats, DivergenceUndefinedError, scd, scd_incremental
from scdselect.ngram import count_ngrams, interpolate

from conftest import make_corpus
from test_divergence import brute_force_scd, stats_from_counts
from test_selection import naive_greedy

ALPHAS = [0.0, 0.1, 0.5, 1.0, 2.0]


@st.composite
def count_tables(draw):
    """Two gram count tables over one alphabet and order, with their smoothing."""
    k = draw(st.integers(2, 5))
    order = draw(st.integers(1, 3))
    grams = list(itertools.product(range(k), repeat=order))
    table = st.dictionaries(st.sampled_from(grams), st.integers(1, 9), max_size=len(grams))
    p_counts = draw(table)
    q_counts = draw(table)
    if draw(st.booleans()):
        q_counts = {g: c for g, c in q_counts.items() if g not in p_counts}
    alpha_p = draw(st.sampled_from(ALPHAS))
    alpha_q = draw(st.sampled_from(ALPHAS))
    # alpha=0 needs counts to normalize
    assume(p_counts or alpha_p > 0)
    assume(q_counts or alpha_q > 0)
    return k, order, p_counts, q_counts, alpha_p, alpha_q


@settings(max_examples=300, deadline=None)
@given(count_tables())
def test_scd_matches_enumeration(tables):
    k, order, p_counts, q_counts, alpha_p, alpha_q = tables
    p = stats_from_counts(p_counts, k, order, alpha_p).distribution()
    q = stats_from_counts(q_counts, k, order, alpha_q).distribution()
    grams = itertools.product(range(k), repeat=order)
    undefined = [g for g in grams if p.probability(g) > 0 and q.probability(g) <= 0]
    if undefined:
        with pytest.raises(DivergenceUndefinedError) as excinfo:
            scd(p, q)
        if p.floor <= 0 or q.floor > 0:
            # the offending grams are explicit ones; the first is named
            assert f"gram {undefined[0]} " in str(excinfo.value)
        return
    value = scd(p, q)
    assert abs(value.nats - brute_force_scd(p, q)) <= 1e-9
    assert value.support_terms == len(set(p_counts) | set(q_counts))


label_lists = st.lists(st.integers(0, 5), max_size=12)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bucket_scores_match_incremental(data):
    k = data.draw(st.integers(2, 6), label="k")
    order = data.draw(st.integers(1, 3), label="order")
    alpha = data.draw(st.sampled_from([0.1, 0.5, 1.0]), label="alpha")
    lam = data.draw(st.floats(0.0, 1.0), label="lam")

    def corpus(min_size, max_size, prefix):
        seqs = data.draw(st.lists(label_lists, min_size=min_size, max_size=max_size), label=prefix)
        seqs = [[label % k for label in seq] for seq in seqs]
        return make_corpus(seqs, k, ids=[f"{prefix}{i}" for i in range(len(seqs))])

    pool = corpus(1, 8, "u")
    query = corpus(1, 3, "q")
    picked = corpus(0, 4, "s")
    bucket = corpus(1, 6, "b")
    target = interpolate(count_ngrams(query, order, alpha), count_ngrams(pool, order, alpha), lam)
    subset = CandidateStats(order, k, alpha)
    for seq in picked:
        subset.add(seq)

    # Tiny blocks also exercise the per-block path of the scorer.
    block_windows = data.draw(st.sampled_from([1, 5, 1 << 16]), label="block_windows")
    with mock.patch.object(selection, "_BLOCK_WINDOWS", block_windows):
        scores = selection._fast_scores(bucket, np.arange(len(bucket)), subset, target)
    for seq, fast in zip(bucket, scores):
        exact = scd_incremental(subset, seq, target).nats
        assert abs(fast - exact) <= 1e-10 * (1.0 + abs(exact))


def test_bucket_scores_at_the_int64_key_limit():
    # K**2 = 2**62: every code fits, but two candidates cannot share one key
    # space, so the scorer keys each candidate on its own.
    k = 2**31
    rng = np.random.default_rng(3)
    seqs = [rng.integers(0, k, size=n).tolist() for n in (5, 1, 7, 4)]
    pool = make_corpus(seqs + [[0, 1, 0, 1]], k)
    query = make_corpus([seqs[0], [1, 0, 1]], k, ids=["q0", "q1"])
    target = interpolate(count_ngrams(query, 2, 0.5), count_ngrams(pool, 2, 0.5), 0.3)
    subset = CandidateStats(2, k, 0.5)
    subset.add(seqs[3])
    scores = selection._fast_scores(pool, np.arange(len(pool)), subset, target)
    for seq, fast in zip(pool, scores):
        exact = scd_incremental(subset, seq, target).nats
        assert math.isfinite(exact)
        assert abs(fast - exact) <= 1e-10 * (1.0 + abs(exact))


@st.composite
def seconds_budget_runs(draw):
    """A pool with positive durations, a query, and a selection config with a seconds budget.

    The budget is a fraction of the pool total, summed in the order the
    strategy sums it, and is often zero or the whole pool.
    """
    k = draw(st.integers(2, 4))
    n = draw(st.integers(1, 10))
    seqs = draw(st.lists(st.lists(st.integers(0, k - 1), min_size=1, max_size=8), min_size=n, max_size=n))
    durations = draw(st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n))
    pool = make_corpus(seqs, k, durations=durations)
    query = make_corpus([draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=8))], k, ids=["q"])
    strategy = draw(st.sampled_from(["greedy", "random", "contrastive"]))
    # Greedy sums the durations of the length-sorted pool.
    summed = sort_by_length(pool) if strategy == "greedy" else pool
    fraction = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    config = selection.SelectionConfig(
        duration_budget_s=fraction * sum(seq.duration_s for seq in summed),
        order=draw(st.integers(1, 2)),
        seed=draw(st.integers(0, 3)),
    )
    return strategy, pool, query, config


def _select(strategy, pool, query, config):
    if strategy == "greedy":
        return selection.select_greedy_scd(pool, query, config)
    if strategy == "random":
        return selection.select_random(pool, config, query=query)
    return selection.select_contrastive(pool, query, config)


@settings(max_examples=150, deadline=None)
@given(seconds_budget_runs())
def test_seconds_budget_contract(run):
    strategy, pool, query, config = run
    budget = config.duration_budget_s
    # Greedy passes: the bounds each pass makes, and the buckets it picks from.
    passes = []
    real_buckets, real_pick = selection._duration_buckets, selection._pick_from_bucket

    def duration_buckets(sorted_pool, rows, n_buckets):
        bounds = real_buckets(sorted_pool, rows, n_buckets)
        passes.append(([tuple(rows[a:b].tolist()) for a, b in bounds], []))
        return bounds

    def pick_from_bucket(sorted_pool, bucket, *args):
        passes[-1][1].append(tuple(bucket.tolist()))
        return real_pick(sorted_pool, bucket, *args)

    with mock.patch.object(selection, "_duration_buckets", duration_buckets), \
            mock.patch.object(selection, "_pick_from_bucket", pick_from_bucket):
        result = _select(strategy, pool, query, config)
    assert result == _select(strategy, pool, query, config)
    assert len(set(result.selected_ids)) == len(result.selected_ids)

    seconds = {seq.id: seq.duration_s for seq in pool}
    picked = [seconds[i] for i in result.selected_ids]
    # Contrastive ranks only utterances with a gram at this order.
    eligible = {seq.id for seq in pool if strategy != "contrastive" or len(seq) >= config.order}
    assert sum(picked) >= budget or set(result.selected_ids) == eligible
    assert sum(picked[:-1]) < budget or not picked

    for buckets, picked_from in passes:
        assert len(set(picked_from)) == len(picked_from)
        assert set(picked_from) <= set(buckets)


@settings(max_examples=150, deadline=None)
@given(
    seconds_budget_runs().filter(lambda run: run[0] == "greedy"),
    st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    st.sampled_from([0.25, 0.5, 1.0]),
)
def test_greedy_seconds_budget_matches_naive_recount(run, lam, alpha):
    """AC-2 for seconds budgets, on greedy's passes over duration buckets.

    Each trace entry is the from-scratch SCD of the picks so far, bit for
    bit, and each pick is the exact minimizer of its bucket (the first one
    on ties).
    """
    _, pool, query, config = run
    config = dataclasses.replace(config, lam=lam, alpha=alpha)
    passes = []
    real_buckets = selection._duration_buckets
    sequences = sort_by_length(pool).sequences

    def duration_buckets(sorted_pool, rows, n_buckets):
        bounds = real_buckets(sorted_pool, rows, n_buckets)
        passes.append([tuple(sequences[row] for row in rows[a:b].tolist()) for a, b in bounds])
        return bounds

    with mock.patch.object(selection, "_duration_buckets", duration_buckets):
        result = selection.select_greedy_scd(pool, query, config)
    target = selection.build_target_distribution(pool, query, config)
    by_id = {seq.id: seq for seq in pool}
    picks = [by_id[utt_id] for utt_id in result.selected_ids]

    def naive_scd(sequences):
        stats = CandidateStats(config.order, pool.alphabet_size, config.alpha)
        for seq in sequences:
            stats.add(seq.labels)
        return scd(target, stats.distribution()).nats

    assert result.scd_trace == tuple(naive_scd(picks[: i + 1]) for i in range(len(picks)))
    # Passes pick once per bucket, in bucket order, until the budget is met,
    # so pick i comes from the i-th bucket over all passes.
    buckets = [bucket for buckets in passes for bucket in buckets]
    assert len(buckets) >= len(picks)
    for i, pick in enumerate(picks):
        values = [naive_scd(picks[:i] + [seq]) for seq in buckets[i]]
        assert buckets[i].index(pick) == values.index(min(values))


@st.composite
def covering_runs(draw):
    """A pool whose every utterance holds every gram of the order, a query, and an alpha=0 config.

    Each utterance is random labels around all K**N grams laid end to end,
    so every subset covers the whole support and alpha=0 stays defined.
    """
    k = draw(st.integers(2, 3))
    order = draw(st.integers(1, 2))
    budget_c = draw(st.integers(2, 4))
    labels = st.lists(st.integers(0, k - 1), max_size=4)
    grams = list(itertools.product(range(k), repeat=order))
    seqs = [
        draw(labels) + [label for gram in draw(st.permutations(grams)) for label in gram] + draw(labels)
        for _ in range(draw(st.integers(budget_c, 8)))
    ]
    query = make_corpus([draw(st.lists(st.integers(0, k - 1), min_size=order, max_size=8))], k, ids=["q"])
    config = selection.SelectionConfig(
        budget_c=budget_c,
        order=order,
        lam=draw(st.sampled_from([0.0, 0.5, 0.9])),
        alpha=0.0,
        prune_min_count=draw(st.sampled_from([0, 1])),
    )
    return make_corpus(seqs, k), query, config


@settings(max_examples=100, deadline=None)
@given(covering_runs())
def test_greedy_at_alpha_zero_matches_naive_recount(run):
    """AC-2 at alpha=0 past the first bucket: greedy rescores every candidate exactly."""
    pool, query, config = run
    result = selection.select_greedy_scd(pool, query, config)
    assert (result.selected_ids, result.scd_trace) == naive_greedy(pool, query, config)


def _ids_and_trace(select, pool, query, config):
    """The picks and trace of one selection, or the text of its ValueError."""
    try:
        result = select(pool, query, config)
    except ValueError as exc:
        return str(exc)
    return result.selected_ids, result.scd_trace


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_selection_does_not_depend_on_the_label_dtype(data):
    # K <= 256 loads as uint8 and K <= 300 as uint16; K**order overflows both,
    # so gram codes formed before the labels are widened would differ.
    k = data.draw(st.one_of(st.sampled_from([2, 255, 256, 257, 300]), st.integers(2, 300)), label="k")
    order = data.draw(st.integers(1, 3), label="order")
    labels = st.lists(st.one_of(st.integers(0, k - 1), st.just(k - 1)), max_size=9)
    seqs = data.draw(st.lists(labels, min_size=1, max_size=8), label="pool")
    durations = data.draw(st.lists(st.floats(0.01, 10.0), min_size=len(seqs), max_size=len(seqs)))
    query_seqs = data.draw(st.lists(labels.filter(bool), min_size=1, max_size=3), label="query")
    built = make_corpus(seqs, k, durations=durations)
    built_query = make_corpus(query_seqs, k, ids=[f"q{i}" for i in range(len(query_seqs))])
    with tempfile.TemporaryDirectory() as tmp:
        save_label_corpus(built, Path(tmp) / "pool.labels")
        save_label_corpus(built_query, Path(tmp) / "query.labels")
        loaded = load_label_corpus(Path(tmp) / "pool.labels")
        loaded_query = load_label_corpus(Path(tmp) / "query.labels")
    assert loaded.labels.dtype == (np.uint8 if k <= 256 else np.uint16)
    assert built.labels.dtype == np.int32
    if data.draw(st.booleans(), label="count budget"):
        budget = {"budget_c": data.draw(st.integers(1, len(seqs)), label="budget_c")}
    else:
        budget = {"duration_budget_s": data.draw(st.floats(0.0, 1.0), label="fraction") * math.fsum(durations)}
    config = selection.SelectionConfig(
        **budget, order=order, alpha=0.5, lam=data.draw(st.sampled_from([0.0, 0.6, 1.0]), label="lam")
    )
    for select in (selection.select_greedy_scd, selection.select_contrastive):
        assert _ids_and_trace(select, loaded, loaded_query, config) == _ids_and_trace(
            select, built, built_query, config
        )


@st.composite
def cli_select_runs(draw):
    """Pool and query label lists with the pool's durations, and the options of one ``select`` run."""
    k = draw(st.integers(1, 4))
    labels = st.lists(st.integers(0, k - 1), max_size=7)
    pool = draw(st.lists(labels, max_size=7))
    durations = draw(st.lists(st.floats(0.0, 2.5), min_size=len(pool), max_size=len(pool)))
    query = draw(st.lists(labels, min_size=1, max_size=3))
    if draw(st.booleans()):
        budget = ["--budget-count", str(draw(st.integers(1, 8)))]
    else:
        budget = ["--budget-seconds", repr(draw(st.floats(0.0, 20.0)))]
    strategies = [selection.STRATEGY_GREEDY, selection.STRATEGY_RANDOM, selection.STRATEGY_CONTRASTIVE,
                  selection.STRATEGY_ORACLE]
    options = [
        "--strategy", draw(st.sampled_from(strategies)),
        "--order", str(draw(st.integers(1, 3))),
        "--alpha", draw(st.sampled_from(["0", "0.5"])),
        "--prune-min-count", draw(st.sampled_from(["0", "1"])),
        "--lambda", draw(st.sampled_from(["0", "0.5", "1"])),
        *budget,
    ]
    return k, pool, durations, query, options


@settings(max_examples=400, deadline=None)
@given(cli_select_runs())
def test_cli_select_reports_its_trace_or_fails_cleanly(run):
    """``select`` exits 0 with distinct pool ids and their from-scratch SCD trace, or 1 with one error line."""
    k, pool_seqs, durations, query_seqs, options = run
    with tempfile.TemporaryDirectory() as tmp:
        pool_path, query_path, report = (str(Path(tmp) / name) for name in ("pool", "query", "report"))
        save_label_corpus(make_corpus(pool_seqs, k, durations=durations), pool_path)
        save_label_corpus(make_corpus(query_seqs, k, ids=[f"q{i}" for i in range(len(query_seqs))]), query_path)
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(["select", pool_path, query_path, *options, "--output", report])
        event(f"exit {code}")
        if code == 1:
            assert re.fullmatch(r"error: [^\n]*\n", stderr.getvalue())
            assert not Path(report).exists() and not Path(report + ".ids").exists()
            return
        assert code == 0
        lines = Path(report).read_text(encoding="utf-8").splitlines()
        ids = Path(report + ".ids").read_text(encoding="utf-8").splitlines()[1:]
        pool, query = load_label_corpus(pool_path), load_label_corpus(query_path)
    rows = [line.split("\t") for line in lines if not line.startswith("#")]
    assert [row[1] for row in rows] == ids
    assert len(set(ids)) == len(ids) and set(ids) <= set(pool.ids)
    config = selection.SelectionConfig.from_json(next(line for line in lines if line.startswith("#config="))[8:])
    target = selection.build_target_distribution(pool, query, config)
    subset = CandidateStats(config.order, k, config.alpha)
    by_id = {seq.id: seq for seq in pool}
    for _, utt_id, nats in rows:
        subset.add(by_id[utt_id].labels)
        assert float(nats) == scd(target, subset.distribution()).nats
