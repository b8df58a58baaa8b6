"""The contrastive baseline on the shared block pass.

``contrastive_scores`` is checked against the per-utterance loop it
replaced, kept here as the reference, on small random pools: the same ids,
the same scores, ``-inf`` at the same utterances, and the same errors. The
exclusion messages and the one count per corpus of ``select_contrastive``
are pinned by examples.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scdselect import selection
from scdselect.ngram import count_ngrams, decode_gram, prune
from scdselect.selection import SelectionConfig, contrastive_scores, select_contrastive

from conftest import make_corpus


def reference_contrastive_scores(universal, query, config):
    """One utterance at a time: sort its window codes, look each model up, average the gaps."""
    k, order = universal.alphabet_size, config.order
    stats_u = prune(count_ngrams(universal, order, config.alpha), config.prune_min_count)
    stats_q = prune(count_ngrams(query, order, config.alpha), config.prune_min_count)
    dist_u = stats_u.distribution()
    dist_q = stats_q.distribution()
    radix = k ** np.arange(order - 1, -1, -1, dtype=np.int64)

    scores = {}
    for seq in universal:
        labels = seq.labels.astype(np.int64)
        n_windows = labels.shape[0] - order + 1
        if n_windows <= 0:
            scores[seq.id] = -math.inf
            continue
        windows = np.stack([labels[j : j + n_windows] for j in range(order)], axis=1)
        codes, counts = np.unique(windows @ radix, return_counts=True)
        pq = dist_q.lookup(codes)
        pu = dist_u.lookup(codes)
        undefined = (pq <= 0.0) | (pu <= 0.0)
        if undefined.any():
            first = int(np.argmax(undefined))
            if pu[first] <= 0.0:
                gram = decode_gram(int(codes[first]), k, order)
                raise ValueError(
                    f"pool probability is zero at gram {gram}; contrastive score "
                    "undefined (use alpha > 0)"
                )
            scores[seq.id] = -math.inf
            continue
        scores[seq.id] = float(np.dot(counts, np.log(pq) - np.log(pu))) / int(counts.sum())
    return scores


def _outcome(fn, *args):
    """Scores, or the text of the ValueError raised instead."""
    try:
        return fn(*args), None
    except ValueError as exc:
        return None, str(exc)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_block_pass_matches_per_utterance_loop(data):
    k = data.draw(st.integers(2, 4), label="k")
    order = data.draw(st.integers(1, 2), label="order")
    # Empty and shorter-than-order utterances are common at these lengths.
    labels = st.lists(st.lists(st.integers(0, k - 1), max_size=6), min_size=1, max_size=10)
    pool = make_corpus(data.draw(labels, label="pool"), k)
    query_seqs = data.draw(labels, label="query")
    query = make_corpus(query_seqs, k, ids=[f"q{i}" for i in range(len(query_seqs))])
    config = SelectionConfig(
        budget_c=1,
        order=order,
        alpha=data.draw(st.sampled_from([0.0, 0.5]), label="alpha"),
        prune_min_count=data.draw(st.integers(0, 3), label="prune"),
    )
    block_windows = data.draw(st.sampled_from([1, 5, selection._BLOCK_WINDOWS]), label="block_windows")

    expected, expected_error = _outcome(reference_contrastive_scores, pool, query, config)
    with mock.patch.object(selection, "_BLOCK_WINDOWS", block_windows):
        scores, error = _outcome(contrastive_scores, pool, query, config)
    assert error == expected_error
    if expected is None:
        return
    assert list(scores) == list(expected)
    for utt_id, want in expected.items():
        if want == -math.inf:
            assert scores[utt_id] == -math.inf
        else:
            assert math.isclose(scores[utt_id], want, rel_tol=1e-12, abs_tol=1e-13)


def test_pool_zero_gram_names_first_utterance_in_file_order():
    # Pruning at 3 leaves the pool model without gram (1,) and the query model
    # without gram (0,), at alpha 0. "a" hits (0,) first and is excluded;
    # "b" holds only (1,), which has no pool probability.
    pool = make_corpus([[0, 1], [1], [0, 0, 0]], 2, ids=["a", "b", "c"])
    query = make_corpus([[1, 1, 1, 0]], 2, ids=["q"])
    config = SelectionConfig(budget_c=1, alpha=0.0, prune_min_count=3)
    with pytest.raises(ValueError, match=r"pool probability is zero at gram \(1,\)"):
        contrastive_scores(pool, query, config)


def test_zero_query_probability_is_its_own_exclusion_cause(caplog):
    pool = make_corpus([[0, 1], [0, 0]], 2)
    query = make_corpus([[0, 0]], 2, ids=["q"])
    # At lam=1 the target is the query model, so the trace of the pick is defined.
    config = SelectionConfig(budget_c=1, alpha=0.0, lam=1.0)
    assert contrastive_scores(pool, query, config)["u0"] == -math.inf
    with caplog.at_level("WARNING"):
        result = select_contrastive(pool, query, config)
    assert result.selected_ids == ("u1",)
    assert caplog.messages == [
        "contrastive: 1 utterances are excluded: "
        "0 have no grams at order 1, 1 hold a gram of zero query probability"
    ]
    with pytest.raises(ValueError, match="budget 2 exceeds the 1 scored utterances") as excinfo:
        select_contrastive(pool, query, dataclasses.replace(config, budget_c=2))
    assert "0 have no grams at order 1, 1 hold a gram of zero query probability" in str(excinfo.value)


def test_select_contrastive_counts_each_corpus_once():
    pool = make_corpus([[0, 1, 2, 1], [2, 2], [1, 0, 0, 1, 2]], 3)
    query = make_corpus([[0, 1, 2]], 3, ids=["q"])
    config = SelectionConfig(budget_c=2, order=2)
    with mock.patch.object(selection, "count_ngrams", wraps=selection.count_ngrams) as counted:
        result = select_contrastive(pool, query, config)
    assert [call.args[0] for call in counted.call_args_list] == [pool, query]
    assert result == select_contrastive(pool, query, config)


@pytest.mark.parametrize("empty", ["universal", "query"])
def test_contrastive_scores_refuse_an_empty_corpus(empty):
    corpora = {"universal": make_corpus([[0, 1]], 2), "query": make_corpus([[1, 0]], 2, ids=["q"])}
    corpora[empty] = make_corpus([], 2)
    with pytest.raises(ValueError, match=f"{empty} corpus is empty"):
        contrastive_scores(corpora["universal"], corpora["query"], SelectionConfig(budget_c=1))
