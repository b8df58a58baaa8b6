import collections
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scdselect import ngram
from scdselect.corpus import LabelCorpus, LabelSequence
from scdselect.ngram import (
    NGramStats,
    count_ngrams,
    interpolate,
    merge_counts,
    prune,
    save_stats_dump,
    sequence_gram_counts,
)

from conftest import make_corpus


def brute_force_counts(seqs, order):
    """Independent recount: python sliding windows per sequence."""
    counts = {}
    for labels in seqs:
        for i in range(len(labels) - order + 1):
            gram = tuple(labels[i : i + order])
            counts[gram] = counts.get(gram, 0) + 1
    return counts


class TestCountNgrams:
    def test_unigram_probabilities(self):
        corpus = make_corpus([[0, 0, 1]], alphabet_size=2)
        dist = count_ngrams(corpus, 1, alpha=0.0).distribution()
        assert dist.probability((0,)) == pytest.approx(2 / 3)
        assert dist.probability((1,)) == pytest.approx(1 / 3)

    def test_bigram_sliding_window(self):
        corpus = make_corpus([[0, 1, 0]], alphabet_size=2)
        stats = count_ngrams(corpus, 2, alpha=0.0)
        assert stats.counts == {(0, 1): 1, (1, 0): 1}
        assert stats.total == 2

    def test_no_grams_across_utterance_boundary(self):
        corpus = make_corpus([[0], [1]], alphabet_size=2)
        stats = count_ngrams(corpus, 2)
        assert stats.total == 0
        assert stats.counts == {}

    def test_short_sequences_contribute_nothing(self):
        corpus = make_corpus([[0, 1], [0]], alphabet_size=2)
        assert count_ngrams(corpus, 3).total == 0

    def test_order_below_one_rejected(self, tiny_corpus):
        with pytest.raises(ValueError, match="order"):
            count_ngrams(tiny_corpus, 0)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_alpha_rejected(self, tiny_corpus, alpha):
        with pytest.raises(ValueError, match="smoothing alpha must be finite and >= 0"):
            count_ngrams(tiny_corpus, 1, alpha=alpha)
        with pytest.raises(ValueError, match="smoothing alpha must be finite and >= 0"):
            NGramStats(order=1, alphabet_size=2, counts={(0,): 1}, total=1, smoothing_alpha=alpha)

    @pytest.mark.parametrize("counts,total,message", [
        ({(0,): 2, (1,): 1}, 4, "total does not match"),
        (ngram.GramCounts(1, 3, np.array([1, 0]), np.array([1, 1])), 2, "distinct, ascending"),
        (ngram.GramCounts(1, 3, np.array([0, 1]), np.array([1, 0])), 1, "non-positive count"),
    ])
    def test_inconsistent_counts_rejected(self, counts, total, message):
        with pytest.raises(ValueError, match=message):
            NGramStats(order=1, alphabet_size=3, counts=counts, total=total, smoothing_alpha=0.5)

    def test_total_matches_window_formula(self):
        rng = np.random.default_rng(11)
        for order in (1, 2, 3):
            seqs = [rng.integers(0, 5, size=rng.integers(0, 12)).tolist() for _ in range(30)]
            corpus = make_corpus(seqs, alphabet_size=5)
            stats = count_ngrams(corpus, order)
            assert stats.total == sum(max(0, len(s) - order + 1) for s in seqs)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_matches_brute_force(self, order):
        rng = np.random.default_rng(order)
        seqs = [rng.integers(0, 6, size=rng.integers(0, 15)).tolist() for _ in range(40)]
        corpus = make_corpus(seqs, alphabet_size=6)
        assert dict(count_ngrams(corpus, order).counts) == brute_force_counts(seqs, order)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        seqs = [rng.integers(0, 4, size=10).tolist() for _ in range(8)]
        forward = make_corpus(seqs, alphabet_size=4)
        backward = make_corpus(list(reversed(seqs)), alphabet_size=4, ids=[f"r{i}" for i in range(8)])
        d1 = count_ngrams(forward, 2, alpha=0.0).distribution()
        d2 = count_ngrams(backward, 2, alpha=0.0).distribution()
        np.testing.assert_allclose(d1.to_dense(), d2.to_dense(), rtol=0, atol=1e-15)

    def test_duplicating_corpus_doubles_counts_keeps_probs(self):
        seqs = [[0, 1, 1], [2, 0]]
        single = make_corpus(seqs, alphabet_size=3)
        double = make_corpus(seqs + seqs, alphabet_size=3, ids=["a", "b", "c", "d"])
        s1 = count_ngrams(single, 1, alpha=0.0)
        s2 = count_ngrams(double, 1, alpha=0.0)
        assert s2.total == 2 * s1.total
        np.testing.assert_allclose(s1.distribution().to_dense(), s2.distribution().to_dense())

    def test_empty_corpus_needs_alpha_for_distribution(self):
        corpus = make_corpus([], alphabet_size=2)
        stats = count_ngrams(corpus, 1, alpha=0.0)
        assert stats.total == 0
        with pytest.raises(ValueError, match="alpha"):
            stats.distribution()
        smoothed = count_ngrams(corpus, 1, alpha=1.0).distribution()
        assert smoothed.probability((0,)) == pytest.approx(0.5)


class TestSequenceGramCounts:
    @pytest.mark.parametrize("order", [1, 2, 4])
    def test_matches_brute_force(self, order):
        rng = np.random.default_rng(order + 10)
        labels = rng.integers(0, 3, size=25).tolist()
        assert sequence_gram_counts(labels, order, 3) == brute_force_counts([labels], order)

    def test_shorter_than_order(self):
        assert sequence_gram_counts([0, 1], 3, 2) == {}


class TestPrune:
    def test_zero_threshold_is_identity(self, tiny_corpus):
        stats = count_ngrams(tiny_corpus, 1)
        assert prune(stats, 0) is stats

    def test_drops_rare(self):
        stats = NGramStats(order=1, alphabet_size=3, counts={(0,): 5, (1,): 1}, total=6, smoothing_alpha=0.0)
        pruned = prune(stats, 2)
        assert pruned.counts == {(0,): 5}
        assert pruned.total == 5

    def test_all_pruned_is_valid(self):
        stats = NGramStats(order=1, alphabet_size=3, counts={(0,): 1}, total=1, smoothing_alpha=0.5)
        pruned = prune(stats, 10)
        assert pruned.counts == {}
        assert pruned.total == 0


class TestDistribution:
    def test_seen_gram_alpha_zero(self):
        corpus = make_corpus([[0, 0, 1, 2]], alphabet_size=3)
        dist = count_ngrams(corpus, 1, alpha=0.0).distribution()
        assert dist.probability((0,)) == pytest.approx(0.5)

    def test_unseen_gram_closed_form(self):
        # (0 + 1) / (8 + 1*2) with K=2, N=1, alpha=1, total=8
        stats = NGramStats(order=1, alphabet_size=2, counts={(0,): 8}, total=8, smoothing_alpha=1.0)
        assert stats.distribution().probability((1,)) == pytest.approx(0.1)

    def test_strictly_positive_when_smoothed(self):
        rng = np.random.default_rng(2)
        corpus = make_corpus([rng.integers(0, 4, size=9).tolist()], alphabet_size=4)
        dense = count_ngrams(corpus, 2, alpha=0.3).distribution().to_dense()
        assert (dense > 0).all()

    def test_out_of_range_gram(self):
        dist = count_ngrams(make_corpus([[0]], alphabet_size=2), 1).distribution()
        with pytest.raises(ValueError, match="outside"):
            dist.probability((2,))
        with pytest.raises(ValueError, match="order"):
            dist.probability((0, 0))

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("order", [1, 2])
    def test_normalization_by_enumeration(self, alpha, order):
        rng = np.random.default_rng(int(alpha * 8) + order)
        for k in (2, 3, 4):
            seqs = [rng.integers(0, k, size=rng.integers(order, 12)).tolist() for _ in range(6)]
            dist = count_ngrams(make_corpus(seqs, k), order, alpha=alpha).distribution()
            total = sum(
                dist.probability(gram) for gram in itertools.product(range(k), repeat=order)
            )
            assert total == pytest.approx(1.0, abs=1e-9)


class TestInterpolate:
    def _dists(self):
        q = count_ngrams(make_corpus([[0, 0, 0, 0]], 2), 1, alpha=0.0)
        u = count_ngrams(make_corpus([[0, 0, 1, 1]], 2), 1, alpha=0.0)
        return q, u

    def test_lambda_zero_reproduces_u(self):
        q, u = self._dists()
        mixed = interpolate(q, u, 0.0)
        np.testing.assert_array_equal(mixed.to_dense(), u.distribution().to_dense())

    def test_lambda_one_reproduces_q(self):
        q, u = self._dists()
        mixed = interpolate(q, u, 1.0)
        np.testing.assert_array_equal(mixed.to_dense(), q.distribution().to_dense())

    def test_midpoint_example(self):
        # P_q=(1,0), P_u=(0.5,0.5), lambda=0.5 -> (0.75, 0.25)
        q, u = self._dists()
        mixed = interpolate(q, u, 0.5)
        assert mixed.probability((0,)) == pytest.approx(0.75)
        assert mixed.probability((1,)) == pytest.approx(0.25)

    def test_pointwise_within_envelope(self):
        rng = np.random.default_rng(9)
        k = 3
        q = count_ngrams(make_corpus([rng.integers(0, k, size=20).tolist()], k), 1, alpha=0.4)
        u = count_ngrams(make_corpus([rng.integers(0, k, size=30).tolist()], k), 1, alpha=0.4)
        dq, du = q.distribution().to_dense(), u.distribution().to_dense()
        for lam in (0.0, 0.3, 0.8, 1.0):
            dense = interpolate(q, u, lam).to_dense()
            assert (dense >= np.minimum(dq, du) - 1e-15).all()
            assert (dense <= np.maximum(dq, du) + 1e-15).all()

    def test_mismatches_rejected(self):
        q = count_ngrams(make_corpus([[0]], 2), 1)
        u_order = count_ngrams(make_corpus([[0, 1]], 2), 2)
        u_alpha = count_ngrams(make_corpus([[0]], 3), 1)
        with pytest.raises(ValueError, match="order"):
            interpolate(q, u_order, 0.5)
        with pytest.raises(ValueError, match="alphabet"):
            interpolate(q, u_alpha, 0.5)
        with pytest.raises(ValueError, match="lambda"):
            interpolate(q, q, 1.5)


class TestStatsDump:
    def test_dump_format(self, tmp_path, tiny_corpus):
        stats = count_ngrams(tiny_corpus, 1, alpha=0.5)
        path = tmp_path / "stats.tsv"
        save_stats_dump(stats, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "#order=1"
        assert lines[1] == "#K=3"
        assert lines[2] == f"#total={stats.total}"
        assert lines[3] == "#alpha=0.5"
        body = [line for line in lines if not line.startswith("#")]
        assert body == ["0\t2", "1\t2", "2\t1"]


class TestStatsDumpBlocks:
    def test_blocks_do_not_change_the_bytes(self, tmp_path):
        rng = np.random.default_rng(8)
        corpus = make_corpus([rng.integers(0, 7, size=n).tolist() for n in (0, 1, 9, 30, 4)], alphabet_size=7)
        stats = count_ngrams(corpus, 2)
        dumps = []
        for rows in (1, 3, 1 << 16):
            with mock.patch.object(ngram, "_DUMP_ROWS", rows):
                save_stats_dump(stats, tmp_path / "s.tsv", comments=["cfg"])
            dumps.append((tmp_path / "s.tsv").read_bytes())
        assert dumps[0] == dumps[1] == dumps[2]
        body = dumps[0].decode().splitlines()[5:]
        assert len(body) == len(stats.counts) > 3
        assert body[0] == " ".join(map(str, next(iter(stats.counts)))) + f"\t{stats.counts.code_counts[0]}"


class TestEncodeLimit:
    def test_count_ngrams_rejects_codes_beyond_int64(self):
        corpus = make_corpus([[0, 1, 2]], alphabet_size=3)
        # 3**40 > 2**62 >= 3**39
        with pytest.raises(ValueError, match=r"K=3 at order 40"):
            count_ngrams(corpus, 40)
        assert count_ngrams(corpus, 39).total == 0

    def test_build_target_distribution_rejects_up_front(self):
        from scdselect.selection import SelectionConfig, build_target_distribution

        corpus = make_corpus([[0, 1, 2]], alphabet_size=3)
        with pytest.raises(ValueError, match=r"K=3 at order 40"):
            build_target_distribution(corpus, corpus, SelectionConfig(budget_c=1, order=40))

    def test_stats_and_sequence_counts_reject(self):
        with pytest.raises(ValueError, match=r"K=2 at order 63"):
            NGramStats(order=63, alphabet_size=2, counts={}, total=0, smoothing_alpha=0.5)
        with pytest.raises(ValueError, match=r"K=2 at order 63"):
            sequence_gram_counts([0, 1], 63, 2)


class TestCodeOrder:
    def test_dump_order_is_lexicographic(self, tmp_path):
        rng = np.random.default_rng(4)
        seqs = [rng.integers(0, 12, size=30).tolist() for _ in range(5)]
        stats = count_ngrams(make_corpus(seqs, alphabet_size=12), 3)
        path = tmp_path / "stats.tsv"
        save_stats_dump(stats, path)
        body = [line for line in path.read_text(encoding="utf-8").splitlines() if not line.startswith("#")]
        expected = brute_force_counts(seqs, 3)
        assert body == [f"{' '.join(map(str, g))}\t{expected[g]}" for g in sorted(expected)]


def window_counter(seqs, order):
    """Reference tally: a Counter over every window of every sequence."""
    return collections.Counter(
        tuple(labels[i : i + order]) for labels in seqs for i in range(len(labels) - order + 1)
    )


class TestFoldedTally:
    """The sparse tally folds sorted batches into a running table (``ngram._tally``)."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(2, 40).flatmap(
            lambda k: st.tuples(
                st.just(k), st.lists(st.lists(st.integers(0, k - 1), max_size=16), max_size=24)
            )
        ),
        st.integers(1, 4),
        st.sampled_from([1, 2, 7, 1 << 16]),
        st.sampled_from([1, 3]),
    )
    def test_matches_counter_over_every_window(self, k_seqs, order, batch, ratio):
        # No dense tally, and batches of a few labels: a corpus spans many
        # folds, and a batch of utterances shorter than the order has no window.
        k, seqs = k_seqs
        corpus = make_corpus(seqs, k)
        with (
            mock.patch.object(ngram, "_DENSE_FILL", 0),
            mock.patch.object(ngram, "_COUNT_BATCH", batch),
            mock.patch.object(ngram, "_FOLD_RATIO", ratio),
        ):
            stats = count_ngrams(corpus, order)
        expected = window_counter(seqs, order)
        assert dict(stats.counts) == dict(expected)
        assert stats.total == sum(expected.values())

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, 60)), st.lists(st.integers(0, 60)))
    def test_merge_counts_is_a_counter_sum(self, a, b):
        tables = []
        for keys in (a, b):
            counter = collections.Counter(keys)
            codes = np.array(sorted(counter), dtype=np.int64)
            tables += [codes, np.array([counter[c] for c in codes.tolist()], dtype=np.int64)]
        codes, counts = merge_counts(*tables)
        expected = collections.Counter(a) + collections.Counter(b)
        assert codes.tolist() == sorted(expected)
        assert counts.tolist() == [expected[c] for c in sorted(expected)]

    def test_peak_memory_follows_the_table(self):
        # About 1M order-3 windows over 40 of K=500 labels: at most 64000
        # distinct grams. Sorting every window at once peaks near 16 MB,
        # ten times the table plus one batch; the fold stays under six.
        rng = np.random.default_rng(3)
        lengths = rng.integers(400, 603, size=2020)
        flat = rng.integers(0, 40, size=int(lengths.sum())).astype(np.int32)
        ends = np.cumsum(lengths).tolist()
        bounds = zip([end - n for end, n in zip(ends, lengths.tolist())], ends)
        corpus = LabelCorpus(500, [LabelSequence(f"u{i}", 1.0, flat[a:b]) for i, (a, b) in enumerate(bounds)])
        assert int(np.sum(lengths - 2)) > 1_000_000
        merges = []

        def counted_merge(*tables):  # a Mock's call record would keep every table alive
            merges.append(None)
            return merge_counts(*tables)

        with mock.patch.object(ngram, "merge_counts", counted_merge):
            tracemalloc.start()
            try:
                stats = count_ngrams(corpus, 3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        table = stats.counts.codes.nbytes + stats.counts.code_counts.nbytes
        batch = ngram._COUNT_BATCH * np.dtype(np.int64).itemsize
        assert peak < 6 * (table + batch), f"count_ngrams peaked at {peak} bytes for a {table}-byte table"
        assert len(merges) > 4
