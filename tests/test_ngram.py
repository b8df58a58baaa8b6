import collections
import itertools
import re
import tracemalloc
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scdselect import ngram
from scdselect.corpus import LabelCorpus, LabelSequence
from scdselect.divergence import CandidateStats
from scdselect.ngram import (
    NGramStats,
    count_ngrams,
    interpolate,
    merge_counts,
    prune,
    save_stats_dump,
    sequence_gram_counts,
    smoothed_distribution,
)

from conftest import make_corpus, stats_from_counts

EMPTY = np.empty(0, dtype=np.int64)


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
            stats_from_counts({(0,): 1}, k=2, alpha=alpha)

    @pytest.mark.parametrize("alpha", [True, Decimal("0.5"), "0.5"])
    def test_non_real_alpha_rejected_by_every_holder(self, tiny_corpus, alpha):
        table = count_ngrams(tiny_corpus, 1).counts
        message = f"^smoothing alpha must be a real number, got {re.escape(repr(alpha))}$"
        for build in (lambda: count_ngrams(tiny_corpus, 1, alpha=alpha),
                      lambda: NGramStats(table, alpha), lambda: CandidateStats(1, 3, alpha)):
            with pytest.raises(ValueError, match=message):
                build()

    def test_numpy_alpha_stored_as_plain_float(self, tiny_corpus, tmp_path):
        table = count_ngrams(tiny_corpus, 1).counts
        for stats in (count_ngrams(tiny_corpus, 1, alpha=np.float32(0.5)), NGramStats(table, np.float32(0.5))):
            assert type(stats.smoothing_alpha) is float
            save_stats_dump(stats, tmp_path / "s.tsv")
            assert (tmp_path / "s.tsv").read_text(encoding="utf-8").splitlines()[3] == "#alpha=0.5"
        assert type(CandidateStats(1, 3, np.float32(0.5)).alpha) is float

    @pytest.mark.parametrize("counts,message", [
        (ngram.GramCounts(1, 3, np.array([1, 0]), np.array([1, 1])), "distinct, ascending"),
        (ngram.GramCounts(1, 3, np.array([0, 1]), np.array([1, 0])), "non-positive count"),
    ])
    def test_inconsistent_counts_rejected(self, counts, message):
        with pytest.raises(ValueError, match=message):
            NGramStats(counts=counts, smoothing_alpha=0.5)

    def test_dict_counts_rejected(self):
        with pytest.raises(TypeError, match="counts must be a GramCounts, got dict"):
            NGramStats(counts={(0,): 1}, smoothing_alpha=0.5)

    def test_total_matches_window_formula(self):
        rng = np.random.default_rng(11)
        for order in (1, 2, 3):
            seqs = [rng.integers(0, 5, size=rng.integers(0, 12)).tolist() for _ in range(30)]
            corpus = make_corpus(seqs, alphabet_size=5)
            stats = count_ngrams(corpus, order)
            assert stats.total == sum(max(0, len(s) - order + 1) for s in seqs)
            counts = brute_force_counts(seqs, order)
            for min_count in (1, 2, 3):
                assert prune(stats, min_count).total == sum(c for c in counts.values() if c >= min_count)

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
        stats = stats_from_counts({(0,): 5, (1,): 1}, k=3, alpha=0.0)
        pruned = prune(stats, 2)
        assert pruned.counts == {(0,): 5}
        assert pruned.total == 5

    def test_negative_min_count_rejected(self):
        with pytest.raises(ValueError, match="^min_count must be >= 0, got -1$"):
            prune(stats_from_counts({(0,): 1}, k=3), -1)

    def test_all_pruned_is_valid(self):
        stats = stats_from_counts({(0,): 1}, k=3)
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
        stats = stats_from_counts({(0,): 8}, k=2, alpha=1.0)
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

    @pytest.mark.parametrize(
        "order,k,table,alpha",
        [
            (1, 3, {(0,): 8, (2,): 1}, 0.0),
            (1, 3, {(0,): 8, (2,): 1}, 0.5),
            (2, 4, {(0, 3): 2, (1, 1): 5, (3, 0): 1}, 0.25),
            (3, 5, {(4, 4, 4): 7}, 3.0),
            (2, 4, {}, 0.5),
        ],
    )
    def test_smoothed_view_of_a_table_is_the_closed_form(self, order, k, table, alpha):
        counts = stats_from_counts(table, k, order).counts
        dist = smoothed_distribution(counts, alpha)
        denom = int(sum(table.values())) + alpha * float(k**order)
        assert dist.codes is counts.codes and (dist.order, dist.alphabet_size) == (order, k)
        assert dist.explicit.tobytes() == ((counts.code_counts + alpha) / denom).tobytes()
        assert dist.floor == alpha / denom

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

    @pytest.mark.parametrize("lam", [True, "0.5", Decimal("0.5")])
    def test_non_real_lambda_rejected(self, lam):
        q, u = self._dists()
        with pytest.raises(ValueError, match=f"^lambda must be a real number, got {re.escape(repr(lam))}$"):
            interpolate(q, u, lam)

    def test_numpy_lambda_mixes_in_float64(self):
        q = count_ngrams(make_corpus([[0, 0, 0, 0]], 3), 1, alpha=0.1)
        u = count_ngrams(make_corpus([[0, 1, 1]], 3), 1, alpha=0.3)
        mixed = interpolate(q, u, np.float32(0.3))
        assert np.asarray(mixed.floor).dtype == np.float64
        assert mixed.floor == interpolate(q, u, 0.30000001192092896).floor

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
    def test_order_is_at_most_62_at_every_alphabet_size(self):
        ngram.check_gram_space(1, 62)
        ngram.check_gram_space(2, 62)  # 2**62 codes fit
        with pytest.raises(ValueError, match="^order must be <= 62, got 63$"):
            ngram.check_gram_space(1, 63)
        with pytest.raises(ValueError, match="K=2 at order 63 "):
            ngram.check_gram_space(2, 63)
        # Refused at once: K**order is never computed past order 62.
        with pytest.raises(ValueError, match=f"K=500 at order {10**30} "):
            ngram.check_gram_space(500, 10**30)
        with pytest.raises(ValueError, match=f"^order must be <= 62, got {10**30}$"):
            count_ngrams(make_corpus([[0, 0]], 1), 10**30)
        assert count_ngrams(make_corpus([[0] * 70], 1), 62).total == 9

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

    @pytest.mark.parametrize("order", [0, -1])
    @pytest.mark.parametrize(
        "build",
        [
            lambda order: CandidateStats(order, 3, 0.5),
            lambda order: sequence_gram_counts([1, 2], order, 3),
            lambda order: stats_from_counts({}, 3, order),
            lambda order: count_ngrams(make_corpus([[1, 2]], 3), order),
        ],
        ids=["CandidateStats", "sequence_gram_counts", "NGramStats", "count_ngrams"],
    )
    def test_order_below_one_rejected_everywhere(self, build, order):
        with pytest.raises(ValueError, match=f"order must be >= 1, got {order}"):
            build(order)

    @pytest.mark.parametrize("value", [True, 1.5, "2"])
    @pytest.mark.parametrize(
        "field,build",
        [
            ("order", lambda order: count_ngrams(make_corpus([[1, 2]], 3), order)),
            ("order", lambda order: CandidateStats(order, 3, 0.5)),
            ("order", lambda order: sequence_gram_counts([1, 2], order, 3)),
            ("order", lambda order: NGramStats(ngram.GramCounts(order, 3, EMPTY, EMPTY), 0.5)),
            ("alphabet_size", lambda k: CandidateStats(1, k, 0.5)),
            ("alphabet_size", lambda k: sequence_gram_counts([], 1, k)),
            ("min_count", lambda min_count: prune(count_ngrams(make_corpus([[1, 2]], 3), 1), min_count)),
        ],
        ids=["count_ngrams", "CandidateStats", "sequence_gram_counts", "NGramStats",
             "CandidateStats-K", "sequence_gram_counts-K", "prune"],
    )
    def test_non_integer_size_rejected(self, field, build, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            build(value)

    def test_empty_alphabet_rejected(self):
        with pytest.raises(ValueError, match="alphabet_size must be >= 1"):
            CandidateStats(1, 0, 0.5)
        with pytest.raises(ValueError, match="alphabet_size must be >= 1"):
            sequence_gram_counts([], 1, 0)

    def test_stats_and_sequence_counts_reject(self):
        with pytest.raises(ValueError, match=r"K=2 at order 63"):
            stats_from_counts({}, k=2, order=63)
        with pytest.raises(ValueError, match=r"K=2 at order 63"):
            sequence_gram_counts([0, 1], 63, 2)


class TestSizeRefusals:
    def test_grouped_codes_refuses_more_sequences_than_int64_keys(self):
        # group_limit(2, 61) = 2**62 // 2**61 = 2
        lengths = np.ones(3, dtype=np.int64)
        with pytest.raises(ValueError, match=r"^too many sequences \(3\) to key in int64$"):
            ngram.grouped_codes(np.zeros(3, dtype=np.int32), lengths, 61, 2)
        assert ngram.grouped_codes(np.zeros(2, dtype=np.int32), lengths[:2], 61, 2)[0].size == 0

    def test_to_dense_refuses_a_support_beyond_the_limit(self):
        assert 2001**2 > ngram.DENSE_SUPPORT_LIMIT >= 2000**2
        with pytest.raises(ValueError, match="^support size 4004001 too large to materialize$"):
            smoothed_distribution(stats_from_counts({}, k=2001, order=2).counts, 0.5).to_dense()
        assert smoothed_distribution(stats_from_counts({}, k=2000, order=2).counts, 0.5).to_dense().size == 2000**2


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
    @example([], [])
    @example([], [4, 1, 4])
    @example([0, 60, 60], [])
    def test_merge_counts_is_a_counter_sum(self, a, b):
        tables = []
        for keys in (a, b):
            counter = collections.Counter(keys)
            codes = np.array(sorted(counter), dtype=np.int64)
            tables += [codes, np.array([counter[c] for c in codes.tolist()], dtype=np.int64)]
        codes, counts = merge_counts(*tables)
        assert codes.dtype == counts.dtype == np.int64
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
