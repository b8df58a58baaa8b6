import itertools
import math

import numpy as np
import pytest

from scdselect.divergence import (
    CandidateStats,
    DivergenceUndefinedError,
    ScdValue,
    scd,
    scd_incremental,
)
from scdselect.ngram import count_ngrams

from conftest import make_corpus, stats_from_counts


def brute_force_scd(p, q):
    """Full enumeration over all K**N grams; the independent oracle."""
    total = 0.0
    for gram in itertools.product(range(p.alphabet_size), repeat=p.order):
        pp = p.probability(gram)
        if pp <= 0.0:
            continue
        qq = q.probability(gram)
        total += pp * math.log(pp / qq)
    return total


class TestScd:
    def test_value_converts_to_its_nats(self):
        assert float(ScdValue(0.25, 3, 0.125)) == 0.25

    def test_self_divergence_is_zero(self):
        corpus = make_corpus([[0, 1, 1, 2, 0]], alphabet_size=3)
        dist = count_ngrams(corpus, 1, alpha=0.5).distribution()
        assert abs(scd(dist, dist).nats) <= 1e-12

    def test_hand_derived_value(self):
        # p=(3/4, 1/4), q=(1/2, 1/2): 0.75*ln(1.5) + 0.25*ln(0.5) = 0.130812 nats
        p = stats_from_counts({(0,): 3, (1,): 1}, k=2, alpha=0.0).distribution()
        q = stats_from_counts({(0,): 2, (1,): 2}, k=2, alpha=0.0).distribution()
        assert scd(p, q).nats == pytest.approx(0.130812, abs=1e-4)

    def test_zero_in_p_is_fine_zero_in_q_is_error(self):
        p = stats_from_counts({(0,): 4}, k=2, alpha=0.0).distribution()
        q = stats_from_counts({(0,): 2, (1,): 2}, k=2, alpha=0.0).distribution()
        assert scd(p, q).nats == pytest.approx(math.log(2.0))
        with pytest.raises(DivergenceUndefinedError):
            scd(q, p)

    def test_asymmetry_witness(self):
        # Skewed against uniform: KLD differs by direction.
        p = stats_from_counts({(0,): 3, (1,): 1}, k=2, alpha=0.5).distribution()
        q = stats_from_counts({(0,): 2, (1,): 2}, k=2, alpha=0.5).distribution()
        assert scd(p, q).nats != scd(q, p).nats

    def test_mismatched_operands_rejected(self):
        a = stats_from_counts({(0,): 1}, k=2).distribution()
        b = stats_from_counts({(0,): 1}, k=3).distribution()
        c = stats_from_counts({(0, 0): 1}, k=2, order=2).distribution()
        with pytest.raises(ValueError, match="alphabet"):
            scd(a, b)
        with pytest.raises(ValueError, match="order"):
            scd(a, c)

    def test_implicit_mass_matches_enumeration(self):
        # Small sparse supports leave most of K**N implicit on both sides.
        p = stats_from_counts({(0, 1): 3}, k=4, order=2, alpha=0.7).distribution()
        q = stats_from_counts({(2, 2): 5, (0, 1): 1}, k=4, order=2, alpha=0.2).distribution()
        value = scd(p, q)
        assert value.nats == pytest.approx(brute_force_scd(p, q), abs=1e-12)
        assert value.support_terms == 2
        assert value.implicit_mass != 0.0

    @pytest.mark.parametrize("order", [1, 2])
    def test_matches_enumeration_on_random_tables(self, order):
        rng = np.random.default_rng(order * 17)
        for _ in range(30):
            k = int(rng.integers(2, 5))
            alpha = float(rng.choice([0.1, 0.5, 1.0]))
            grams = list(itertools.product(range(k), repeat=order))
            p_counts = {g: int(c) for g, c in zip(grams, rng.integers(0, 9, len(grams))) if c > 0}
            q_counts = {g: int(c) for g, c in zip(grams, rng.integers(0, 9, len(grams))) if c > 0}
            if not p_counts or not q_counts:
                continue
            p = stats_from_counts(p_counts, k, order, alpha).distribution()
            q = stats_from_counts(q_counts, k, order, alpha).distribution()
            value = scd(p, q)
            assert value.nats == pytest.approx(brute_force_scd(p, q), abs=1e-9)
            assert value.nats >= -1e-12


class TestScdIncremental:
    def _setup(self):
        query = count_ngrams(make_corpus([[0, 0, 1, 2]], 3), 1, alpha=0.5).distribution()
        base = CandidateStats(order=1, alphabet_size=3, alpha=0.5)
        base.add([0, 1])
        return base, query

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="smoothing alpha must be finite and >= 0"):
            CandidateStats(order=1, alphabet_size=3, alpha=alpha)

    def test_empty_addition_is_noop(self):
        base, query = self._setup()
        assert scd_incremental(base, [], query).nats == scd(query, base.distribution()).nats

    def test_equals_scratch_recount(self):
        rng = np.random.default_rng(23)
        query = count_ngrams(make_corpus([rng.integers(0, 4, 20).tolist()], 4), 2, alpha=0.5).distribution()
        base = CandidateStats(order=2, alphabet_size=4, alpha=0.5)
        picked = []
        for _ in range(6):
            addition = rng.integers(0, 4, size=rng.integers(2, 10)).tolist()
            incremental = scd_incremental(base, addition, query).nats
            scratch = CandidateStats(order=2, alphabet_size=4, alpha=0.5)
            for labels in picked + [addition]:
                scratch.add(labels)
            assert incremental == pytest.approx(scd(query, scratch.distribution()).nats, abs=1e-12)
            base.add(addition)
            picked.append(addition)

    def test_base_not_mutated(self):
        base, query = self._setup()
        before_counts = dict(base.counts)
        before_total = base.total
        scd_incremental(base, [2, 2, 2], query)
        assert base.counts == before_counts
        assert base.total == before_total

    def test_empty_base(self):
        _, query = self._setup()
        empty = CandidateStats(order=1, alphabet_size=3, alpha=0.5)
        only = CandidateStats(order=1, alphabet_size=3, alpha=0.5)
        only.add([1, 2])
        assert scd_incremental(empty, [1, 2], query).nats == scd(query, only.distribution()).nats

    def test_out_of_alphabet_addition_rejected(self):
        base, query = self._setup()
        with pytest.raises(ValueError, match="outside"):
            scd_incremental(base, [7], query)


class TestUndefinedDivergenceMessage:
    def test_names_the_first_offending_gram(self):
        # q lacks (1, 0) and (1, 1); the error names the lexicographically first.
        p = stats_from_counts({(1, 1): 1, (0, 1): 1, (1, 0): 1}, k=2, order=2, alpha=0.0).distribution()
        q = stats_from_counts({(0, 1): 1}, k=2, order=2, alpha=0.0).distribution()
        with pytest.raises(DivergenceUndefinedError, match=r"zero probability at gram \(1, 0\) "):
            scd(p, q)

    def test_unigram_gram_is_a_one_tuple(self):
        p = stats_from_counts({(0,): 1, (1,): 1}, k=2, alpha=0.0).distribution()
        q = stats_from_counts({(1,): 1}, k=2, alpha=0.0).distribution()
        with pytest.raises(DivergenceUndefinedError, match=r"gram \(0,\) "):
            scd(p, q)
