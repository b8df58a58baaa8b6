import itertools
import math
import re
from unittest import mock

import numpy as np
import pytest

from scdselect import selection
from scdselect.corpus import LabelCorpus, LabelSequence, load_label_corpus, save_label_corpus, sort_by_length
from scdselect.divergence import CandidateStats, DivergenceUndefinedError, ScdValue, scd
from scdselect.ngram import count_ngrams
from scdselect.selection import (
    MarkovSource,
    SelectionConfig,
    SelectionResult,
    build_target_distribution,
    contrastive_scores,
    format_report,
    generate_synthetic,
    partition_buckets,
    select_contrastive,
    select_greedy_scd,
    select_oracle,
    select_random,
)

from conftest import make_corpus


def naive_greedy(universal, query, config):
    """Spec-shaped reference: recount every candidate subset from scratch."""
    target = build_target_distribution(universal, query, config)
    ordered = sort_by_length(universal).sequences
    picked = []
    trace = []
    for start, end in partition_buckets(len(ordered), config.budget_c):
        best_seq = None
        best_val = math.inf
        for seq in ordered[start:end]:
            stats = CandidateStats(config.order, universal.alphabet_size, config.alpha)
            for chosen in picked + [seq]:
                stats.add(chosen.labels)
            val = scd(target, stats.distribution()).nats
            if val < best_val:
                best_val = val
                best_seq = seq
        picked.append(best_seq)
        stats = CandidateStats(config.order, universal.alphabet_size, config.alpha)
        for chosen in picked:
            stats.add(chosen.labels)
        trace.append(scd(target, stats.distribution()).nats)
    return tuple(seq.id for seq in picked), tuple(trace)


def list_duration_buckets(sequences, n_buckets):
    """Bucket edges as greedy made them from a list of sequences: Python float sums in order."""
    total = 0.0  # not sum(), which compensates from Python 3.12
    for seq in sequences:
        total += seq.duration_s
    span = total / n_buckets
    bounds = []
    start = 0
    cum = 0.0
    threshold = span
    for index, seq in enumerate(sequences):
        cum += seq.duration_s
        is_last = index == len(sequences) - 1
        if (cum >= threshold and len(bounds) < n_buckets - 1) or is_last:
            bounds.append((start, index + 1))
            start = index + 1
            threshold += span
    return bounds


def random_instance(rng, n_utts, k, max_len=10):
    seqs = [rng.integers(0, k, size=rng.integers(1, max_len)).tolist() for _ in range(n_utts)]
    universal = make_corpus(seqs, k, ids=[f"u{i:03d}" for i in range(n_utts)])
    q_seqs = [rng.integers(0, k, size=rng.integers(2, max_len)).tolist() for _ in range(3)]
    query = make_corpus(q_seqs, k, ids=[f"q{i}" for i in range(3)])
    return universal, query


class TestSelectionConfig:
    def test_exactly_one_budget(self):
        with pytest.raises(ValueError, match="exactly one"):
            SelectionConfig()
        with pytest.raises(ValueError, match="exactly one"):
            SelectionConfig(budget_c=2, duration_budget_s=5.0)

    def test_ranges(self):
        with pytest.raises(ValueError, match="lambda"):
            SelectionConfig(budget_c=1, lam=1.5)
        with pytest.raises(ValueError, match="alpha"):
            SelectionConfig(budget_c=1, alpha=-0.1)
        with pytest.raises(ValueError, match="budget_c"):
            SelectionConfig(budget_c=0)
        with pytest.raises(ValueError, match="order"):
            SelectionConfig(budget_c=1, order=0)
        with pytest.raises(ValueError, match="seed must be >= 0, got -5"):
            SelectionConfig(budget_c=1, seed=-5)
        assert SelectionConfig(budget_c=1, seed=0).seed == 0

    def test_negative_prune_min_count_rejected(self):
        with pytest.raises(ValueError, match="^prune_min_count must be >= 0, got -1$"):
            SelectionConfig(budget_c=1, prune_min_count=-1)

    @pytest.mark.parametrize("field,value,stored", [
        ("budget_c", True, None), ("budget_c", 1.5, None), ("budget_c", np.int64(3), 3),
        ("duration_budget_s", True, None), ("duration_budget_s", 1.5, 1.5),
        ("duration_budget_s", np.float32(2.5), 2.5),
        ("order", True, None), ("order", 1.5, None), ("order", np.int32(2), 2),
        ("lam", True, None), ("lam", np.float32(0.25), 0.25),
        ("alpha", True, None), ("alpha", 1.5, 1.5), ("alpha", np.float32(0.75), 0.75),
        ("prune_min_count", True, None), ("prune_min_count", 1.5, None), ("prune_min_count", np.uint8(1), 1),
        ("seed", True, None), ("seed", 1.5, None), ("seed", np.int16(7), 7),
    ])
    def test_fields_store_plain_numbers(self, field, value, stored):
        budget = {} if field in ("budget_c", "duration_budget_s") else {"budget_c": 2}
        if stored is None:
            with pytest.raises(ValueError, match=f"^{field} must be an? (integer|real number), got {value!r}$"):
                SelectionConfig(**budget, **{field: value})
            return
        config = SelectionConfig(**budget, **{field: value})
        assert type(getattr(config, field)) is type(stored) and getattr(config, field) == stored
        assert SelectionConfig.from_json(config.to_json()) == config

    def test_json_round_trip(self):
        config = SelectionConfig(budget_c=3, order=2, lam=0.25, alpha=0.75, prune_min_count=1, seed=9)
        assert SelectionConfig.from_json(config.to_json()) == config

    @pytest.mark.parametrize("field", ["duration_budget_s", "alpha"])
    def test_real_past_the_float_range_rejected(self, field):
        budget = {} if field == "duration_budget_s" else {"budget_c": 1}
        with pytest.raises(ValueError, match=f"^{field} must be within the float range$"):
            SelectionConfig(**budget, **{field: 10**400})


class TestSelectionResult:
    def test_repeated_id_rejected(self):
        with pytest.raises(ValueError, match="^selected ids must be unique$"):
            SelectionResult(("a", "b", "a"), (), None, "random", SelectionConfig(budget_c=3))

    def test_trace_must_end_at_final_scd(self):
        final = ScdValue(0.5, 1, 0.0)
        with pytest.raises(ValueError, match="^trace must end at final_scd$"):
            SelectionResult(("a",), (0.25,), final, "greedy", SelectionConfig(budget_c=1))
        assert SelectionResult(("a",), (0.5,), final, "greedy", SelectionConfig(budget_c=1)).final_scd is final


class TestPartitionBuckets:
    @pytest.mark.parametrize("n,c", [(10, 3), (12, 4), (7, 7), (100, 1), (5, 2)])
    def test_sizes(self, n, c):
        bounds = partition_buckets(n, c)
        sizes = [end - start for start, end in bounds]
        assert len(bounds) == c
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
        # remainder goes to the front
        assert sizes == sorted(sizes, reverse=True)
        # contiguous cover
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        assert all(bounds[i][1] == bounds[i + 1][0] for i in range(c - 1))

    def test_invalid(self):
        with pytest.raises(ValueError):
            partition_buckets(3, 4)
        with pytest.raises(ValueError):
            partition_buckets(3, 0)

    @pytest.mark.parametrize("n,c,field,value", [
        (10.0, 3, "n_items", 10.0), (True, True, "n_items", True),
        (10, 3.0, "n_buckets", 3.0), (10, True, "n_buckets", True),
    ])
    def test_non_integer_rejected(self, n, c, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            partition_buckets(n, c)

    def test_numpy_sizes_give_int_bounds(self):
        bounds = partition_buckets(np.int64(10), np.uint8(3))
        assert bounds == [(0, 4), (4, 7), (7, 10)]
        assert all(type(edge) is int for bound in bounds for edge in bound)


class TestGreedy:
    def _derived_instance(self):
        universal = LabelCorpus(2, (
            LabelSequence("u1", 1.0, np.array([0, 0], np.int32)),
            LabelSequence("u2", 1.0, np.array([1, 1], np.int32)),
            LabelSequence("u3", 1.0, np.array([0, 1], np.int32)),
            LabelSequence("u4", 1.0, np.array([1, 0], np.int32)),
        ))
        query = make_corpus([[0, 0]], 2, ids=["q0"])
        config = SelectionConfig(budget_c=2, order=1, lam=1.0, alpha=0.5)
        return universal, query, config

    def test_derived_instance(self):
        # Hand evaluation with the add-alpha closed form: target is
        # ((2+.5)/3, (0+.5)/3) = (5/6, 1/6). Bucket 1 {u1,u2}: u1 matches the
        # target exactly (SCD 0), u2 does not. Bucket 2 {u3,u4}: both give
        # counts {0:3, 1:1} -> tie, broken by sorted position -> u3. The
        # step-2 SCD is (5/6)ln((5/6)/0.7) + (1/6)ln((1/6)/0.3) = 0.047330.
        universal, query, config = self._derived_instance()
        result = select_greedy_scd(universal, query, config)
        assert result.selected_ids == ("u1", "u3")
        assert result.scd_trace[0] == pytest.approx(0.0, abs=1e-12)
        assert result.scd_trace[1] == pytest.approx(0.047330, abs=1e-5)
        assert result.strategy == "greedy-scd"

    def test_budget_equals_corpus_selects_all_in_sorted_order(self):
        rng = np.random.default_rng(0)
        universal, query = random_instance(rng, 6, k=3)
        config = SelectionConfig(budget_c=6, alpha=0.5)
        result = select_greedy_scd(universal, query, config)
        assert result.selected_ids == sort_by_length(universal).ids

    def test_trace_shape(self):
        rng = np.random.default_rng(1)
        universal, query = random_instance(rng, 9, k=4)
        config = SelectionConfig(budget_c=4)
        result = select_greedy_scd(universal, query, config)
        assert len(result.scd_trace) == 4
        assert len(result.selected_ids) == 4
        assert result.scd_trace[-1] == result.final_scd.nats

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_naive_reimplementation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 13))
        universal, query = random_instance(rng, n, k=int(rng.integers(2, 5)))
        config = SelectionConfig(
            budget_c=int(rng.integers(1, min(n, 5))),
            order=int(rng.integers(1, 3)),
            lam=float(rng.choice([0.0, 0.4, 0.9, 1.0])),
            alpha=0.5,
        )
        result = select_greedy_scd(universal, query, config)
        ids, trace = naive_greedy(universal, query, config)
        assert result.selected_ids == ids
        assert result.scd_trace == trace

    def test_final_scd_matches_scratch_recount(self):
        rng = np.random.default_rng(5)
        universal, query = random_instance(rng, 12, k=4)
        config = SelectionConfig(budget_c=5, order=2)
        result = select_greedy_scd(universal, query, config)
        target = build_target_distribution(universal, query, config)
        stats = CandidateStats(config.order, universal.alphabet_size, config.alpha)
        by_id = {seq.id: seq for seq in universal}
        for utt_id in result.selected_ids:
            stats.add(by_id[utt_id].labels)
        assert result.final_scd.nats == pytest.approx(scd(target, stats.distribution()).nats, abs=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        universal, query = random_instance(rng, 10, k=3)
        config = SelectionConfig(budget_c=3)
        assert select_greedy_scd(universal, query, config) == select_greedy_scd(universal, query, config)

    def test_prune_affects_target(self):
        rng = np.random.default_rng(8)
        universal, query = random_instance(rng, 10, k=4, max_len=6)
        base = SelectionConfig(budget_c=3, alpha=0.5)
        pruned = SelectionConfig(budget_c=3, alpha=0.5, prune_min_count=3)
        r1 = select_greedy_scd(universal, query, base)
        r2 = select_greedy_scd(universal, query, pruned)
        assert r1.config_echo != r2.config_echo  # both runs valid, configs differ

    def test_errors(self):
        universal = make_corpus([[0], [1]], 2)
        query = make_corpus([[0]], 2, ids=["q"])
        with pytest.raises(ValueError, match="exceeds"):
            select_greedy_scd(universal, query, SelectionConfig(budget_c=3))
        with pytest.raises(ValueError, match="empty"):
            select_greedy_scd(make_corpus([], 2), query, SelectionConfig(budget_c=1))
        with pytest.raises(ValueError, match="empty"):
            select_greedy_scd(universal, make_corpus([], 2), SelectionConfig(budget_c=1))

    def test_target_rejects_alphabet_mismatch(self):
        universal = make_corpus([[0], [1]], 2)
        query = make_corpus([[0]], 3, ids=["q"])
        with pytest.raises(ValueError, match="alphabet mismatch: universal K=2, query K=3"):
            build_target_distribution(universal, query, SelectionConfig(budget_c=1))

    def test_alpha_zero_covering_candidates(self):
        # With alpha=0 greedy rescores every candidate of the first bucket
        # exactly, in sorted order, and the first one that leaves a target
        # gram uncovered raises: u1=[0,0] comes before u2=[0,1], which covers
        # the target. Once every candidate covers it, u2 is picked.
        universal = make_corpus([[0, 1], [0, 0]], 2, ids=["u2", "u1"])
        query = make_corpus([[0, 1, 0, 1]], 2, ids=["q"])
        config = SelectionConfig(budget_c=1, lam=1.0, alpha=0.0)
        with pytest.raises(DivergenceUndefinedError):
            select_greedy_scd(universal, query, config)
        covering = make_corpus([[0, 1], [1, 0]], 2, ids=["u2", "u3"])
        result = select_greedy_scd(covering, query, config)
        assert result.selected_ids == ("u2",)

    def test_duration_mode(self):
        rng = np.random.default_rng(9)
        seqs = [rng.integers(0, 3, size=rng.integers(2, 8)).tolist() for _ in range(12)]
        universal = make_corpus(seqs, 3, durations=[float(1 + rng.integers(1, 5)) for _ in range(12)])
        query = make_corpus([[0, 1, 2, 0]], 3, ids=["q"])
        config = SelectionConfig(duration_budget_s=8.0)
        result = select_greedy_scd(universal, query, config)
        by_id = {seq.id: seq for seq in universal}
        picked_duration = sum(by_id[i].duration_s for i in result.selected_ids)
        assert picked_duration >= 8.0
        assert len(set(result.selected_ids)) == len(result.selected_ids)
        assert result == select_greedy_scd(universal, query, config)

    def test_duration_mode_requires_durations(self):
        universal = make_corpus([[0], [1]], 2, durations=[0.0, 1.0])
        query = make_corpus([[0]], 2, ids=["q"])
        with pytest.raises(ValueError, match="duration"):
            select_greedy_scd(universal, query, SelectionConfig(duration_budget_s=1.0))


class TestSelectionBuildsNoViews:
    """Greedy and contrastive read candidates from the corpus columns, so a
    loaded pool and query never build their ``LabelSequence`` views."""

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_loaded_corpora_keep_no_views(self, tmp_path, order):
        rng = np.random.default_rng(4)
        seqs = [rng.integers(0, 5, size=rng.integers(0, 12)).tolist() for _ in range(30)]
        durations = [float(rng.uniform(0.5, 3.0)) for _ in range(30)]
        save_label_corpus(make_corpus(seqs, 5, durations=durations), tmp_path / "pool.labels")
        save_label_corpus(make_corpus([[0, 1, 2, 3, 4, 4, 1]], 5, ids=["q"]), tmp_path / "query.labels")
        pool = load_label_corpus(tmp_path / "pool.labels")
        query = load_label_corpus(tmp_path / "query.labels")
        count = SelectionConfig(budget_c=6, order=order)
        seconds = SelectionConfig(duration_budget_s=0.8 * math.fsum(durations), order=order)
        with mock.patch.object(LabelSequence, "_view", side_effect=AssertionError("a view was built")):
            select_greedy_scd(pool, query, count)
            select_greedy_scd(pool, query, seconds)
            select_contrastive(pool, query, count)
            contrastive_scores(pool, query, count)
        assert pool._sequences is None
        assert query._sequences is None


class TestLambdaEndpoints:
    def test_endpoints_reproduce_components(self):
        rng = np.random.default_rng(12)
        universal, query = random_instance(rng, 8, k=3)
        for order in (1, 2):
            alpha = 0.5
            at0 = build_target_distribution(
                universal, query, SelectionConfig(budget_c=1, order=order, lam=0.0, alpha=alpha)
            )
            at1 = build_target_distribution(
                universal, query, SelectionConfig(budget_c=1, order=order, lam=1.0, alpha=alpha)
            )
            dist_u = count_ngrams(universal, order, alpha).distribution()
            dist_q = count_ngrams(query, order, alpha).distribution()
            assert np.max(np.abs(at0.to_dense() - dist_u.to_dense())) <= 1e-12
            assert np.max(np.abs(at1.to_dense() - dist_q.to_dense())) <= 1e-12


class TestRandom:
    def test_deterministic_per_seed(self):
        universal = make_corpus([[0], [1], [0, 1], [1, 0]], 2)
        config = SelectionConfig(budget_c=2, seed=7)
        assert select_random(universal, config).selected_ids == select_random(universal, config).selected_ids
        other = SelectionConfig(budget_c=2, seed=8)
        # different seed gives a different shuffle on this instance
        assert select_random(universal, config).selected_ids != select_random(universal, other).selected_ids

    def test_full_budget_is_permutation(self):
        universal = make_corpus([[0], [1], [0, 1]], 2)
        result = select_random(universal, SelectionConfig(budget_c=3, seed=1))
        assert sorted(result.selected_ids) == sorted(universal.ids)

    def test_zero_duration_budget(self):
        universal = make_corpus([[0], [1]], 2, durations=[1.0, 2.0])
        result = select_random(universal, SelectionConfig(duration_budget_s=0.0, seed=0))
        assert result.selected_ids == ()
        assert result.final_scd is None

    def test_budget_exceeds_corpus(self):
        universal = make_corpus([[0]], 2)
        with pytest.raises(ValueError, match="exceeds"):
            select_random(universal, SelectionConfig(budget_c=2))
        with pytest.raises(ValueError, match="exceeds"):
            select_random(
                make_corpus([[0]], 2, durations=[1.0]),
                SelectionConfig(duration_budget_s=2.0),
            )

    def test_trace_when_query_given(self):
        rng = np.random.default_rng(3)
        universal, query = random_instance(rng, 6, k=3)
        result = select_random(universal, SelectionConfig(budget_c=3, seed=0), query=query)
        assert len(result.scd_trace) == 3
        assert result.final_scd is not None
        without = select_random(universal, SelectionConfig(budget_c=3, seed=0))
        assert without.selected_ids == result.selected_ids
        assert without.final_scd is None


class TestContrastive:
    def test_identical_distributions_degenerate_to_sorted_order(self):
        seqs = [[0, 1], [1, 0], [0, 1, 1, 0]]
        universal = make_corpus(seqs, 2)
        query = make_corpus(seqs, 2, ids=["q0", "q1", "q2"])
        config = SelectionConfig(budget_c=2, alpha=0.5)
        result = select_contrastive(universal, query, config)
        assert result.selected_ids == sort_by_length(universal).ids[:2]

    def test_sign_check(self):
        universal = make_corpus([[0, 0, 0], [1, 1, 1]], 2, ids=["match", "other"])
        query = make_corpus([[0, 0, 0, 0]], 2, ids=["q"])
        scores = contrastive_scores(universal, query, SelectionConfig(budget_c=1))
        assert scores["match"] > 0
        assert scores["other"] < 0

    def test_ranking_matches_independent_recount(self):
        rng = np.random.default_rng(21)
        universal, query = random_instance(rng, 4, k=3, max_len=8)
        config = SelectionConfig(budget_c=4, alpha=0.5)
        result = select_contrastive(universal, query, config)

        dist_q = count_ngrams(query, config.order, config.alpha).distribution()
        dist_u = count_ngrams(universal, config.order, config.alpha).distribution()
        expected = {}
        for seq in universal:
            grams = [tuple(seq.labels[i : i + 1].tolist()) for i in range(len(seq))]
            expected[seq.id] = sum(
                math.log(dist_q.probability(g)) - math.log(dist_u.probability(g)) for g in grams
            ) / len(grams)
        ranked = sorted(sort_by_length(universal).ids, key=lambda i: -expected[i])
        assert list(result.selected_ids) == ranked

    def test_zero_gram_utterance_excluded(self, caplog):
        universal = make_corpus([[0, 1, 0], [0]], 2, ids=["long", "short"])
        query = make_corpus([[0, 1]], 2, ids=["q"])
        config = SelectionConfig(budget_c=1, order=2)
        with caplog.at_level("WARNING"):
            result = select_contrastive(universal, query, config)
        assert result.selected_ids == ("long",)
        assert any("no grams" in message for message in caplog.messages)
        with pytest.raises(ValueError, match="grams at order"):
            select_contrastive(universal, query, SelectionConfig(budget_c=2, order=2))

    def test_alpha_zero_first_undefined_gram_decides(self, caplog):
        # Pruning leaves (1,) at zero pool probability and the query has no
        # (0,). Utterance a holds both; its first undefined gram in code
        # order, (0,), has zero query probability, so a is excluded rather
        # than failing the run. The trace of the pick e then misses (1,).
        universal = make_corpus([[0, 1], [0, 0, 2, 2, 2, 2], [2, 2]], 3, ids=["a", "c", "e"])
        query = make_corpus([[2, 2, 1, 1]], 3, ids=["q"])
        config = SelectionConfig(budget_c=1, lam=1.0, alpha=0.0, prune_min_count=2)
        scores = contrastive_scores(universal, query, config)
        assert scores["a"] == scores["c"] == -math.inf and scores["e"] > -math.inf
        with caplog.at_level("WARNING"), pytest.raises(DivergenceUndefinedError, match=r"gram \(1,\)"):
            select_contrastive(universal, query, config)
        assert any("2 hold a gram of zero query probability" in message for message in caplog.messages)
        # Where the pool-zero gram comes first, the utterance fails the run.
        universal = make_corpus([[0, 1], [1, 2], [0, 0, 2, 2, 2, 2], [2, 2]], 3, ids=["a", "b", "c", "e"])
        query = make_corpus([[2, 2, 2, 1, 1, 1]], 3, ids=["q"])
        with pytest.raises(ValueError, match=r"pool probability is zero at gram \(1,\)"):
            contrastive_scores(universal, query, SelectionConfig(budget_c=1, alpha=0.0, prune_min_count=3))


class TestOracle:
    def test_full_budget(self):
        rng = np.random.default_rng(31)
        universal, query = random_instance(rng, 5, k=3)
        result = select_oracle(universal, query, SelectionConfig(budget_c=5))
        assert sorted(result.selected_ids) == sorted(universal.ids)

    @pytest.mark.parametrize("seed", range(5))
    def test_oracle_at_most_greedy(self, seed):
        rng = np.random.default_rng(seed + 100)
        universal, query = random_instance(rng, int(rng.integers(5, 10)), k=3)
        config = SelectionConfig(budget_c=int(rng.integers(1, 4)))
        oracle = select_oracle(universal, query, config)
        greedy = select_greedy_scd(universal, query, config)
        assert oracle.final_scd.nats <= greedy.final_scd.nats + 1e-12

    def test_planted_match_recovered_exactly(self):
        # One copy of the query utterance hidden in the pool: picking it
        # reproduces the query counts and the SCD vanishes.
        universal = make_corpus(
            [[0, 1, 1], [0, 0, 0], [1, 1, 1]], 2, ids=["plant", "noise-1", "noise-2"]
        )
        query = make_corpus([[0, 1, 1]], 2, ids=["q"])
        config = SelectionConfig(budget_c=1, lam=1.0, alpha=0.5)
        result = select_oracle(universal, query, config)
        assert result.selected_ids == ("plant",)
        assert result.final_scd.nats == pytest.approx(0.0, abs=1e-12)

    def test_planted_pair_recovered_at_smoothing_floor(self):
        # Two plants double the query counts; smoothing at the larger total
        # leaves a small positive divergence floor, but they still win.
        universal = make_corpus(
            [[0, 1, 1], [0, 0, 0], [1, 1, 1], [0, 1, 1]],
            2,
            ids=["plant-a", "noise-1", "noise-2", "plant-b"],
        )
        query = make_corpus([[0, 1, 1]], 2, ids=["q"])
        config = SelectionConfig(budget_c=2, lam=1.0, alpha=0.5)
        result = select_oracle(universal, query, config)
        assert sorted(result.selected_ids) == ["plant-a", "plant-b"]
        assert 0.0 < result.final_scd.nats < 1e-2

    def test_guard_rails(self):
        rng = np.random.default_rng(41)
        universal, query = random_instance(rng, 8, k=2)
        with pytest.raises(ValueError, match="oracle limited"):
            select_oracle(universal, query, SelectionConfig(budget_c=7))
        wide, _ = random_instance(rng, 21, k=2)
        with pytest.raises(ValueError, match=r"oracle limited to \|U\| <= 20 and C <= 6; got \|U\|=21, C=2"):
            select_oracle(wide, query, SelectionConfig(budget_c=2))
        with pytest.raises(ValueError, match="count budgets"):
            select_oracle(universal, query, SelectionConfig(duration_budget_s=1.0))


def skewed_sources(k=8, seed=0):
    rng = np.random.default_rng(seed)
    uniform = np.full((k, k), 1.0 / k)
    peaked = rng.random((k, k)) + np.eye(k) * 5
    peaked /= peaked.sum(axis=1, keepdims=True)
    init = np.full(k, 1.0 / k)
    return (
        MarkovSource(alphabet_size=k, initial_probs=init, transition=uniform),
        MarkovSource(alphabet_size=k, initial_probs=init, transition=peaked),
    )


class TestMarkovSource:
    def test_length_zero_gives_an_empty_sequence(self):
        source = skewed_sources(k=3)[0]
        rng = np.random.default_rng(0)
        empty = source.sample_sequence(0, rng)
        assert empty.shape == (0,) and empty.dtype == np.int64
        assert rng.random() == np.random.default_rng(0).random()  # no draw was taken

    def test_validation(self):
        k = 3
        good_init = np.full(k, 1.0 / k)
        good_trans = np.full((k, k), 1.0 / k)
        with pytest.raises(ValueError, match="sum to 1"):
            MarkovSource(k, np.array([0.5, 0.2, 0.2]), good_trans)
        bad_trans = good_trans.copy()
        bad_trans[0, 0] += 0.5
        with pytest.raises(ValueError, match="rows"):
            MarkovSource(k, good_init, bad_trans)
        with pytest.raises(ValueError, match="non-negative"):
            MarkovSource(k, good_init, np.array([[1.5, -0.5, 0], [0, 1, 0], [0, 0, 1]], dtype=float))

    @pytest.mark.parametrize("k", [2.0, True, "2"])
    def test_non_integer_alphabet_size_rejected(self, k):
        with pytest.raises(ValueError, match=f"^alphabet_size must be an integer, got {k!r}$"):
            MarkovSource(k, np.full(2, 0.5), np.full((2, 2), 0.5))

    def test_empty_alphabet_rejected(self):
        with pytest.raises(ValueError, match="^alphabet_size must be >= 1, got 0$"):
            MarkovSource(0, np.empty(0), np.empty((0, 0)))

    def test_shapes_must_match_the_alphabet(self):
        with pytest.raises(ValueError, match="^initial_probs must have length K$"):
            MarkovSource(3, np.full(2, 0.5), np.full((3, 3), 1 / 3))
        with pytest.raises(ValueError, match="^transition must be K x K$"):
            MarkovSource(2, np.full(2, 0.5), np.full((2, 3), 1 / 3))
        assert type(MarkovSource(np.int64(2), np.full(2, 0.5), np.full((2, 2), 0.5)).alphabet_size) is int

    def test_sample_shape_and_range(self):
        source_a, _ = skewed_sources()
        rng = np.random.default_rng(0)
        seq = source_a.sample_sequence(50, rng)
        assert seq.shape == (50,)
        assert seq.min() >= 0 and seq.max() < source_a.alphabet_size


class TestGenerateSynthetic:
    def test_mix_zero_all_from_a(self):
        source_a, source_b = skewed_sources()
        _, origins = generate_synthetic(source_a, source_b, 50, 0.0, (3, 6), seed=1)
        assert set(origins.values()) == {"A"}

    def test_mix_one_all_from_b(self):
        source_a, source_b = skewed_sources()
        _, origins = generate_synthetic(source_a, source_b, 50, 1.0, (3, 6), seed=1)
        assert set(origins.values()) == {"B"}

    def test_binomial_bound(self):
        # n=1000, p=0.2: 3 sigma = 3*sqrt(.2*.8/1000) = 0.038
        source_a, source_b = skewed_sources()
        _, origins = generate_synthetic(source_a, source_b, 1000, 0.2, (4, 9), seed=123)
        fraction = sum(1 for v in origins.values() if v == "B") / 1000
        assert abs(fraction - 0.2) <= 0.04

    def test_deterministic(self):
        source_a, source_b = skewed_sources()
        c1, o1 = generate_synthetic(source_a, source_b, 30, 0.5, (2, 5), seed=7)
        c2, o2 = generate_synthetic(source_a, source_b, 30, 0.5, (2, 5), seed=7)
        assert c1 == c2 and o1 == o2

    def test_lengths_in_range(self):
        source_a, source_b = skewed_sources()
        corpus, _ = generate_synthetic(source_a, source_b, 40, 0.5, (3, 7), seed=2)
        assert all(3 <= len(seq) <= 7 for seq in corpus)

    def test_alphabet_mismatch(self):
        source_a, _ = skewed_sources(k=4)
        _, source_b = skewed_sources(k=5)
        with pytest.raises(ValueError, match="share an alphabet"):
            generate_synthetic(source_a, source_b, 10, 0.5, (2, 4), seed=0)

    @pytest.mark.parametrize("field,value,message", [
        ("n_utts", 2.0, "n_utts must be an integer, got 2.0"),
        ("n_utts", -1, "n_utts must be >= 0, got -1"),
        ("mix_b", True, "mix_b must be a real number, got True"),
        ("mix_b", "0.5", "mix_b must be a real number, got '0.5'"),
        ("mix_b", 1.5, "mix_b must be in [0, 1], got 1.5"),
        ("mix_b", math.nan, "mix_b must be in [0, 1], got nan"),
        ("len_range", (1.5, 3), "len_range end must be an integer, got 1.5"),
        ("len_range", (2, True), "len_range end must be an integer, got True"),
        ("len_range", (0, 3), "need 1 <= min <= max in len_range, got (0, 3)"),
        ("len_range", (4, 3), "need 1 <= min <= max in len_range, got (4, 3)"),
    ])
    def test_bad_argument_rejected(self, field, value, message):
        source_a, source_b = skewed_sources()
        arguments = {"n_utts": 10, "mix_b": 0.5, "len_range": (2, 4), field: value}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate_synthetic(source_a, source_b, seed=0, **arguments)


class TestGreedyBeatsRandomOnAverage:
    def test_mean_final_scd_over_30_seeds(self):
        source_a, source_b = skewed_sources(k=12, seed=0)
        config = SelectionConfig(budget_c=20, order=1, lam=0.9, alpha=0.5)
        greedy_finals = []
        random_finals = []
        for seed in range(30):
            universal, _ = generate_synthetic(source_a, source_b, 150, 0.25, (8, 20), seed=seed)
            query, _ = generate_synthetic(source_a, source_b, 15, 1.0, (8, 20), seed=500 + seed)
            cfg = SelectionConfig(
                budget_c=config.budget_c, order=config.order, lam=config.lam,
                alpha=config.alpha, seed=seed,
            )
            greedy_finals.append(select_greedy_scd(universal, query, cfg).final_scd.nats)
            random_finals.append(select_random(universal, cfg, query=query).final_scd.nats)
        assert np.mean(greedy_finals) < np.mean(random_finals)


def compensated_sum(values, start=0):
    """Neumaier's compensated sum, the way ``sum`` adds floats from Python 3.12."""
    total, compensation = float(start), 0.0
    for value in values:
        step = total + value
        compensation += (total - step) + value if abs(total) >= abs(value) else (value - step) + total
        total = step
    return total + compensation


class TestDurationBuckets:
    # A compensated total moves the second edge of these 38 durations in 3 buckets to 27.
    DURATIONS = [2.9, 2.4, 2.8, 1.3, 0.5, 2.6, 2.2, 4.3, 1.0, 4.6, 1.0, 0.7, 5.5, 5.6, 2.0, 4.0, 1.3, 0.4, 1.4,
                 5.0, 4.9, 5.8, 5.1, 5.0, 3.4, 0.1, 4.4, 2.8, 4.9, 3.5, 2.1, 5.3, 3.5, 3.0, 1.6, 0.5, 0.7, 5.6]

    def test_edges_do_not_depend_on_the_python_sum(self):
        pool = make_corpus([[0]] * len(self.DURATIONS), 2, durations=self.DURATIONS)
        rows = np.arange(len(self.DURATIONS))
        assert compensated_sum(self.DURATIONS) != list(itertools.accumulate(self.DURATIONS))[-1]
        expected = [(0, 15), (15, 26), (26, 38)]
        assert selection._duration_buckets(pool, rows, 3) == expected
        with mock.patch.object(selection, "sum", compensated_sum, create=True):
            assert selection._duration_buckets(pool, rows, 3) == expected


class TestReport:
    def test_format_and_echo(self):
        rng = np.random.default_rng(55)
        universal, query = random_instance(rng, 6, k=3)
        config = SelectionConfig(budget_c=2, seed=3)
        result = select_greedy_scd(universal, query, config)
        text = format_report(result, extra_header={"tool": "unittest"})
        lines = text.splitlines()
        assert lines[0] == "#strategy=greedy-scd"
        assert lines[1].startswith("#config=")
        assert SelectionConfig.from_json(lines[1][len("#config=") :]) == config
        assert lines[2] == f"#final_scd_nats={result.final_scd.nats!r}"
        assert "#tool=unittest" in lines
        body = [line for line in lines if not line.startswith("#")]
        assert len(body) == 2
        rank, utt_id, nats = body[0].split("\t")
        assert rank == "1"
        assert utt_id == result.selected_ids[0]
        assert float(nats) == result.scd_trace[0]


class TestNonFiniteConfig:
    def test_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            SelectionConfig(budget_c=1, alpha=math.inf)
        with pytest.raises(ValueError, match="alpha"):
            SelectionConfig(budget_c=1, alpha=math.nan)
        with pytest.raises(ValueError, match="duration_budget_s"):
            SelectionConfig(duration_budget_s=math.nan)


class TestSecondsBudgetTotalIsOrderFree:
    """One seconds budget gets the same verdict from every strategy.

    Summed in file order (random, contrastive) this pool totals one ulp more
    than summed in length order (greedy), and two ulps more than the
    correctly rounded total.
    """

    DURATIONS = [
        9.3275180489861, 6.6698778603263, 6.3541334864103, 6.6960205751385, 4.0002928158119,
        1.7158685452017, 6.9933950617467, 5.2281889022815, 3.2921768800306, 4.8725182294861,
        8.505390509141, 8.9063916436062, 3.7201567703816, 5.6437684765678, 3.3968245196835,
        5.8487002717973, 3.5412010295642, 4.0245710047535,
    ]
    LENGTHS = [3, 8, 3, 2, 6, 5, 1, 1, 4, 7, 4, 7, 3, 2, 7, 8, 1, 1]

    def pool_and_query(self):
        seqs = [[i % 3] * n for i, n in enumerate(self.LENGTHS)]
        pool = make_corpus(seqs, 3, ids=[f"u{i:02d}" for i in range(18)], durations=self.DURATIONS)
        return pool, make_corpus([[0, 1, 2]], 3, ids=["q"])

    def run_all(self, budget):
        pool, query = self.pool_and_query()
        config = SelectionConfig(duration_budget_s=budget)
        outcomes = []
        for select in (
            lambda: select_greedy_scd(pool, query, config),
            lambda: select_random(pool, config, query=query),
            lambda: select_contrastive(pool, query, config),
        ):
            try:
                outcomes.append(len(select().selected_ids))
            except ValueError as exc:
                outcomes.append(str(exc))
        return outcomes

    def test_sums_differ_by_order(self):
        pool, _ = self.pool_and_query()
        file_order = sum(self.DURATIONS)
        length_order = sum(seq.duration_s for seq in sort_by_length(pool))
        assert file_order > length_order > math.fsum(self.DURATIONS)

    def test_every_order_sum_is_accepted_by_all(self):
        pool, _ = self.pool_and_query()
        for budget in (
            sum(self.DURATIONS),
            sum(seq.duration_s for seq in sort_by_length(pool)),
            math.fsum(self.DURATIONS),
        ):
            assert self.run_all(budget) == [18, 18, 18]

    def test_budget_beyond_rounding_rejected_by_all(self):
        total = math.fsum(self.DURATIONS)
        outcomes = self.run_all(total + 19 * math.ulp(total))
        assert all("exceeds corpus total" in str(outcome) for outcome in outcomes)


@pytest.mark.parametrize("select", [select_greedy_scd, select_contrastive])
@pytest.mark.parametrize(
    "budget", [{"budget_c": 3}, {"duration_budget_s": 4.0}], ids=["count", "seconds"]
)
def test_budget_beyond_the_pool_fails_before_counting(select, budget):
    pool = make_corpus([[0, 1, 1], [1, 0]], 2, durations=[1.0, 2.0])
    config = SelectionConfig(**budget)
    for query in (make_corpus([[0, 1]], 2, ids=["q"]), make_corpus([], 2)):
        with mock.patch.object(selection, "count_ngrams", wraps=selection.count_ngrams) as counted:
            with pytest.raises(ValueError, match="exceeds corpus"):
                select(pool, query, config)
        assert counted.call_count == 0


class TestSubsetScdReuse:
    """Greedy takes each pick's exact SCD as the base of the next bucket's
    fast scores, so it calls :func:`scd` once per selection, for the empty
    subset, and picks what a fresh ``scd`` per bucket picks."""

    @staticmethod
    def instance(tenths=False):
        # At this seed the seconds budget takes several passes at orders 1-3.
        rng = np.random.default_rng(5)
        seqs = [rng.integers(0, 4, size=rng.integers(2, 12)).tolist() for _ in range(40)]
        durations = [float(rng.integers(1, 6)) ** 2 for _ in range(40)]
        if tenths:
            # Tenths are no binary fractions, so their sums round: with half
            # the total as budget, the pass's bucket edges move if the total
            # is summed another way, such as numpy's pairwise np.sum.
            durations = [0.1 * (1 + i % 7) for i in range(40)]
        universal = make_corpus(seqs, 4, durations=durations)
        query = make_corpus([rng.integers(0, 4, size=9).tolist() for _ in range(3)], 4, ids=["q0", "q1", "q2"])
        return universal, query, sum(durations)

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("budget", ["count", "seconds", "tenths"])
    def test_one_scd_call_and_same_picks(self, order, budget):
        universal, query, total = self.instance(tenths=budget == "tenths")
        if budget == "count":
            config = SelectionConfig(budget_c=12, order=order, lam=0.7)
        else:
            fraction = 0.95 if budget == "seconds" else 0.5
            config = SelectionConfig(duration_budget_s=fraction * total, order=order, lam=0.7)
        calls = []
        passes = []
        real_scd, real_buckets = selection.scd, selection._duration_buckets
        ordered = sort_by_length(universal).sequences

        def duration_buckets(sorted_pool, rows, n_buckets):
            bounds = real_buckets(sorted_pool, rows, n_buckets)
            passes.append((bounds, list_duration_buckets([ordered[row] for row in rows.tolist()], n_buckets)))
            return bounds

        with mock.patch.object(selection, "scd", lambda *a: calls.append(1) or real_scd(*a)), \
                mock.patch.object(selection, "_duration_buckets", duration_buckets):
            result = select_greedy_scd(universal, query, config)
        assert len(calls) == 1
        if budget == "seconds":
            assert len(passes) > 1
        # Each pass's bucket edges are those of the sequence-list form.
        assert all(bounds == expected for bounds, expected in passes)

        pick = selection._pick_from_bucket

        def fresh_base(sorted_pool, rows, cand_stats, target, subset_nats):
            return pick(sorted_pool, rows, cand_stats, target, None)

        with mock.patch.object(selection, "_pick_from_bucket", fresh_base):
            fresh = select_greedy_scd(universal, query, config)
        assert result.selected_ids == fresh.selected_ids
        assert [x.hex() for x in result.scd_trace] == [x.hex() for x in fresh.scd_trace]

    def test_two_argument_score_computes_the_base(self):
        universal, query, _ = self.instance()
        config = SelectionConfig(budget_c=3, order=2)
        target = build_target_distribution(universal, query, config)
        subset = CandidateStats(2, 4, config.alpha)
        subset.add(universal.sequences[0].labels)
        base = scd(target, subset.distribution()).nats
        rows = np.arange(1, len(universal))
        fresh = selection._fast_scores(universal, rows, subset, target)
        assert fresh.tobytes() == selection._fast_scores(universal, rows, subset, target, base).tobytes()
