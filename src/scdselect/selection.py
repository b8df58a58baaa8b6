"""Subset selection strategies over label corpora.

``select_greedy_scd`` is the bucketed greedy divergence search: from each
of C contiguous buckets of the length-sorted pool it picks the utterance
whose addition to the growing subset minimizes the divergence from the
interpolated target. ``select_random``, ``select_contrastive`` and
``select_oracle`` are the baselines and the exact reference; all report
their divergence trace against the same target, so results compare
directly. Greedy's fast scorer and the contrastive scores share one block
pass over the pool's grams (:func:`_block_sums`). Contrastive excludes an
utterance with no grams at the order and, at alpha=0, applies the
first-zero-gram rule of :func:`contrastive_scores`.

Candidates are rows of the corpus columns (``labels``, ``starts``,
``lengths``, ``durations``, ``ids``): a bucket is a run of row indices into
the length-sorted pool, and a pick's labels are a slice of the label column.
Selection builds no :class:`~scdselect.corpus.LabelSequence` views.

Every strategy is deterministic given its inputs and config.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import logging
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import (LabelCorpus, LabelSequence, header_text, integer_scalar, length_order, real_scalar,
                     sort_by_length, write_text_file)
from .divergence import CandidateStats, ScdValue, scd, scd_incremental
from .ngram import (
    Distribution,
    NGramStats,
    count_ngrams,
    decode_gram,
    group_limit,
    grouped_codes,
    interpolate,
    prune,
    run_starts,
)

logger = logging.getLogger(__name__)

STRATEGY_GREEDY = "greedy-scd"
STRATEGY_RANDOM = "random"
STRATEGY_CONTRASTIVE = "contrastive"
STRATEGY_ORACLE = "oracle"

# The fast scorer works through a bucket in blocks of about this many
# windows, which keeps its working arrays in cache.
_BLOCK_WINDOWS = 1 << 16

# The oracle enumerates every C-subset: at most this many utterances and this budget.
_ORACLE_MAX_UNIVERSE = 20
_ORACLE_MAX_BUDGET = 6


@dataclass(frozen=True)
class SelectionConfig:
    """Hyperparameters of one selection run.

    Exactly one of ``budget_c`` (utterance count) and ``duration_budget_s``
    (seconds) must be set. ``lam`` blends the query distribution with the
    pool distribution to keep a small query from being overfit; ``alpha`` is
    the add-alpha smoothing pseudo-count applied on every estimated
    distribution; ``prune_min_count`` drops rare grams from the pool/query
    models before the target is formed. Integer fields are stored as plain
    ints (see :func:`~scdselect.corpus.integer_scalar`) and the others as
    floats, so the config always serializes to JSON; bools are refused.
    ``budget_c`` and ``order`` must be >= 1, ``prune_min_count`` and
    ``seed`` >= 0, and ``duration_budget_s`` and ``alpha`` finite and >= 0.
    """

    budget_c: int | None = None
    duration_budget_s: float | None = None
    order: int = 1
    lam: float = 0.5
    alpha: float = 0.5
    prune_min_count: int = 0
    seed: int = 0

    def __post_init__(self):
        if (self.budget_c is None) == (self.duration_budget_s is None):
            raise ValueError("exactly one of budget_c and duration_budget_s must be set")
        budget = (("budget_c", integer_scalar, 1) if self.budget_c is not None
                  else ("duration_budget_s", real_scalar, 0))
        # random.Random seeds with abs(seed), so -5 would repeat the picks of 5.
        for name, rule, minimum in (budget, ("order", integer_scalar, 1), ("lam", real_scalar, None),
                                    ("alpha", real_scalar, 0), ("prune_min_count", integer_scalar, 0),
                                    ("seed", integer_scalar, 0)):
            object.__setattr__(self, name, rule(getattr(self, name), name, minimum))
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {self.lam}")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SelectionConfig":
        return cls(**json.loads(text))


@dataclass(frozen=True)
class SelectionResult:
    """Chosen ids in pick order, the divergence trace, and provenance."""

    selected_ids: tuple[str, ...]
    scd_trace: tuple[float, ...]
    final_scd: ScdValue | None
    strategy: str
    config_echo: SelectionConfig

    def __post_init__(self):
        if len(set(self.selected_ids)) != len(self.selected_ids):
            raise ValueError("selected ids must be unique")
        if self.scd_trace and self.final_scd is not None:
            if self.scd_trace[-1] != self.final_scd.nats:
                raise ValueError("trace must end at final_scd")


@dataclass(frozen=True)
class MarkovSource:
    """First-order Markov chain over the label alphabet, for synthetic corpora."""

    alphabet_size: int
    initial_probs: np.ndarray
    transition: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alphabet_size", integer_scalar(self.alphabet_size, "alphabet_size", 1))
        initial = np.asarray(self.initial_probs, dtype=np.float64).reshape(-1)
        transition = np.asarray(self.transition, dtype=np.float64)
        if initial.shape != (self.alphabet_size,):
            raise ValueError("initial_probs must have length K")
        if transition.shape != (self.alphabet_size, self.alphabet_size):
            raise ValueError("transition must be K x K")
        if initial.min() < 0 or transition.min() < 0:
            raise ValueError("probabilities must be non-negative")
        if abs(initial.sum() - 1.0) > 1e-9:
            raise ValueError("initial_probs must sum to 1")
        row_sums = transition.sum(axis=1)
        if np.max(np.abs(row_sums - 1.0)) > 1e-9:
            raise ValueError("transition rows must sum to 1")
        object.__setattr__(self, "initial_probs", initial)
        object.__setattr__(self, "transition", transition)

    def sample_sequence(self, length: int, rng: np.random.Generator) -> np.ndarray:
        cum_init = np.cumsum(self.initial_probs)
        cum_rows = np.cumsum(self.transition, axis=1)
        out = np.empty(length, dtype=np.int64)
        if length == 0:
            return out
        state = int(np.searchsorted(cum_init, rng.random(), side="right"))
        state = min(state, self.alphabet_size - 1)
        out[0] = state
        for t in range(1, length):
            state = int(np.searchsorted(cum_rows[state], rng.random(), side="right"))
            state = min(state, self.alphabet_size - 1)
            out[t] = state
        return out


def _component_stats(
    universal: LabelCorpus, query: LabelCorpus, config: SelectionConfig
) -> tuple[NGramStats, NGramStats]:
    """Pool and query models: each full corpus counted once at ``config.order``, then pruned."""
    if len(universal) == 0:
        raise ValueError("universal corpus is empty")
    if len(query) == 0:
        raise ValueError("query corpus is empty")
    if universal.alphabet_size != query.alphabet_size:
        raise ValueError(
            f"alphabet mismatch: universal K={universal.alphabet_size}, "
            f"query K={query.alphabet_size}"
        )
    stats_u = prune(count_ngrams(universal, config.order, config.alpha), config.prune_min_count)
    stats_q = prune(count_ngrams(query, config.order, config.alpha), config.prune_min_count)
    return stats_u, stats_q


def build_target_distribution(
    universal: LabelCorpus, query: LabelCorpus, config: SelectionConfig
) -> Distribution:
    """Interpolated target lam * P_query + (1 - lam) * P_pool of :func:`_component_stats`.

    The pool model is computed once, never on a shrinking remainder.
    """
    stats_u, stats_q = _component_stats(universal, query, config)
    return interpolate(stats_q, stats_u, config.lam)


def partition_buckets(n_items: int, n_buckets: int) -> list[tuple[int, int]]:
    """Split ``range(n_items)`` into contiguous buckets whose sizes differ by <= 1.

    The first ``n_items % n_buckets`` buckets take the extra element. Both
    arguments go through :func:`integer_scalar`.
    """
    n_items, n_buckets = integer_scalar(n_items, "n_items"), integer_scalar(n_buckets, "n_buckets")
    if not 1 <= n_buckets <= n_items:
        raise ValueError(f"need 1 <= n_buckets <= n_items, got {n_buckets}, {n_items}")
    base, extra = divmod(n_items, n_buckets)
    edges = [i * base + min(i, extra) for i in range(n_buckets + 1)]
    return list(zip(edges, edges[1:]))


def _row_labels(corpus: LabelCorpus, row: int) -> np.ndarray:
    """Labels of utterance ``row`` of ``corpus``, a view into its label column."""
    start = int(corpus.starts[row])
    return corpus.labels[start : start + int(corpus.lengths[row])]


def _fast_scores(pool: LabelCorpus, rows: np.ndarray, subset: CandidateStats, target: Distribution,
                 subset_nats: float | None = None) -> np.ndarray:
    """SCD(target, S + {u}) of the subset S plus each candidate u, the ``rows`` of ``pool``.

    Each score is a delta on the exact SCD of S:

        SCD(S + u) = SCD(S) - sum_{g in u} P_t(g) * log((c_S(g) + c_u(g) + alpha) / (c_S(g) + alpha))
                     + log1p(W_u / (T_S + alpha * K**N))

    with W_u and T_S the windows of u and S; the last term uses that the
    target's mass is 1. ``subset_nats`` is SCD(S); when None it is computed
    with :func:`scd`. At alpha=0 there is no fast estimate, as the empty
    subset has no finite divergence to start from: every candidate scores 0.
    """
    alpha = subset.alpha
    if alpha == 0:
        return np.zeros(rows.shape[0])

    def terms(codes, rows, added, weight, base):
        return weight * np.log((base + added + alpha) / (base + alpha))

    corrections, windows = _block_sums(
        pool.labels, pool.starts[rows], pool.lengths[rows], target, (target.lookup, subset.count_at), terms
    )
    if subset_nats is None:
        subset_nats = scd(target, subset.distribution()).nats
    return subset_nats - corrections + np.log1p(windows / (subset.total + alpha * float(target.support_size)))


def _block_sums(labels: np.ndarray, starts: np.ndarray, lengths: np.ndarray, model: Distribution,
                lookups, term):
    """Per-row sums of ``term`` over the grams of ``model``'s order, and window counts.

    Row ``i`` is ``labels[starts[i] : starts[i] + lengths[i]]``. Blocks of about
    ``_BLOCK_WINDOWS`` windows are gathered with one concatenation and tallied
    with one :func:`grouped_codes` call; each of ``lookups`` maps a block's
    distinct codes once. ``term(codes, rows, counts, *values)`` gets the
    entries, by code then row, with each lookup's values repeated per entry.
    """
    order, k = model.order, model.alphabet_size
    windows = np.maximum(lengths - order + 1, 0)
    sums = np.zeros(lengths.shape[0])
    per_block = max(1, _BLOCK_WINDOWS // max(1, int(windows.mean())))
    per_block = min(per_block, group_limit(k, order))
    for lo in range(0, lengths.shape[0], per_block):
        hi = min(lo + per_block, lengths.shape[0])
        block = np.concatenate([
            labels[start : start + length]
            for start, length in zip(starts[lo:hi].tolist(), lengths[lo:hi].tolist())
        ])
        codes, rows, counts = grouped_codes(block, lengths[lo:hi], order, k)
        runs = run_starts(codes)
        repeats = np.diff(runs, append=codes.shape[0])
        values = [np.repeat(lookup(codes[runs]), repeats) for lookup in lookups]
        sums[lo:hi] = np.bincount(rows, weights=term(codes, rows, counts, *values), minlength=hi - lo)
    return sums, windows


def _pick_from_bucket(
    pool: LabelCorpus,
    rows: np.ndarray,
    cand_stats: CandidateStats,
    target: Distribution,
    subset_nats: float | None,
) -> tuple[int, ScdValue]:
    """Index (within ``rows`` of ``pool``) of the SCD-minimizing addition and its exact SCD.

    ``subset_nats`` is the exact SCD of ``cand_stats``, or None to have
    :func:`_fast_scores` compute it. The first candidate wins ties. The fast
    scores' factorization can drift from the from-scratch value by a few
    ulp, enough to flip exact ties, so every candidate within a tie margin of
    the best fast score is re-scored, in bucket order, through the exact path
    before the winner is fixed; an exact score that is undefined raises
    :class:`DivergenceUndefinedError`.
    """
    scores = _fast_scores(pool, rows, cand_stats, target, subset_nats)
    cutoff = float(scores.min())
    cutoff += 1e-9 * (1.0 + abs(cutoff))
    best_index = 0
    best: ScdValue | None = None
    for position in np.flatnonzero(scores <= cutoff).tolist():
        value = scd_incremental(cand_stats, _row_labels(pool, rows[position]), target)
        if best is None or value.nats < best.nats:
            best = value
            best_index = position
    return best_index, best


def select_greedy_scd(
    universal: LabelCorpus, query: LabelCorpus, config: SelectionConfig
) -> SelectionResult:
    """Bucketed greedy divergence search over the length-sorted pool.

    The search makes passes over the utterances not yet picked. A pass splits
    them into contiguous buckets and, bucket by bucket, picks the one
    utterance that minimizes the divergence, until the budget is met; so a
    pass picks at most once from each bucket. A count budget C is one pass
    over C buckets whose sizes differ by at most one. A seconds budget makes
    about (seconds left / mean pool duration) buckets of equal cumulative
    duration per pass and stops at the first pick that reaches the budget:
    dropping the last pick leaves the total below the budget. Passes repeat
    until the budget is reached or the pool is used up (a budget equal to the
    pool total can sum one ulp short of it and take the whole pool).

    At alpha=0 the divergence is defined only while the subset covers the
    target's support, and the fast scorer has no estimate, so every candidate
    is rescored exactly (see :func:`_fast_scores`). So every candidate of the
    first bucket must cover the support on its own, or the run raises
    :class:`DivergenceUndefinedError`; later picks add to a covering subset.
    """
    mean_duration = _check_budget(universal, config) / len(universal)
    target = build_target_distribution(universal, query, config)
    pool = sort_by_length(universal)

    cand_stats = CandidateStats(config.order, universal.alphabet_size, config.alpha)
    picks: list[int] = []
    trace: list[float] = []
    final: ScdValue | None = None
    seconds = 0.0
    remaining = np.arange(len(pool))
    while remaining.shape[0] and not _budget_met(config, len(picks), seconds):
        if config.budget_c is not None:
            bounds = partition_buckets(remaining.shape[0], config.budget_c)
        else:
            want = max(1, round((config.duration_budget_s - seconds) / mean_duration))
            bounds = _duration_buckets(pool, remaining, min(want, remaining.shape[0]))
        keep = np.ones(remaining.shape[0], dtype=bool)
        for start, end in bounds:
            if _budget_met(config, len(picks), seconds):
                break
            # The winner's exact SCD is that of the subset it joins: adding it
            # merges the same counts that scd_incremental merged.
            base = None if final is None else final.nats
            chosen, final = _pick_from_bucket(pool, remaining[start:end], cand_stats, target, base)
            row = int(remaining[start + chosen])
            cand_stats.add(_row_labels(pool, row))
            picks.append(row)
            trace.append(final.nats)
            seconds += float(pool.durations[row])
            keep[start + chosen] = False
        remaining = remaining[keep]

    return SelectionResult(
        selected_ids=tuple(pool.ids[row] for row in picks),
        scd_trace=tuple(trace),
        final_scd=final,
        strategy=STRATEGY_GREEDY,
        config_echo=config,
    )


def _check_budget(pool: LabelCorpus, config: SelectionConfig) -> float:
    """Raise ``ValueError`` unless ``pool`` can fill the budget; return its total seconds.

    The pool may not be empty, and a count budget may not exceed its size. A
    seconds budget needs a positive duration on every utterance and may not
    exceed the pool total, the correctly rounded sum (``math.fsum``), so the
    verdict does not depend on the pool's order, which differs between
    strategies. A budget within ``len(pool)`` ulps above it passes, because
    summing the pool in some order can land that far above the total.
    """
    if len(pool) == 0:
        raise ValueError("universal corpus is empty")
    total = math.fsum(pool.durations.tolist())
    if config.budget_c is not None:
        if config.budget_c > len(pool):
            raise ValueError(f"budget {config.budget_c} exceeds corpus size {len(pool)}")
        return total
    missing = [utt_id for utt_id, duration in zip(pool.ids, pool.durations.tolist()) if duration <= 0]
    if missing:
        raise ValueError(
            f"duration budget requires positive durations; missing for "
            f"{missing[:5]}{'...' if len(missing) > 5 else ''}"
        )
    if config.duration_budget_s - total > len(pool) * math.ulp(total):
        raise ValueError(
            f"duration budget {config.duration_budget_s} s exceeds corpus total {total} s"
        )
    return total


def _budget_met(config: SelectionConfig, picks: int, seconds: float) -> bool:
    """Whether ``picks`` utterances lasting ``seconds`` in total fill the budget."""
    if config.budget_c is not None:
        return picks >= config.budget_c
    return seconds >= config.duration_budget_s


def _take_until_met(corpus: LabelCorpus, rows: list[int], config: SelectionConfig) -> list[int]:
    """The shortest prefix of ``rows`` of ``corpus`` that fills the budget, or all of them."""
    seconds = 0.0
    for taken, row in enumerate(rows):
        if _budget_met(config, taken, seconds):
            return rows[:taken]
        seconds += float(corpus.durations[row])
    return rows


def _duration_buckets(pool: LabelCorpus, rows: np.ndarray, n_buckets: int) -> list[tuple[int, int]]:
    """Contiguous runs of ``rows`` (not empty) of ``pool`` spanning roughly equal cumulative duration.

    The edges compare rounded running sums of the seconds with thresholds, so
    a sum in another order (numpy's pairwise ``np.sum``) or a compensated one
    (``sum`` of floats from Python 3.12) can move them. Every sum, the total
    included, is one left-to-right float accumulation.
    """
    sums = list(itertools.accumulate(pool.durations[rows].tolist()))
    span = sums[-1] / n_buckets
    bounds: list[tuple[int, int]] = []
    start = 0
    threshold = span
    for index, cum in enumerate(sums):
        is_last = index == len(sums) - 1
        if (cum >= threshold and len(bounds) < n_buckets - 1) or is_last:
            bounds.append((start, index + 1))
            start = index + 1
            threshold += span
    return bounds


def _traced_result(
    corpus: LabelCorpus,
    rows: Sequence[int],
    target: Distribution | None,
    config: SelectionConfig,
    strategy: str,
) -> SelectionResult:
    """Result for picking ``rows`` of ``corpus``, with the divergence from ``target`` after each pick.

    Without a target the trace is empty and ``final_scd`` is None.
    """
    trace: list[float] = []
    final: ScdValue | None = None
    if target is not None:
        cand_stats = CandidateStats(config.order, target.alphabet_size, config.alpha)
        for row in rows:
            cand_stats.add(_row_labels(corpus, row))
            final = scd(target, cand_stats.distribution())
            trace.append(final.nats)
    return SelectionResult(
        selected_ids=tuple(corpus.ids[row] for row in rows),
        scd_trace=tuple(trace),
        final_scd=final,
        strategy=strategy,
        config_echo=config,
    )


def select_random(
    universal: LabelCorpus,
    config: SelectionConfig,
    query: LabelCorpus | None = None,
) -> SelectionResult:
    """Seeded shuffle of the pool, then take from the front until the budget is met.

    ``query`` is only used to report the divergence trace; the picks never
    depend on it. Without a query the trace fields are None/empty.
    """
    rng = random.Random(config.seed)
    shuffled = list(range(len(universal)))
    rng.shuffle(shuffled)
    _check_budget(universal, config)
    picked = _take_until_met(universal, shuffled, config)
    target = None if query is None else build_target_distribution(universal, query, config)
    return _traced_result(universal, picked, target, config, STRATEGY_RANDOM)


def contrastive_scores(
    universal: LabelCorpus, query: LabelCorpus, config: SelectionConfig
) -> dict[str, float]:
    """Per-utterance mean log-likelihood gap between query and pool models.

    score(u) = mean over u's gram occurrences of log P_query(g) - log P_pool(g).
    Utterances with no grams at this order score -inf. At alpha=0 an
    utterance's first gram, in code order, that either model gives zero
    probability decides: -inf if the query's is zero, else a ValueError naming it.
    """
    scores = _scores_from_stats(universal, *_component_stats(universal, query, config))
    return dict(zip(universal.ids, scores.tolist()))


def _scores_from_stats(universal: LabelCorpus, stats_u: NGramStats, stats_q: NGramStats) -> np.ndarray:
    """:func:`contrastive_scores` from already counted pool and query models, in file order."""
    dist_u, dist_q = stats_u.distribution(), stats_q.distribution()

    def gaps(codes, rows, counts, pq, pu):
        # Entries run by code, so a row's first undefined entry holds its
        # smallest undefined gram; np.unique lists the rows in file order.
        undefined = np.flatnonzero((pq <= 0.0) | (pu <= 0.0))
        first = undefined[np.unique(rows[undefined], return_index=True)[1]]
        pool_zero = first[pu[first] <= 0.0]
        if pool_zero.shape[0]:
            gram = decode_gram(int(codes[pool_zero[0]]), dist_u.alphabet_size, dist_u.order)
            raise ValueError(
                f"pool probability is zero at gram {gram}; contrastive score undefined (use alpha > 0)"
            )
        terms = counts * (np.log(np.where(pq > 0.0, pq, 1.0)) - np.log(np.where(pu > 0.0, pu, 1.0)))
        terms[undefined] = -math.inf
        return terms

    sums, windows = _block_sums(
        universal.labels, universal.starts, universal.lengths, dist_u, (dist_q.lookup, dist_u.lookup), gaps
    )
    return np.divide(sums, windows, out=np.full(len(windows), -math.inf), where=windows > 0)


def select_contrastive(
    universal: LabelCorpus, query: LabelCorpus, config: SelectionConfig
) -> SelectionResult:
    """Top-scoring utterances by query-vs-pool log-likelihood gap; no bucketing.

    Ties keep the length-sorted order of :func:`~scdselect.corpus.sort_by_length`.
    """
    _check_budget(universal, config)
    by_length = length_order(universal)
    stats_u, stats_q = _component_stats(universal, query, config)
    scores = _scores_from_stats(universal, stats_u, stats_q)[by_length]

    excluded = scores == -math.inf
    gramless = int(np.count_nonzero(excluded & (universal.lengths[by_length] < config.order)))
    n_excluded = int(np.count_nonzero(excluded))
    causes = (
        f"{gramless} have no grams at order {config.order}, "
        f"{n_excluded - gramless} hold a gram of zero query probability"
    )
    if n_excluded:
        logger.warning("contrastive: %d utterances are excluded: %s", n_excluded, causes)
    eligible = np.flatnonzero(~excluded)
    # A stable sort on the negated score keeps length order as tie-break.
    ranked = by_length[eligible[np.argsort(-scores[eligible], kind="stable")]].tolist()

    # A seconds budget takes what the ranked utterances hold; a count budget
    # needs that many of them.
    if not _budget_met(config, len(ranked), math.inf):
        raise ValueError(
            f"budget {config.budget_c} exceeds the {len(ranked)} scored utterances "
            f"({n_excluded} excluded: {causes})"
        )
    picked = _take_until_met(universal, ranked, config)
    target = interpolate(stats_q, stats_u, config.lam)
    return _traced_result(universal, picked, target, config, STRATEGY_CONTRASTIVE)


def select_oracle(universal: LabelCorpus, query: LabelCorpus, config: SelectionConfig) -> SelectionResult:
    """Exhaustive search over all C-subsets; the exact reference minimizer.

    Guarded against combinatorial blowup; count budgets only. Ties go to the
    lexicographically smallest id list.
    """
    if config.budget_c is None:
        raise ValueError("oracle supports count budgets only")
    if len(universal) > _ORACLE_MAX_UNIVERSE or config.budget_c > _ORACLE_MAX_BUDGET:
        raise ValueError(
            f"oracle limited to |U| <= {_ORACLE_MAX_UNIVERSE} and C <= {_ORACLE_MAX_BUDGET}; "
            f"got |U|={len(universal)}, C={config.budget_c}"
        )
    _check_budget(universal, config)
    target = build_target_distribution(universal, query, config)
    ordered = sort_by_length(universal)

    best_ids: tuple[str, ...] | None = None
    best_value: ScdValue | None = None
    for combo in itertools.combinations(range(len(ordered)), config.budget_c):
        stats = CandidateStats(config.order, universal.alphabet_size, config.alpha)
        for row in combo:
            stats.add(_row_labels(ordered, row))
        value = scd(target, stats.distribution())
        ids = tuple(sorted(ordered.ids[row] for row in combo))
        if (
            best_value is None
            or value.nats < best_value.nats
            or (value.nats == best_value.nats and ids < best_ids)
        ):
            best_value = value
            best_ids = ids

    row_of = {utt_id: row for row, utt_id in enumerate(ordered.ids)}
    return _traced_result(ordered, [row_of[i] for i in best_ids], target, config, STRATEGY_ORACLE)


def generate_synthetic(
    source_a: MarkovSource,
    source_b: MarkovSource,
    n_utts: int,
    mix_b: float,
    len_range: tuple[int, int],
    seed: int,
) -> tuple[LabelCorpus, dict[str, str]]:
    """Mixture corpus: each utterance drawn from B with probability ``mix_b``, else A.

    Returns the corpus and a separate id -> origin ("A" | "B") map; the
    origin never appears inside the corpus itself, so selection cannot see it.
    ``n_utts`` (>= 0) and the ``len_range`` ends go through
    :func:`integer_scalar`, ``mix_b`` through :func:`real_scalar`.
    """
    if source_a.alphabet_size != source_b.alphabet_size:
        raise ValueError("sources must share an alphabet")
    n_utts = integer_scalar(n_utts, "n_utts", 0)
    mix_b = real_scalar(mix_b, "mix_b")
    if not 0.0 <= mix_b <= 1.0:
        raise ValueError(f"mix_b must be in [0, 1], got {mix_b}")
    lo, hi = (integer_scalar(end, "len_range end") for end in len_range)
    if not 1 <= lo <= hi:
        raise ValueError(f"need 1 <= min <= max in len_range, got {len_range}")

    rng = np.random.default_rng(seed)
    sequences: list[LabelSequence] = []
    origins: dict[str, str] = {}
    width = max(5, len(str(max(n_utts - 1, 0))))
    for i in range(n_utts):
        from_b = rng.random() < mix_b
        source = source_b if from_b else source_a
        length = int(rng.integers(lo, hi + 1))
        labels = source.sample_sequence(length, rng)
        utt_id = f"u{i:0{width}d}"
        sequences.append(LabelSequence(id=utt_id, duration_s=0.0, labels=labels))
        origins[utt_id] = "B" if from_b else "A"

    return LabelCorpus(alphabet_size=source_a.alphabet_size, sequences=sequences), origins


def format_report(result: SelectionResult, extra_header: dict[str, str] | None = None) -> str:
    """Selection report: ``#`` lines (:func:`corpus.header_text`), then one ``rank\\tid\\tscd`` row per pick."""
    header = [
        f"strategy={result.strategy}",
        f"config={result.config_echo.to_json()}",
        f"final_scd_nats={result.final_scd.nats!r}" if result.final_scd is not None else "final_scd_nats=",
        f"num_selected={len(result.selected_ids)}",
        *(f"{key}={value}" for key, value in (extra_header or {}).items()),
    ]
    return header_text(header) + "".join(
        f"{rank}\t{utt_id}\t{repr(result.scd_trace[rank - 1]) if result.scd_trace else ''}\n"
        for rank, utt_id in enumerate(result.selected_ids, start=1)
    )


def save_report(result: SelectionResult, path: str | Path, extra_header: dict[str, str] | None = None) -> None:
    write_text_file(path, (), [format_report(result, extra_header)])
