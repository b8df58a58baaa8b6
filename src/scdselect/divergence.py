"""KL divergence between smoothed gram distributions.

The divergence of p from q is summed explicitly over the union of the two
sparse supports (p's sorted codes, looked up in q's by binary search, then
q's codes that p lacks); the remaining (K**N - |union|) grams, unseen in both
operands, all share the constant floor probabilities of the two sides and
contribute one closed-form term. The result is therefore a pure function of
the two distributions, independent of how their supports are represented.

Natural log throughout; values are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .corpus import LabelSequence
from .ngram import (
    Distribution,
    GramCounts,
    check_encodable,
    code_positions,
    decode_gram,
    grouped_codes,
    merge_counts,
    smoothed_distribution,
    values_at,
)


class DivergenceUndefinedError(ValueError):
    """q assigns zero probability to a gram p gives positive mass (alpha=0 only)."""


@dataclass(frozen=True)
class ScdValue:
    """A divergence in nats plus a breakdown of how it was summed.

    ``support_terms`` counts the explicitly summed grams; ``implicit_mass``
    is the aggregated contribution of grams unseen in both operands.
    """

    nats: float
    support_terms: int
    implicit_mass: float

    def __float__(self) -> float:
        return self.nats


def scd(p: Distribution, q: Distribution) -> ScdValue:
    """Divergence of p from q: sum over all K**N grams of p(l)*ln(p(l)/q(l))."""
    if p.order != q.order:
        raise ValueError(f"order mismatch: {p.order} vs {q.order}")
    if p.alphabet_size != q.alphabet_size:
        raise ValueError(f"alphabet mismatch: {p.alphabet_size} vs {q.alphabet_size}")

    # The union of the supports: p's codes, then q's codes that p lacks.
    q_only = ~code_positions(p.codes, q.codes)[1]
    codes = np.concatenate((p.codes, q.codes[q_only]))
    pp = np.concatenate((p.explicit, np.full(codes.shape[0] - p.codes.shape[0], p.floor)))
    qq = np.concatenate((q.lookup(p.codes), q.explicit[q_only]))

    live = pp > 0.0
    undefined = live & (qq <= 0.0)
    if undefined.any():
        gram = decode_gram(int(codes[undefined].min()), p.alphabet_size, p.order)
        raise DivergenceUndefinedError(
            f"q has zero probability at gram {gram} where p is positive; "
            "divergence is undefined (use alpha > 0)"
        )
    pp, qq = pp[live], qq[live]
    explicit_sum = float(np.sum(pp * np.log(pp / qq)))

    remaining = p.support_size - codes.shape[0]
    implicit = 0.0
    if remaining > 0 and p.floor > 0.0:
        if q.floor <= 0.0:
            raise DivergenceUndefinedError(
                "q has zero floor probability on grams where p has positive floor; "
                "divergence is undefined (use alpha > 0)"
            )
        implicit = float(remaining) * p.floor * math.log(p.floor / q.floor)

    return ScdValue(
        nats=explicit_sum + implicit,
        support_terms=int(codes.shape[0]),
        implicit_mass=implicit,
    )


def _no_codes() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


@dataclass(eq=False)
class CandidateStats:
    """Mutable gram counts for a growing candidate subset.

    ``codes`` (sorted gram codes) and ``code_counts`` are replaced, never
    written in place, so copies may share them. One instance per worker:
    concurrent mutation is not synchronized here.
    """

    order: int
    alphabet_size: int
    alpha: float
    codes: np.ndarray = field(default_factory=_no_codes)
    code_counts: np.ndarray = field(default_factory=_no_codes)
    total: int = 0

    def __post_init__(self):
        check_encodable(self.alphabet_size, self.order)

    @property
    def counts(self) -> GramCounts:
        return GramCounts(self.order, self.alphabet_size, self.codes, self.code_counts)

    def add(self, labels: LabelSequence | Iterable[int]) -> None:
        """Fold one utterance's gram counts into the accumulator."""
        labels = _label_array(labels)
        if labels.size and (labels.min() < 0 or labels.max() >= self.alphabet_size):
            raise ValueError(f"labels outside [0, {self.alphabet_size})")
        codes, _, counts = grouped_codes([labels], self.order, self.alphabet_size)
        self.codes, self.code_counts = merge_counts(self.codes, self.code_counts, codes, counts)
        self.total += int(counts.sum())

    def count_at(self, codes: np.ndarray) -> np.ndarray:
        """Subset count of each gram code in ``codes`` (zero where unseen)."""
        return values_at(self.codes, self.code_counts, codes, 0)

    def copy(self) -> "CandidateStats":
        return CandidateStats(
            order=self.order,
            alphabet_size=self.alphabet_size,
            alpha=self.alpha,
            codes=self.codes,
            code_counts=self.code_counts,
            total=self.total,
        )

    def distribution(self) -> Distribution:
        return smoothed_distribution(
            self.order, self.alphabet_size, self.codes, self.code_counts, self.total, self.alpha
        )


def _label_array(labels: LabelSequence | Iterable[int]) -> np.ndarray:
    if isinstance(labels, LabelSequence):
        return labels.labels
    return np.asarray(labels, dtype=np.int64).reshape(-1)


def scd_incremental(
    base: CandidateStats,
    addition: LabelSequence | Iterable[int],
    query: Distribution,
) -> ScdValue:
    """Divergence of ``query`` from the counts of ``base`` with ``addition`` appended.

    ``base`` is left untouched; the result is exactly what a from-scratch
    recount of the extended subset would give.
    """
    merged = base.copy()
    merged.add(addition)
    return scd(query, merged.distribution())
