"""KL divergence between smoothed gram distributions.

The divergence of p from q is anchored on p. With P and Q the explicit
supports, f_p and f_q the floors, and M_P and A_P the mass and the sum of
p ln p over P alone, which p sums once (:attr:`Distribution.anchor`),

    SCD = A_P - sum_{P&Q} p ln q - (M_P - sum_{P&Q} p) ln f_q
          + sum_{Q-P} f_p ln(f_p / q) + (K**N - |P|Q|) f_p ln(f_p / f_q)

so a call looks q's codes up in p's and costs O(|Q| log |P|). The last term
covers the grams unseen in both operands.

Natural log throughout; values are in nats.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import Iterable

import numpy as np

from .corpus import LabelSequence
from .ngram import (
    _EMPTY_CODES,
    Distribution,
    GramCounts,
    check_alpha,
    check_gram_space,
    code_positions,
    decode_gram,
    merge_counts,
    sequence_gram_counts,
    smoothed_distribution,
    values_at,
)


class DivergenceUndefinedError(ValueError):
    """q assigns zero probability to a gram p gives positive mass (alpha=0 only)."""


@dataclass(frozen=True)
class ScdValue:
    """A divergence in nats plus a breakdown of its support.

    ``support_terms`` is the size of the union of the two explicit supports;
    ``implicit_mass`` is the summed contribution of grams unseen in both.
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
    index, shared = code_positions(p.codes, q.codes)
    q_only = q.explicit[~shared]
    if q.floor <= 0.0 or not np.all(q.explicit > 0.0):
        undefined = np.append(
            p.codes[(p.explicit > 0.0) & (q.lookup(p.codes) <= 0.0)],
            q.codes[~shared][(q_only <= 0.0) & (p.floor > 0.0)],
        )
        if undefined.shape[0]:
            gram = decode_gram(int(undefined.min()), p.alphabet_size, p.order)
            raise DivergenceUndefinedError(
                f"q has zero probability at gram {gram} where p is positive; "
                "divergence is undefined (use alpha > 0)"
            )

    p_shared, q_shared = p.explicit[index[shared]], q.explicit[shared]
    live = p_shared > 0.0
    mass, plogp = p.anchor
    nats = plogp - float(np.sum(p_shared[live] * np.log(q_shared[live])))
    if q.floor > 0.0:
        # Otherwise the check above found every positive p inside Q.
        nats -= (mass - float(np.sum(p_shared))) * math.log(q.floor)
    if p.floor > 0.0:
        nats += float(np.sum(p.floor * np.log(p.floor / q_only)))

    union = p.codes.shape[0] + q_only.shape[0]
    remaining = p.support_size - union
    implicit = 0.0
    if remaining > 0 and p.floor > 0.0:
        if q.floor <= 0.0:
            raise DivergenceUndefinedError(
                "q has zero floor probability on grams where p has positive floor; "
                "divergence is undefined (use alpha > 0)"
            )
        implicit = float(remaining) * p.floor * math.log(p.floor / q.floor)

    return ScdValue(nats=nats + implicit, support_terms=union, implicit_mass=implicit)


@dataclass(eq=False)
class CandidateStats:
    """Mutable gram counts for a growing candidate subset.

    Only its table and alpha are stored: ``counts`` is a :class:`GramCounts`
    like :attr:`NGramStats.counts`, empty at construction at the given integer
    order and alphabet size, and ``total`` is its sum. Each ``add`` replaces the
    table, never writes it in place, so instances may share it. One instance
    per worker: concurrent mutation is not synchronized here.
    """

    order: InitVar[int]
    alphabet_size: InitVar[int]
    alpha: float
    counts: GramCounts = field(init=False)

    def __post_init__(self, order: int, alphabet_size: int):
        self.alpha = check_alpha(self.alpha)
        check_gram_space(alphabet_size, order)
        self.counts = GramCounts(order, alphabet_size, _EMPTY_CODES, _EMPTY_CODES)

    @property
    def total(self) -> int:
        return int(self.counts.code_counts.sum())

    def add(self, labels: LabelSequence | Iterable[int]) -> None:
        """Fold one utterance's gram counts into the accumulator."""
        self.counts = _extended(self.counts, labels)

    def count_at(self, codes: np.ndarray) -> np.ndarray:
        """Subset count of each gram code in ``codes`` (zero where unseen)."""
        return values_at(self.counts.codes, self.counts.code_counts, codes, 0)

    def distribution(self) -> Distribution:
        return smoothed_distribution(self.counts, self.alpha)


def _extended(counts: GramCounts, labels: LabelSequence | Iterable[int]) -> GramCounts:
    """A new table: ``counts`` plus the gram counts of one more utterance."""
    added = sequence_gram_counts(labels, counts.order, counts.alphabet_size)
    merged = merge_counts(counts.codes, counts.code_counts, added.codes, added.code_counts)
    return GramCounts(counts.order, counts.alphabet_size, *merged)


def scd_incremental(
    base: CandidateStats,
    addition: LabelSequence | Iterable[int],
    query: Distribution,
) -> ScdValue:
    """Divergence of ``query`` from the counts of ``base`` with ``addition`` appended.

    ``base`` is left untouched, as its table is extended into a new one; the
    result is exactly what a from-scratch recount of the extended subset gives.
    """
    return scd(query, smoothed_distribution(_extended(base.counts, addition), base.alpha))
