"""Order-N gram statistics over label corpora, with add-alpha smoothing.

Counts are per-utterance sliding windows: a gram never spans two utterances
and no padding symbols are invented, so a sequence shorter than N contributes
nothing. Storage is sparse: a gram (l_1, ..., l_N) is packed into the int64
mixed-radix code ``l_1 * K**(N-1) + ... + l_N``, so ascending code order is
lexicographic gram order, and a support is a sorted code array with an
aligned count or probability array. The full support size K**N enters only
the smoothing denominator, as an exact Python integer; it must not exceed
2**62, so every code fits in int64.

:func:`code_positions` is the one search of a sorted code table; lookups and
the union layout that :func:`merge_counts` and :func:`interpolate` share are
built on it.

The smoothed probability of any gram l, seen or not, is

    P(l) = (cnt(l) + alpha) / (total + alpha * K**N)

which sums to exactly 1 over the full support and is strictly positive for
alpha > 0.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .corpus import LabelCorpus, LabelSequence, integer_labels, integer_scalar, real_scalar

Gram = tuple[int, ...]

# Above this support size, dense enumeration helpers refuse to materialize,
# and tallies sort their keys instead of counting into a dense vector.
DENSE_SUPPORT_LIMIT = 4_000_000

# Gram codes are int64, so K**order must stay at or below this.
_ENCODE_LIMIT = 2**62

# Labels per batch when counting a corpus.
_COUNT_BATCH = 1 << 16

# Grams formatted per write of a stats dump.
_DUMP_ROWS = 1 << 16

# A sparse tally buffers this many keys per entry of its running table
# (24 bytes per 16-byte entry) before it sorts them and merges them in.
_FOLD_RATIO = 3

# Tally densely while the count vector is at most this many times the keys.
_DENSE_FILL = 4

_EMPTY_CODES = np.empty(0, dtype=np.int64)
_EMPTY_CODES.flags.writeable = False


def check_gram_space(alphabet_size: int, order: int) -> None:
    """Raise ValueError unless order and K are integers >= 1 and K**order grams fit in int64 codes."""
    order = integer_scalar(order, "order", 1)
    alphabet_size = integer_scalar(alphabet_size, "alphabet_size", 1)
    if alphabet_size**order > _ENCODE_LIMIT:
        raise ValueError(
            f"alphabet size K={alphabet_size} at order {order} gives "
            f"{alphabet_size}**{order} grams, more than int64 gram codes can hold "
            "(limit 2**62); use a lower order or a smaller alphabet"
        )


def check_alpha(alpha: float) -> float:
    """The smoothing alpha as a plain float: :func:`real_scalar` at minimum 0, so finite and >= 0."""
    return real_scalar(alpha, "smoothing alpha", 0)


def _radix(alphabet_size: int, order: int) -> np.ndarray:
    return alphabet_size ** np.arange(order - 1, -1, -1, dtype=np.int64)


def decode_codes(codes: np.ndarray, alphabet_size: int, order: int) -> np.ndarray:
    """(n, order) label array of the grams behind ``codes``."""
    return np.asarray(codes, dtype=np.int64)[:, None] // _radix(alphabet_size, order) % alphabet_size


def decode_gram(code: int, alphabet_size: int, order: int) -> Gram:
    """The gram tuple behind one code."""
    return tuple(decode_codes(np.array([code]), alphabet_size, order)[0].tolist())


def _gram_code(gram: Iterable[int], alphabet_size: int, order: int) -> int:
    """Code of one gram; its elements follow the label rule of :func:`integer_labels`."""
    gram = tuple(gram)
    labels = integer_labels(gram)
    if np.ndim(gram) != 1 or len(gram) != order:
        raise ValueError(f"gram {gram} has wrong order (expected {order})")
    if labels.min() < 0 or labels.max() >= alphabet_size:
        raise ValueError(f"gram {gram} outside alphabet [0, {alphabet_size})")
    return int(np.dot(labels, _radix(alphabet_size, order)))


def _window_codes(labels: np.ndarray, order: int, alphabet_size: int) -> np.ndarray:
    """Encode every length-``order`` window of one sequence as an int64 code."""
    n_windows = labels.shape[0] - order + 1
    if n_windows <= 0:
        return _EMPTY_CODES
    codes = labels[:n_windows].astype(np.int64)
    for j in range(1, order):
        codes *= alphabet_size
        codes += labels[j : j + n_windows]
    return codes


def run_starts(sorted_codes: np.ndarray) -> np.ndarray:
    """Start index of each run of equal values in a sorted array."""
    first = np.ones(sorted_codes.shape[0], dtype=bool)
    np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=first[1:])
    return np.flatnonzero(first)


def code_positions(sorted_codes: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """How many of ``sorted_codes`` lie below each of ``codes``, and whether it is there.

    The count is searchsorted's left insertion point, unclipped: the index of
    a code that is there, and the place an absent one would be inserted.
    """
    if sorted_codes.shape[0] == 0:
        return np.zeros(codes.shape, dtype=np.intp), np.zeros(codes.shape, dtype=bool)
    index = np.searchsorted(sorted_codes, codes)
    return index, sorted_codes.take(index, mode="clip") == codes


def _union(codes_a: np.ndarray, codes_b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted union of the sorted codes of a and the sorted, distinct codes of b.

    Returns ``(codes, from_a, slot_b)``: ``from_a`` marks the slots that hold
    a's codes, in order, and b's ``j``-th code sits at ``slot_b[j]``. Each
    code of b is placed in a, so this is O(|b| log |a|) and one pass over a.
    """
    slot_b, found = code_positions(codes_a, codes_b)
    new = ~found
    # b is sorted, so the new codes inserted before slot_b[j] in a are the
    # new ones among b[:j]: in the union, b[j] (if new) or the entry of a it
    # matches sits that many places further right.
    slot_b += np.cumsum(new)
    slot_b -= new
    from_a = np.ones(codes_a.shape[0] + int(np.count_nonzero(new)), dtype=bool)
    from_a[slot_b[new]] = False
    codes = np.empty(from_a.shape[0], dtype=codes_a.dtype)
    codes[from_a] = codes_a
    codes[slot_b] = codes_b
    return codes, from_a, slot_b


def merge_counts(
    codes_a: np.ndarray, counts_a: np.ndarray, codes_b: np.ndarray, counts_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sum of two sorted code/count tables, as one new sorted table.

    b's codes must be distinct. The tables are laid out by :func:`_union`, so
    a small table folds cheaply into a large one; either may be empty.
    """
    codes, from_a, slot_b = _union(codes_a, codes_b)
    counts = np.zeros(codes.shape[0], dtype=counts_a.dtype)
    counts[from_a] = counts_a
    counts[slot_b] += counts_b
    return codes, counts


def values_at(
    sorted_codes: np.ndarray, values: np.ndarray, codes: np.ndarray, fill
) -> np.ndarray:
    """``values[i]`` wherever ``codes`` holds ``sorted_codes[i]``, ``fill`` elsewhere."""
    index, found = code_positions(sorted_codes, codes)
    out = np.full(codes.shape, fill, dtype=values.dtype)
    out[found] = values[index[found]]
    return out


def _tally(chunks: Iterable[np.ndarray], n_keys: int, space: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values, ascending, and their counts over chunks of int64 keys.

    ``n_keys`` is the total chunk length and every key lies in ``[0, space)``.
    Keys are tallied in a dense count vector when it is small next to the
    keys. Otherwise they are folded into a running sorted table: chunks are
    copied into a buffer of ``_FOLD_RATIO`` keys per table entry, and a full
    buffer is sorted, run-length counted and merged into the table. So memory
    follows the table, not ``n_keys``, and the sorts add up to about one
    sort of all keys.
    """
    if space <= min(DENSE_SUPPORT_LIMIT, _DENSE_FILL * n_keys):
        dense = np.zeros(space, dtype=np.int64)
        for chunk in chunks:
            dense += np.bincount(chunk, minlength=space)
        keys = np.flatnonzero(dense).astype(np.int64, copy=False)
        return keys, dense[keys]
    codes = counts = _EMPTY_CODES
    buffer, held = np.empty(0, np.int64), 0
    for chunk in chunks:
        if held + chunk.shape[0] > buffer.shape[0]:
            if held:
                batch = _run_lengths(buffer[:held])
                del buffer  # before the merge allocates the new table
                codes, counts = merge_counts(codes, counts, *batch)
            size = max(min(_FOLD_RATIO * codes.shape[0], n_keys), chunk.shape[0])
            buffer, held = np.empty(size, np.int64), 0
        buffer[held : held + chunk.shape[0]] = chunk
        held += chunk.shape[0]
        n_keys -= chunk.shape[0]
    batch = _run_lengths(buffer[:held])
    del buffer
    return merge_counts(codes, counts, *batch)


def _run_lengths(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of ``keys``, ascending, and how often each occurs; sorts ``keys`` in place."""
    keys.sort()
    starts = run_starts(keys)
    counts = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1:] = keys.shape[0] - starts[-1:]
    return keys[starts], counts


def _inside_windows(
    labels: np.ndarray, lengths: np.ndarray, order: int, alphabet_size: int
) -> np.ndarray:
    """Window codes of consecutive sequences packed in ``labels``; no window spans two."""
    flat = _window_codes(labels, order, alphabet_size)
    if order == 1:
        return flat
    # A window that starts in the last order - 1 labels of a sequence runs past its end.
    ends = np.cumsum(lengths)
    inside = np.ones(labels.shape[0], dtype=bool)
    for j in range(1, order):
        crossing = ends - j
        inside[crossing[crossing >= ends - lengths]] = False
    return flat[inside[: flat.shape[0]]]


def _window_batches(
    labels: np.ndarray, lengths: np.ndarray, order: int, alphabet_size: int
) -> Iterator[np.ndarray]:
    """:func:`_inside_windows` over runs of packed sequences of about ``_COUNT_BATCH`` labels."""
    first = offset = size = 0
    for end, length in enumerate(lengths.tolist(), start=1):
        size += length
        if size >= _COUNT_BATCH or end == lengths.shape[0]:
            yield _inside_windows(labels[offset : offset + size], lengths[first:end], order, alphabet_size)
            first, offset, size = end, offset + size, 0


def grouped_codes(
    labels: np.ndarray, lengths: np.ndarray, order: int, alphabet_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gram counts of consecutive label sequences packed in ``labels``, tallied in one pass.

    Row ``r`` is the next ``lengths[r]`` labels. Returns ``(codes, rows,
    counts)``: ``counts[i]`` windows of row ``rows[i]`` have code
    ``codes[i]``. Entries are ordered by code, then by row, and each (code,
    row) pair appears once. ``len(lengths) * K**order`` must not exceed
    2**62 (see :func:`group_limit`).
    """
    n_rows = lengths.shape[0]
    if n_rows > group_limit(alphabet_size, order):
        raise ValueError(f"too many sequences ({n_rows}) to key in int64")
    windows = np.maximum(lengths - order + 1, 0)
    n_windows = int(windows.sum())
    if n_windows == 0:
        return _EMPTY_CODES, _EMPTY_CODES, _EMPTY_CODES
    # Key each window as code * n_rows + row, so that one tally groups them.
    flat = _inside_windows(labels, lengths, order, alphabet_size)
    flat *= n_rows
    flat += np.repeat(np.arange(n_rows, dtype=np.int64), windows)
    keys, counts = _tally([flat], n_windows, n_rows * alphabet_size**order)
    codes = keys // n_rows
    return codes, keys - codes * n_rows, counts


def group_limit(alphabet_size: int, order: int) -> int:
    """Most sequences :func:`grouped_codes` can take at once."""
    return max(1, _ENCODE_LIMIT // alphabet_size**order)


class GramCounts(Mapping):
    """Read-only ``gram tuple -> count`` view of sorted codes and aligned counts.

    It is built from those arrays, never from a dict. Iteration yields grams
    in lexicographic order. Only counts >= 1 are held.
    """

    __slots__ = ("order", "alphabet_size", "codes", "code_counts")

    def __init__(self, order: int, alphabet_size: int, codes: np.ndarray, code_counts: np.ndarray):
        self.order = order
        self.alphabet_size = alphabet_size
        self.codes = codes
        self.code_counts = code_counts

    def __len__(self) -> int:
        return int(self.codes.shape[0])

    def __iter__(self) -> Iterator[Gram]:
        return map(tuple, decode_codes(self.codes, self.alphabet_size, self.order).tolist())

    def __getitem__(self, gram) -> int:
        try:
            code = _gram_code(gram, self.alphabet_size, self.order)
        except (TypeError, ValueError):
            raise KeyError(gram) from None
        count = int(values_at(self.codes, self.code_counts, np.array([code]), 0)[0])
        if count == 0:
            raise KeyError(gram)
        return count

    def __repr__(self) -> str:
        return f"GramCounts({dict(zip(self, self.code_counts.tolist()))!r})"


@dataclass(frozen=True)
class NGramStats:
    """Sparse gram counts for one corpus at a fixed order.

    ``NGramStats(counts, smoothing_alpha)`` reads order, alphabet size K and
    ``total`` (its sum) from ``counts``, a :class:`GramCounts`, never a dict,
    whose order and K must be integers.
    """

    counts: GramCounts
    smoothing_alpha: float

    def __post_init__(self):
        counts = self.counts
        if not isinstance(counts, GramCounts):
            raise TypeError(f"counts must be a GramCounts, got {type(counts).__name__}")
        check_gram_space(counts.alphabet_size, counts.order)
        object.__setattr__(self, "smoothing_alpha", check_alpha(self.smoothing_alpha))
        codes = counts.codes
        if codes.shape[0] and (
            codes[0] < 0 or codes[-1] >= counts.alphabet_size**counts.order or np.any(codes[1:] <= codes[:-1])
        ):
            raise ValueError("count map codes must be distinct, ascending and in range")
        if codes.shape[0] and counts.code_counts.min() < 1:
            raise ValueError("count map holds a non-positive count")

    @property
    def total(self) -> int:
        return int(self.counts.code_counts.sum())

    def distribution(self) -> "Distribution":
        """Smoothed probability view of these counts."""
        return smoothed_distribution(self.counts, self.smoothing_alpha)


@dataclass(frozen=True, eq=False)
class Distribution:
    """Categorical distribution over all K**N grams.

    ``explicit[i]`` is the probability of the gram with code ``codes[i]``
    (``codes`` sorted ascending, distinct); every other gram has probability
    ``floor`` (constant, possibly zero).
    """

    order: int
    alphabet_size: int
    codes: np.ndarray
    explicit: np.ndarray
    floor: float

    @property
    def support_size(self) -> int:
        return self.alphabet_size**self.order

    @cached_property
    def anchor(self) -> tuple[float, float]:
        """Mass and sum of p*ln(p) over the explicit codes only (0*ln 0 = 0), summed once."""
        live = self.explicit[self.explicit > 0.0]
        return float(np.sum(self.explicit)), float(np.sum(live * np.log(live)))

    def lookup(self, codes: np.ndarray) -> np.ndarray:
        """Probabilities of the grams behind ``codes`` (seen or unseen)."""
        return values_at(self.codes, self.explicit, codes, self.floor)

    def probability(self, gram: Iterable[int]) -> float:
        """Smoothed probability of one gram (seen or unseen)."""
        code = _gram_code(gram, self.alphabet_size, self.order)
        return float(self.lookup(np.array([code], dtype=np.int64))[0])

    def to_dense(self) -> np.ndarray:
        """All K**N probabilities in lexicographic gram order (small supports only)."""
        size = self.support_size
        if size > DENSE_SUPPORT_LIMIT:
            raise ValueError(f"support size {size} too large to materialize")
        dense = np.full(size, self.floor, dtype=np.float64)
        dense[self.codes] = self.explicit
        return dense


def smoothed_distribution(counts: GramCounts, alpha: float) -> Distribution:
    """Add-alpha smoothed view of a count table; the total is the table's sum."""
    order, alphabet_size = counts.order, counts.alphabet_size
    denom = int(counts.code_counts.sum()) + alpha * float(alphabet_size**order)
    if denom <= 0:
        raise ValueError(
            "cannot form a distribution from empty counts with alpha=0; "
            "use alpha > 0 or non-empty stats"
        )
    return Distribution(
        order=order,
        alphabet_size=alphabet_size,
        codes=counts.codes,
        explicit=(counts.code_counts + alpha) / denom,
        floor=alpha / denom,
    )


def sequence_gram_counts(labels: LabelSequence | Iterable[int], order: int, alphabet_size: int) -> GramCounts:
    """Sliding-window gram counts of a single label sequence.

    ValueError for labels :func:`integer_labels` refuses or outside [0, K).
    """
    check_gram_space(alphabet_size, order)
    labels = labels.labels if isinstance(labels, LabelSequence) else integer_labels(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= alphabet_size):
        raise ValueError(f"labels outside [0, {alphabet_size})")
    codes, _, counts = grouped_codes(labels, np.array([labels.shape[0]], dtype=np.int64), order, alphabet_size)
    return GramCounts(order, alphabet_size, codes, counts)


def count_ngrams(corpus: LabelCorpus, order: int, alpha: float = 0.5) -> NGramStats:
    """Count order-N grams over a corpus with per-utterance sliding windows."""
    k = corpus.alphabet_size
    check_gram_space(k, order)
    alpha = check_alpha(alpha)
    # In order of their starts the utterances tile the corpus label array.
    lengths = corpus.lengths[np.argsort(corpus.starts, kind="stable")]
    codes, counts = _tally(
        _window_batches(corpus.labels, lengths, order, k),
        int(np.maximum(lengths - order + 1, 0).sum()),
        k**order,
    )
    return NGramStats(GramCounts(order, k, codes, counts), alpha)


def prune(stats: NGramStats, min_count: int) -> NGramStats:
    """Drop grams counted fewer than ``min_count`` times; their counts leave the total."""
    min_count = integer_scalar(min_count, "min_count", 0)
    if min_count == 0:
        return stats
    counts = stats.counts
    keep = counts.code_counts >= min_count
    return NGramStats(
        GramCounts(counts.order, counts.alphabet_size, counts.codes[keep], counts.code_counts[keep]),
        stats.smoothing_alpha,
    )


def interpolate(q: NGramStats, u: NGramStats, lam: float) -> Distribution:
    """Pointwise mixture lam * P_q + (1 - lam) * P_u of two smoothed views."""
    if q.counts.order != u.counts.order:
        raise ValueError(f"order mismatch: {q.counts.order} vs {u.counts.order}")
    if q.counts.alphabet_size != u.counts.alphabet_size:
        raise ValueError(f"alphabet mismatch: {q.counts.alphabet_size} vs {u.counts.alphabet_size}")
    lam = real_scalar(lam, "lambda")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    dist_q = q.distribution()
    dist_u = u.distribution()
    codes, from_u, slot_q = _union(dist_u.codes, dist_q.codes)
    explicit = np.full(codes.shape[0], dist_q.floor)
    explicit[slot_q] = dist_q.explicit
    explicit *= lam
    p_u = np.full(codes.shape[0], dist_u.floor)
    p_u[from_u] = dist_u.explicit
    p_u *= 1.0 - lam
    explicit += p_u
    return Distribution(
        order=dist_q.order,
        alphabet_size=dist_q.alphabet_size,
        codes=codes,
        explicit=explicit,
        floor=lam * dist_q.floor + (1.0 - lam) * dist_u.floor,
    )


def save_stats_dump(
    stats: NGramStats, path: str | Path, comments: Iterable[str] = ()
) -> None:
    """Write counts as ``<gram>\\t<count>`` lines under a small header, for diffing."""
    path = Path(path)
    codes, counts = stats.counts.codes, stats.counts.code_counts
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"#order={stats.counts.order}\n")
        handle.write(f"#K={stats.counts.alphabet_size}\n")
        handle.write(f"#total={stats.total}\n")
        handle.write(f"#alpha={stats.smoothing_alpha!r}\n")
        for comment in comments:
            handle.write(f"#{comment}\n")
        # Grams become Python lists a block at a time, so memory follows the block.
        for first in range(0, codes.shape[0], _DUMP_ROWS):
            rows = slice(first, first + _DUMP_ROWS)
            grams = decode_codes(codes[rows], stats.counts.alphabet_size, stats.counts.order).tolist()
            handle.write("".join(
                f"{' '.join(map(str, gram))}\t{count}\n" for gram, count in zip(grams, counts[rows].tolist())
            ))
