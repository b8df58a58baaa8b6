"""Sorted gram tables: placement, union and the interpolated target.

``code_positions`` is checked against ``np.searchsorted`` plus membership,
the union layout against ``np.union1d``, and ``interpolate`` bit for bit
against a reference kept here: the concatenate, stable sort and lookup
build it replaced. Tables are sorted distinct int64 codes, including empty
ones, code 0, code K**N - 1, disjoint supports and identical supports.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scdselect.divergence import CandidateStats
from scdselect.ngram import (
    Distribution,
    GramCounts,
    NGramStats,
    _union,
    code_positions,
    interpolate,
    run_starts,
    sequence_gram_counts,
)


def reference_interpolate(q: NGramStats, u: NGramStats, lam: float) -> Distribution:
    """The target build by sorting both supports and looking each code up twice."""
    dist_q = q.distribution()
    dist_u = u.distribution()
    codes = np.sort(np.concatenate((dist_q.codes, dist_u.codes)), kind="stable")
    codes = codes[run_starts(codes)]
    return Distribution(
        order=q.order,
        alphabet_size=q.alphabet_size,
        codes=codes,
        explicit=lam * dist_q.lookup(codes) + (1.0 - lam) * dist_u.lookup(codes),
        floor=lam * dist_q.floor + (1.0 - lam) * dist_u.floor,
    )


def as_table(codes) -> np.ndarray:
    return np.array(sorted(codes), dtype=np.int64)


@st.composite
def table_pairs(draw):
    """(K, N, a, b): two sorted distinct code tables over the K**N grams."""
    k = draw(st.integers(1, 9))
    order = draw(st.integers(1, 3))
    size = k**order
    # The first and last gram codes are where placement runs off an end.
    ends = st.sets(st.sampled_from([0, size - 1]))
    table = st.builds(set.union, st.sets(st.integers(0, size - 1), max_size=min(size, 40)), ends)
    a = draw(table)
    shape = draw(st.sampled_from(["random", "disjoint", "identical", "empty"]))
    if shape == "identical":
        b = set(a)
    elif shape == "empty":
        b = set()
    else:
        b = draw(table)
        if shape == "disjoint":
            b -= a
    return k, order, as_table(a), as_table(b)


class TestPlacement:
    @settings(max_examples=200, deadline=None)
    @given(table_pairs(), st.lists(st.integers(0, 800), max_size=30))
    @example((3, 2, as_table([]), as_table([])), [0, 8, 9])
    @example((3, 2, as_table([0, 8]), as_table([])), [0, 4, 8, 9, 800])
    def test_matches_searchsorted_and_membership(self, tables, extra):
        _, _, table, probes = tables
        # Probes past the table's last code, and past the last gram code too.
        codes = np.concatenate((probes, np.array(extra, dtype=np.int64)))
        index, found = code_positions(table, codes)
        assert index.tolist() == np.searchsorted(table, codes).tolist()
        assert found.tolist() == np.isin(codes, table).tolist()


class TestUnion:
    @settings(max_examples=200, deadline=None)
    @given(table_pairs())
    @example((2, 2, as_table([]), as_table([0, 3])))
    @example((2, 2, as_table([0, 3]), as_table([])))
    @example((2, 2, as_table([0, 3]), as_table([1, 2])))
    @example((2, 2, as_table([1, 2]), as_table([1, 2])))
    def test_matches_union1d_with_each_table_at_its_slots(self, tables):
        _, _, a, b = tables
        codes, from_a, slot_b = _union(a, b)
        assert codes.dtype == np.int64
        assert codes.tolist() == np.union1d(a, b).tolist()
        assert codes[from_a].tolist() == a.tolist()
        assert codes[slot_b].tolist() == b.tolist()


def stats_on(codes: np.ndarray, order: int, k: int, alpha: float, seed: int) -> NGramStats:
    counts = np.random.default_rng(seed).integers(1, 20, size=codes.shape[0])
    return NGramStats(order, k, GramCounts(order, k, codes, counts), int(counts.sum()), alpha)


def assert_bit_equal(got: Distribution, want: Distribution) -> None:
    assert got.codes.dtype == want.codes.dtype and got.codes.tobytes() == want.codes.tobytes()
    assert got.explicit.dtype == want.explicit.dtype
    assert got.explicit.tobytes() == want.explicit.tobytes()
    assert np.float64(got.floor).tobytes() == np.float64(want.floor).tobytes()


class TestTarget:
    @settings(max_examples=200, deadline=None)
    @given(
        table_pairs(),
        st.sampled_from([0.0, 0.3, 0.9, 1.0]),
        st.sampled_from([0.0, 0.5]),
        st.integers(0, 2**16),
    )
    def test_bit_equal_to_the_sorted_build(self, tables, lam, alpha, seed):
        k, order, pool, query = tables
        u = stats_on(pool, order, k, alpha, seed)
        q = stats_on(query, order, k, alpha, seed + 1)
        if alpha == 0.0 and not (pool.shape[0] and query.shape[0]):
            # An empty table has no distribution at alpha 0, either way.
            with pytest.raises(ValueError, match="alpha=0"):
                reference_interpolate(q, u, lam)
            with pytest.raises(ValueError, match="alpha=0"):
                interpolate(q, u, lam)
            return
        assert_bit_equal(interpolate(q, u, lam), reference_interpolate(q, u, lam))

    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.9, 1.0])
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_query_gram_the_pool_lacks(self, lam, alpha):
        # K=4, order 2: the query holds (3, 3), code 15, which the pool never saw.
        u = stats_on(as_table([0, 1, 5, 6, 10]), 2, 4, alpha, 1)
        q = stats_on(as_table([1, 6, 15]), 2, 4, alpha, 2)
        target = interpolate(q, u, lam)
        assert target.codes.tolist() == [0, 1, 5, 6, 10, 15]
        assert_bit_equal(target, reference_interpolate(q, u, lam))


class TestSequenceLabelsChecked:
    @pytest.mark.parametrize(
        "labels,order",
        [
            ([0, 1, 7], 3),  # once packed as the code of (1, 0, 1)
            ([3] + [0] * 12, 2),  # once a broadcast error in the dense tally
            ([-1, 0, 2], 2),  # once a mapping that could not be read back
        ],
    )
    def test_out_of_range_label_rejected(self, labels, order):
        with pytest.raises(ValueError, match=r"labels outside \[0, 3\)"):
            sequence_gram_counts(labels, order, 3)
        stats = CandidateStats(order, 3, 0.5)
        with pytest.raises(ValueError, match=r"labels outside \[0, 3\)"):
            stats.add(labels)
        assert stats.total == 0 and stats.codes.shape[0] == 0

    def test_in_range_labels_counted(self):
        assert dict(sequence_gram_counts([0, 2, 2, 0], 2, 3)) == {(0, 2): 1, (2, 2): 1, (2, 0): 1}
        assert dict(sequence_gram_counts([], 2, 3)) == {}

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint32, np.uint64, np.int64])
    def test_every_integer_dtype_counted(self, dtype):
        labels = np.array([0, 2, 2, 0], dtype=dtype)
        assert dict(sequence_gram_counts(labels, 2, 3)) == {(0, 2): 1, (2, 2): 1, (2, 0): 1}
        stats = CandidateStats(2, 3, 0.5)
        stats.add(labels)
        assert dict(stats.counts) == {(0, 2): 1, (2, 2): 1, (2, 0): 1}
