"""The p-anchored ``scd`` against the union walk it replaced.

``union_walk_scd`` sums p*ln(p/q) over the union of the two explicit
supports plus one closed-form term for the grams unseen in both; it is kept
here as the reference. The property draws alphabets up to K=500 at orders
1-4, including sparse supports whose mass sits mostly at the floor (q
counted from a prefix of p's labels, so the divergence is tiny next to the
terms it is summed from), disjoint supports, a q without codes, and alpha=0
on covering and non-covering supports. A repeat call's memory is pinned to
the size of q, not of p.
"""

import math
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from scdselect.divergence import CandidateStats, DivergenceUndefinedError, ScdValue, scd
from scdselect.ngram import (
    Distribution,
    GramCounts,
    code_positions,
    decode_gram,
    sequence_gram_counts,
    smoothed_distribution,
)


def union_walk_scd(p, q):
    """p's codes looked up in q's, then q's codes that p lacks, then the rest in one term."""
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
    return ScdValue(explicit_sum + implicit, int(codes.shape[0]), implicit)


def distribution(labels, k, order, alpha, keep=None):
    """Smoothed gram distribution of one label list, optionally only at the codes ``keep`` allows."""
    counts = sequence_gram_counts(np.asarray(labels, dtype=np.int64), order, k)
    codes, tallies = counts.codes, counts.code_counts
    if keep is not None:
        codes, tallies = codes[keep(codes)], tallies[keep(codes)]
    return smoothed_distribution(GramCounts(order, k, codes, tallies), alpha)


@st.composite
def operand_pairs(draw):
    k = draw(st.integers(2, 500), label="k")
    order = draw(st.integers(1, 4), label="order")
    labels = draw(st.lists(st.integers(0, k - 1), min_size=order, max_size=200), label="labels")
    case = draw(st.sampled_from(["prefix", "disjoint", "empty q", "alpha 0"]), label="case")
    alphas = st.sampled_from([0.1, 0.5])
    if case == "alpha 0":
        # q is counted from p's labels plus more, so it covers p's support,
        # unless a gram is dropped; p's floor is zero or positive.
        alpha_p = draw(st.sampled_from([0.0, 0.1]), label="alpha_p")
        p = distribution(labels, k, order, alpha_p)
        extra = draw(st.lists(st.integers(0, k - 1), max_size=50), label="extra")
        q = distribution(labels + extra, k, order, 0.0)
        if q.codes.shape[0] > 1 and draw(st.booleans(), label="drop"):
            dropped = draw(st.sampled_from(p.codes.tolist()), label="dropped")
            q = distribution(labels + extra, k, order, 0.0, keep=lambda codes: codes != dropped)
        return p, q
    p = distribution(labels, k, order, draw(alphas, label="alpha_p"))
    alpha_q = draw(alphas, label="alpha_q")
    if case == "prefix":
        cut = draw(st.integers(order, len(labels)), label="cut")
        return p, distribution(labels[:cut], k, order, alpha_q)
    if case == "disjoint":
        other = draw(st.lists(st.integers(0, k - 1), min_size=order, max_size=200), label="other")
        return p, distribution(other, k, order, alpha_q, keep=lambda codes: ~np.isin(codes, p.codes))
    return p, distribution([], k, order, alpha_q)


@settings(max_examples=400, deadline=None)
@given(operand_pairs())
def test_anchored_scd_matches_the_union_walk(operands):
    p, q = operands
    try:
        reference = union_walk_scd(p, q)
    except DivergenceUndefinedError as expected:
        try:
            scd(p, q)
        except DivergenceUndefinedError as raised:
            assert str(raised) == str(expected)
        else:
            raise AssertionError(f"scd is defined where the union walk raised {expected}")
        return
    value = scd(p, q)
    assert abs(value.nats - reference.nats) <= max(1e-10 * abs(reference.nats), 1e-15)
    assert abs(value.implicit_mass - reference.implicit_mass) <= max(
        1e-10 * abs(reference.implicit_mass), 1e-15
    )
    assert value.support_terms == reference.support_terms


def test_repeat_call_memory_is_bounded_by_the_subset():
    # A target of 1M explicit codes and a subset of a few hundred: once the
    # anchor is summed, a call allocates on the order of the subset alone.
    k, order = 2000, 2
    rng = np.random.default_rng(5)
    codes = np.arange(0, k**order, 4, dtype=np.int64)
    counts = rng.integers(1, 50, size=codes.shape[0])
    target = smoothed_distribution(GramCounts(order, k, codes, counts), 0.5)
    subset = CandidateStats(order, k, 0.5)
    for _ in range(3):
        subset.add(rng.integers(0, k, size=150))
    q = subset.distribution()
    assert target.codes.shape[0] == 1_000_000 and 200 <= q.codes.shape[0] <= 450

    first = scd(target, q)
    tracemalloc.start()
    try:
        again = scd(target, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == first
    assert peak < 1 << 18, f"a repeat scd call peaked at {peak} bytes"


def test_zero_explicit_probabilities_match_the_union_walk():
    # Interpolating with alpha=0 at lam 0 or 1 leaves zeros among the explicit
    # probabilities: 0*ln(0/q) is 0 wherever q is, and the anchor skips them.
    codes = np.array([1, 4, 7], dtype=np.int64)
    p = Distribution(2, 3, codes, np.array([0.5, 0.0, 0.5]), 0.0)
    q = Distribution(2, 3, np.append(codes, 8), np.array([0.25, 0.0, 0.5, 0.25]), 0.0)
    assert p.anchor == (1.0, math.log(0.5))
    value, reference = scd(p, q), union_walk_scd(p, q)
    assert abs(value.nats - 0.5 * math.log(2.0)) <= 1e-15
    assert abs(value.nats - reference.nats) <= 1e-15
    assert value.support_terms == reference.support_terms == 4

    positive = Distribution(2, 3, codes, np.array([0.5, 0.25, 0.25]), 0.0)
    messages = []
    for divergence in (scd, union_walk_scd):
        try:
            divergence(positive, q)
        except DivergenceUndefinedError as exc:
            messages.append(str(exc))
    assert len(messages) == 2 and messages[0] == messages[1]
    assert "gram (1, 1) " in messages[0]
