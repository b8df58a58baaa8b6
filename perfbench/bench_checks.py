"""Correctness checks on the files the scdselect CLI writes.

Each check raises :class:`CheckError` with a reason; the benchmark counts a
run with any failed check as a failed run. The checks re-derive what they
need from the generated inputs with plain numpy and share no code with the
program under test.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from bench_inputs import LabelSet

RECOUNT_RTOL = 1e-9


class CheckError(Exception):
    """An output file is wrong."""


@dataclass(frozen=True)
class Report:
    header: dict[str, str]
    ids: tuple[str, ...]
    trace: tuple[float, ...]

    @property
    def final_scd(self) -> float:
        return float(self.header["final_scd_nats"])


def parse_report(text: str) -> Report:
    """Split a selection report into ``#key=value`` headers and ``rank/id/scd`` rows."""
    header: dict[str, str] = {}
    ids: list[str] = []
    trace: list[float] = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, sep, value = line[1:].partition("=")
            if not sep:
                raise CheckError(f"report header line without '=': {line!r}")
            header[key] = value
            continue
        fields = line.split("\t")
        if len(fields) != 3 or fields[0] != str(len(ids) + 1):
            raise CheckError(f"bad report row {len(ids) + 1}: {line!r}")
        ids.append(fields[1])
        trace.append(float(fields[2]))
    for key in ("strategy", "final_scd_nats", "num_selected"):
        if key not in header:
            raise CheckError(f"report lacks the #{key} header")
    return Report(header, tuple(ids), tuple(trace))


def length_sorted_ids(pool: LabelSet) -> list[str]:
    """Pool ids in ``(length, id)`` order, the order selection buckets are cut from."""
    return [utt_id for _, utt_id in sorted(zip(pool.lengths.tolist(), pool.ids))]


def bucket_bounds(n_items: int, n_buckets: int) -> list[tuple[int, int]]:
    """Contiguous buckets whose sizes differ by at most one; the first take the extra item."""
    base, extra = divmod(n_items, n_buckets)
    bounds, start = [], 0
    for index in range(n_buckets):
        size = base + (1 if index < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def check_one_per_bucket(picked: tuple[str, ...], sorted_ids: list[str], budget: int) -> None:
    """Exactly one pick from each of ``budget`` length-sorted buckets."""
    position = {utt_id: index for index, utt_id in enumerate(sorted_ids)}
    starts = np.array([start for start, _ in bucket_bounds(len(sorted_ids), budget)])
    picks_per_bucket = np.zeros(budget, dtype=np.int64)
    for utt_id in picked:
        if utt_id not in position:
            raise CheckError(f"picked id {utt_id!r} is not in the pool")
        picks_per_bucket[np.searchsorted(starts, position[utt_id], side="right") - 1] += 1
    crowded = np.nonzero(picks_per_bucket != 1)[0]
    if crowded.size:
        bucket = int(crowded[0])
        raise CheckError(f"bucket {bucket} has {int(picks_per_bucket[bucket])} picks, expected 1")


def check_selection(report_text: str, ids_text: str, pool: LabelSet, budget: int) -> Report:
    """Report and id worklist of one count-budget greedy selection."""
    report = parse_report(report_text)
    if report.header["strategy"] != "greedy-scd":
        raise CheckError(f"unexpected strategy {report.header['strategy']!r}")
    if int(report.header["num_selected"]) != budget or len(report.ids) != budget:
        raise CheckError(f"expected {budget} picks, report has {len(report.ids)}")
    if len(set(report.ids)) != budget:
        raise CheckError("report picks an utterance twice")
    check_one_per_bucket(report.ids, length_sorted_ids(pool), budget)
    if report.trace[-1] != report.final_scd:
        raise CheckError("the last trace value is not #final_scd_nats")
    listed = [line for line in ids_text.splitlines() if not line.startswith("#")]
    if tuple(listed) != report.ids:
        raise CheckError("the .ids worklist does not list the report's picks in order")
    return report


def _gram_counts(labels: LabelSet, rows: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct window codes and their counts over utterances ``rows``."""
    offsets = labels.offsets
    if rows.shape[0] == len(labels.ids):
        flat, lengths = labels.labels, labels.lengths
    else:
        flat = np.concatenate([labels.labels[offsets[r] : offsets[r + 1]] for r in rows])
        lengths = labels.lengths[rows]
    if order == 1:
        counts = np.bincount(flat, minlength=labels.alphabet_size)
        codes = np.nonzero(counts)[0]
        return codes, counts[codes]
    n_windows = flat.shape[0] - order + 1
    codes = np.zeros(n_windows, dtype=np.int64)
    for j in range(order):
        codes = codes * labels.alphabet_size + flat[j : j + n_windows]
    # A window is kept when it ends inside the utterance it starts in.
    ends = np.repeat(np.cumsum(lengths), lengths)[:n_windows]
    return np.unique(codes[np.arange(n_windows) + order <= ends], return_counts=True)


def _lookup(codes: np.ndarray, counts: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Count of each key in the sorted ``codes``, zero where absent."""
    out = np.zeros(keys.shape[0])
    index = np.searchsorted(codes, keys)
    hit = index < codes.shape[0]
    hit[hit] = codes[index[hit]] == keys[hit]
    out[hit] = counts[index[hit]]
    return out


def recount_scd(
    pool: LabelSet,
    query: LabelSet,
    picked: tuple[str, ...],
    order: int,
    lam: float,
    alpha: float,
) -> float:
    """From-scratch divergence of the interpolated target from the picked subset.

    Grams seen in neither the target's counts nor the subset's share one floor
    probability on each side and enter as a single closed-form term.
    """
    support = float(pool.alphabet_size**order)
    codes_u, cnt_u = _gram_counts(pool, np.arange(len(pool.ids)), order)
    codes_q, cnt_q = _gram_counts(query, np.arange(len(query.ids)), order)
    row_of = {utt_id: row for row, utt_id in enumerate(pool.ids)}
    codes_c, cnt_c = _gram_counts(pool, np.array([row_of[i] for i in picked]), order)

    union = np.union1d(np.union1d(codes_u, codes_q), codes_c)
    denom_u = cnt_u.sum() + alpha * support
    denom_q = cnt_q.sum() + alpha * support
    denom_c = cnt_c.sum() + alpha * support
    p_target = lam * ((_lookup(codes_q, cnt_q, union) + alpha) / denom_q) + (1.0 - lam) * (
        (_lookup(codes_u, cnt_u, union) + alpha) / denom_u
    )
    p_subset = (_lookup(codes_c, cnt_c, union) + alpha) / denom_c
    explicit = float(np.sum(p_target * np.log(p_target / p_subset)))
    floor_target = lam * (alpha / denom_q) + (1.0 - lam) * (alpha / denom_u)
    floor_subset = alpha / denom_c
    implicit = (support - union.shape[0]) * floor_target * math.log(floor_target / floor_subset)
    return float(explicit + implicit)


def check_recount(reported: float, recounted: float) -> None:
    if not math.isclose(reported, recounted, rel_tol=RECOUNT_RTOL, abs_tol=0.0):
        raise CheckError(
            f"#final_scd_nats {reported!r} differs from the recount {recounted!r} "
            f"by more than {RECOUNT_RTOL} relative"
        )


def parse_label_file(text: str) -> LabelSet:
    """Read a label-corpus file written by ``discretize``."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#K="):
        raise CheckError("label file lacks its #K= header")
    alphabet_size = int(lines[0][3:])
    ids, lengths, pieces = [], [], []
    for line in lines[1:]:
        if line.startswith("#") and "\t" not in line:
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise CheckError(f"bad label record {line[:60]!r}")
        labels = np.array(fields[2].split(" ") if fields[2] else [], dtype=np.int64)
        ids.append(fields[0])
        lengths.append(labels.shape[0])
        pieces.append(labels)
    flat = np.concatenate(pieces).astype(np.int32) if pieces else np.empty(0, np.int32)
    return LabelSet(
        tuple(ids), np.array(lengths, dtype=np.int64), flat, np.zeros(len(ids), bool), alphabet_size
    )


def check_label_file(text: str, ids: tuple[str, ...], frames_per_utt: int, k: int) -> LabelSet:
    """One record per manifest entry, in manifest order, with every label below ``k``."""
    labels = parse_label_file(text)
    if labels.alphabet_size != k:
        raise CheckError(f"label file has K={labels.alphabet_size}, expected {k}")
    if labels.ids != ids:
        raise CheckError("label records do not match the manifest entries one to one")
    if np.any(labels.lengths != frames_per_utt):
        raise CheckError(f"expected {frames_per_utt} labels per utterance")
    if labels.labels.size and (labels.labels.min() < 0 or labels.labels.max() >= k):
        raise CheckError(f"label outside [0, {k})")
    return labels


def check_model(text: str, k: int, feature_dim: int, max_iters: int) -> dict:
    """K-means model file: k finite centroids of the right width."""
    model = json.loads(text)
    centroids = np.array(model["centroids"], dtype=np.float64)
    if model["k"] != k or centroids.shape != (k, feature_dim):
        raise CheckError(f"model has k={model['k']} and centroids {centroids.shape}")
    if not np.isfinite(centroids).all():
        raise CheckError("model centroids are not finite")
    if not 1 <= model["iterations_run"] <= max_iters:
        raise CheckError(f"model ran {model['iterations_run']} iterations")
    return model
