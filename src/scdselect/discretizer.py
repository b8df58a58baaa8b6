"""Audio-to-label discretization: MFCC features plus K-means clustering.

This is the built-in hidden-units path, so the pipeline runs with no external
model: WAV in, MFCC frames out, each frame mapped to its nearest centroid.
Externally produced label files bypass this module entirely.

Everything here is deterministic given (audio bytes, seed, config).

K-means runs in bounded working memory. Besides the n x dim input,
:func:`train_kmeans` holds a few length-n vectors and temporaries of at
most ``_BLOCK`` rows x dim, or ``_BLOCK_CELLS`` distances per assignment
thread; no step allocates an n x dim or n x k temporary. Where a step
works row by row, blocking keeps the bytes of the unblocked computation:

- ``np.sum((x - c) ** 2, axis=1)`` reduces each row on its own, so a block
  of rows gets the values that all rows at once get.
- Both k-means screens use the norm expansion and one rounding bound. Let
  ``e = np.sum((x - c) ** 2)`` be the exact distance and ``N`` at least
  ``|x|^2 + |c|^2``. In any summation order, ``approx = |x|^2 + |c|^2 -
  2 x.c`` and the screen ``s = |c|^2 - 2 x.c`` are within
  ``(dim + 2) * 2**-52 * N`` of their exact values, and so is ``e`` of the
  true distance. The margin ``m = 8 * (dim + 1) * 2**-52 * N`` exceeds four
  such errors, ``(4 * dim + 8) * 2**-52 * N``, with room for its own
  rounding: k-means++ weighs the errors of two values against it
  (``approx`` and ``e``), the assignment those of four (``s`` and ``e`` of
  two centroids).
- k-means++ needs ``np.minimum(d2, e)`` per row after each draw, with
  ``N = |x|^2 + |c|^2`` for the drawn centre ``c``. One matrix-vector
  product gives ``approx``; a row with ``approx - m >= d2`` has
  ``e >= d2`` and keeps ``d2``. Only the other rows, about 2% per draw on
  MFCC frames, get ``e``. The draws are unchanged.
- The assignment labels a row with the centroid at the least ``e``, the
  lowest index on ties, with ``N = |x|^2 + max |c|^2``. It screens a row
  block with one BLAS product and its argmin. That product may round
  differently with the block's shape or the BLAS kernel, but when the
  runner-up is screened more than ``m`` above the argmin, the argmin has
  the strictly least ``e``. The other rows are confirmed: each gets ``e``
  to every centroid screened within ``m``, which by the same bound holds
  the least ``e``, one (row, centroid) pair per ``_sq_dist`` row. A label
  thus depends only on the row and the centroids, whatever the blocking,
  thread count or BLAS; the inertia is ``np.sum`` of the exact minima, in
  row order. Only rows with a near tie, within about 7e-14 of ``N`` at dim
  39, need the confirm step.
- ``np.bincount`` adds a column's weights in row order, so the centroid
  sums are those of adding the rows one by one.

The large temporaries are reused, not allocated per utterance or per row
block. Each entry that :func:`map_manifest` runs, and each row block of a
:func:`train_kmeans` assignment, borrows one buffer set from a pool of that
call (:class:`_BufferPool`), which holds one set per worker running at
once; :func:`train_kmeans` passes its pool to each of its assignments as
an argument. :func:`compute_mfcc` takes the pre-emphasized samples, the
windowed frames, the power spectrum and the log-mel matrix from the set,
and the assignment its screen and the rows' differences to their
centroids. A buffer grows to the largest request it meets, so it is
bounded by the longest utterance or row block, and the sets are freed when
the :func:`map_manifest` or :func:`train_kmeans` call returns. Buffers are
only written in place: :func:`read_wav_mono`, :func:`compute_mfcc` and
:func:`apply_kmeans` return fresh arrays, and called outside those two
functions they allocate their own temporaries.

``--threads`` parallelizes manifest entries, with one BLAS thread per worker:
:func:`map_manifest` runs its workers with OpenBLAS set to one thread and
restores the count after. In ``train-kmeans`` it also splits each Lloyd
step: :func:`train_kmeans` runs with OpenBLAS at one thread and its
assignments' row blocks on ``threads`` threads. The CLI starts OpenBLAS on
one thread (:mod:`scdselect.__main__`), so there the pin finds the count
already at 1. It serves library callers that loaded numpy with a larger
pool, whose BLAS threads would otherwise queue beside the workers.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import logging
import math
import os
import threading
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import AudioManifest, LabelCorpus, LabelSequence
from .parallel import map_in_order

logger = logging.getLogger(__name__)

# Power floor applied before the log so silent input stays finite.
LOG_FLOOR = 1e-10

# Rows per block of a k-means distance pass; cells (rows x centroids) per
# row block of the assignment.
_BLOCK = 2048
_BLOCK_CELLS = 2**17
# Rounding margin of both k-means screens, in units of (dim + 1) * 2**-52 * N;
# see the module docstring.
_MARGIN_UNITS = 8
# Frames per block of the MFCC spectrum pass.
_MFCC_BLOCK = 64


class AudioError(RuntimeError):
    """An audio file could not be used (unreadable, wrong format, too short)."""


@dataclass(frozen=True)
class MfccConfig:
    """MFCC front-end parameters; defaults are the conventional ASR setup."""

    sample_rate_hz: int = 16000
    frame_length_ms: float = 25.0
    frame_shift_ms: float = 10.0
    num_coeffs: int = 13
    include_deltas: bool = True
    num_mel_filters: int = 26
    preemphasis: float = 0.97

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        if not (math.isfinite(self.frame_length_ms) and self.frame_length_ms > self.frame_shift_ms > 0):
            raise ValueError("need finite frame_length_ms > frame_shift_ms > 0")
        # The length is the larger size, so it spans at least as many samples.
        if self.frame_shift_samples < 1:
            raise ValueError(
                f"frame_shift_ms={self.frame_shift_ms} is below one sample at {self.sample_rate_hz} Hz"
            )
        if self.num_coeffs > self.num_mel_filters:
            raise ValueError("num_coeffs must not exceed num_mel_filters")
        if not 0.0 <= self.preemphasis < 1.0:
            raise ValueError("preemphasis must be in [0, 1)")

    @property
    def frame_length_samples(self) -> int:
        return int(round(self.sample_rate_hz * self.frame_length_ms / 1000.0))

    @property
    def frame_shift_samples(self) -> int:
        return int(round(self.sample_rate_hz * self.frame_shift_ms / 1000.0))

    @property
    def feature_dim(self) -> int:
        return self.num_coeffs * (3 if self.include_deltas else 1)


def num_frames(n_samples: int, config: MfccConfig) -> int:
    """1 + floor((n_samples - frame_length) / frame_shift); requires one full frame."""
    if n_samples < config.frame_length_samples:
        raise AudioError(
            f"audio of {n_samples} samples is shorter than one "
            f"{config.frame_length_samples}-sample frame"
        )
    return 1 + (n_samples - config.frame_length_samples) // config.frame_shift_samples


def _mel(hz: np.ndarray | float) -> np.ndarray | float:
    return 2595.0 * np.log10(1.0 + hz / 700.0)


def _mel_inv(mel: np.ndarray | float) -> np.ndarray | float:
    return 700.0 * (10.0 ** (mel / 2595.0) - 1.0)


def _mel_filterbank(config: MfccConfig, n_fft: int) -> np.ndarray:
    """Triangular filters (num_mel_filters x n_fft//2+1) from 0 Hz to Nyquist."""
    nyquist = config.sample_rate_hz / 2.0
    mel_points = np.linspace(_mel(0.0), _mel(nyquist), config.num_mel_filters + 2)
    bins = np.floor((n_fft + 1) * _mel_inv(mel_points) / config.sample_rate_hz).astype(int)
    bank = np.zeros((config.num_mel_filters, n_fft // 2 + 1))
    for m in range(1, config.num_mel_filters + 1):
        left, center, right = bins[m - 1], bins[m], bins[m + 1]
        for f in range(left, center):
            bank[m - 1, f] = (f - left) / max(center - left, 1)
        for f in range(center, right):
            bank[m - 1, f] = (right - f) / max(right - center, 1)
    return bank


def _dct_matrix(n_out: int, n_in: int) -> np.ndarray:
    """Orthonormal DCT-II basis, n_out x n_in."""
    grid = np.arange(n_in, dtype=np.float64)
    basis = np.cos(np.pi * np.outer(np.arange(n_out), 2.0 * grid + 1.0) / (2.0 * n_in))
    basis *= math.sqrt(2.0 / n_in)
    basis[0] *= math.sqrt(0.5)
    return basis


@functools.lru_cache(maxsize=16)
def _frame_tables(config: MfccConfig, n_fft: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hamming window, mel filterbank and DCT basis of ``config``, built once, read-only."""
    tables = (
        np.hamming(config.frame_length_samples),
        _mel_filterbank(config, n_fft),
        _dct_matrix(config.num_coeffs, config.num_mel_filters),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def _deltas(feats: np.ndarray, width: int = 2) -> np.ndarray:
    """Regression deltas over +-width frames, edges replicated."""
    padded = np.pad(feats, ((width, width), (0, 0)), mode="edge")
    denom = 2.0 * sum(n * n for n in range(1, width + 1))
    out = np.zeros_like(feats)
    for n in range(1, width + 1):
        out += n * (padded[width + n : width + n + feats.shape[0]] - padded[width - n : width - n + feats.shape[0]])
    return out / denom


def compute_mfcc(
    samples: np.ndarray,
    config: MfccConfig,
    sample_rate_hz: int | None = None,
) -> np.ndarray:
    """MFCC matrix (frames x feature_dim) of one mono PCM signal.

    ``sample_rate_hz``, when given, is validated against the config; the
    samples themselves carry no rate.
    """
    if sample_rate_hz is not None and sample_rate_hz != config.sample_rate_hz:
        raise AudioError(
            f"sample rate {sample_rate_hz} Hz does not match configured "
            f"{config.sample_rate_hz} Hz"
        )
    samples = np.asarray(samples, dtype=np.float64).reshape(-1)
    flen = config.frame_length_samples
    shift = config.frame_shift_samples
    n_out = num_frames(samples.shape[0], config)
    buffers = _buffers()

    if config.preemphasis > 0:
        emphasized = buffers.take("emphasis", samples.shape)
        emphasized[0] = samples[0]
        np.multiply(samples[:-1], config.preemphasis, out=emphasized[1:])
        np.subtract(samples[1:], emphasized[1:], out=emphasized[1:])
        samples = emphasized

    n_fft = 1
    while n_fft < flen:
        n_fft *= 2
    window, bank, dct = _frame_tables(config, n_fft)

    # Each frame's spectrum is computed on its own, so blocks of frames get
    # the values of one transform over all frames.
    frames = np.lib.stride_tricks.sliding_window_view(samples, flen)[::shift]
    windowed = buffers.take("windowed", (min(n_out, _MFCC_BLOCK), flen))
    power = buffers.take("power", (n_out, n_fft // 2 + 1))
    for start in range(0, n_out, _MFCC_BLOCK):
        block = power[start : start + _MFCC_BLOCK]
        rows = windowed[: block.shape[0]]
        np.multiply(frames[start : start + _MFCC_BLOCK], window, out=rows)
        np.abs(np.fft.rfft(rows, n=n_fft, axis=1), out=block)
        np.square(block, out=block)
        block /= n_fft
    # The products run once over the whole utterance: BLAS may round a
    # product of a row block unlike the product of all rows.
    log_mel = np.matmul(power, bank.T, out=buffers.take("log_mel", (n_out, bank.shape[0])))
    np.maximum(log_mel, LOG_FLOOR, out=log_mel)
    np.log(log_mel, out=log_mel)
    cepstra = log_mel @ dct.T

    if config.include_deltas:
        d1 = _deltas(cepstra)
        d2 = _deltas(d1)
        cepstra = np.concatenate([cepstra, d1, d2], axis=1)
    return cepstra


@dataclass(frozen=True)
class KMeansModel:
    """Trained centroids plus how training went."""

    k: int
    centroids: np.ndarray
    feature_dim: int
    iterations_run: int
    final_inertia: float

    def __post_init__(self):
        centroids = np.asarray(self.centroids, dtype=np.float64)
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if centroids.shape != (self.k, self.feature_dim):
            raise ValueError(
                f"centroids must be {self.k} x {self.feature_dim}, got {centroids.shape}"
            )
        if not np.isfinite(centroids).all():
            raise ValueError("centroids must be finite")
        centroids.flags.writeable = False
        object.__setattr__(self, "centroids", centroids)


def _sq_dist(features: np.ndarray, rows: np.ndarray, centres: np.ndarray, which) -> np.ndarray:
    """``np.sum((features[rows] - centres[which]) ** 2, axis=1)``, ``_BLOCK`` rows at a time.

    ``which`` is one index into ``centres`` or one per entry of ``rows``.
    Each row is summed on its own, so the values are those of the whole
    expression.
    """
    out = np.empty(rows.shape[0])
    for start in range(0, rows.shape[0], _BLOCK):
        block = slice(start, start + _BLOCK)
        centre = centres[which if np.ndim(which) == 0 else which[block]]
        out[block] = np.sum((features[rows[block]] - centre) ** 2, axis=1)
    return out


def _assign(
    features: np.ndarray, centroids: np.ndarray, threads: int, pool: _BufferPool | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid label per row and the row's exact squared distance to it.

    The label is the centroid with the least ``np.sum((x - c) ** 2)``, the
    lowest index on ties; see the module docstring for how a row block's
    BLAS screen and exact confirm find it. Row blocks of ``_BLOCK_CELLS``
    distances run on ``threads`` threads, each block in a buffer set lent
    by ``pool`` (a new one when None), or in the calling worker's set.
    """
    (n, dim), k = features.shape, centroids.shape[0]
    labels = np.empty(n, dtype=np.int64)
    sq_dists = np.empty(n)
    cent_sq = np.einsum("ij,ij->i", centroids, centroids)
    scaled = -2.0 * centroids
    cent_sq_max = cent_sq.max()
    margin = _MARGIN_UNITS * (dim + 1) * 2.0**-52
    block_rows = max(1, _BLOCK_CELLS // k)
    pool = pool or _BufferPool()

    def assign_block(start):
        with pool.lend() as buffers:
            x = features[start : start + block_rows]
            rows = np.arange(x.shape[0])
            screen = np.matmul(x, scaled.T, out=buffers.take("screen", (x.shape[0], k)))
            screen += cent_sq
            nearest = np.argmin(screen, axis=1)
            limit = screen[rows, nearest]
            limit += margin * (np.einsum("ij,ij->i", x, x) + cent_sq_max)
            # A row is in doubt when its runner-up is screened within the margin.
            screen[rows, nearest] = np.inf
            doubt = np.flatnonzero(screen[rows, np.argmin(screen, axis=1)] <= limit)
            diff = np.take(centroids, nearest, axis=0, out=buffers.take("diff", x.shape))
            np.subtract(x, diff, out=diff)
            exact = np.sum(np.square(diff, out=diff), axis=1)
            if doubt.size:
                close = screen[doubt] <= limit[doubt, None]
                close[np.arange(doubt.size), nearest[doubt]] = True
                # Exact distances of the close pairs; argmin takes the lowest index among the least.
                pair_d2 = np.full(close.shape, np.inf)
                pair_row, pair_centre = np.nonzero(close)
                pair_d2[pair_row, pair_centre] = _sq_dist(x, doubt[pair_row], centroids, pair_centre)
                nearest[doubt] = np.argmin(pair_d2, axis=1)
                exact[doubt] = pair_d2.min(axis=1)
            labels[start : start + x.shape[0]] = nearest
            sq_dists[start : start + x.shape[0]] = exact

    list(map_in_order(assign_block, range(0, n, block_rows), threads, 2 * threads))
    return labels, sq_dists


def _kmeanspp_init(features: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii 2007): each draw weighted by d2.

    After each draw only the rows that the new centre might bring closer get
    their exact distance (see the module docstring).
    """
    n, dim = features.shape
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(n)
    d2 = _sq_dist(features, np.arange(n), features, chosen[0])
    row_sq = np.einsum("ij,ij->i", features, features)
    cumulative = np.empty(n)
    approx = np.empty(n)
    margin = np.empty(n)
    mask = np.empty(n, dtype=bool)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            chosen[i] = rng.integers(n)
        else:
            np.cumsum(d2, out=cumulative)
            draw = rng.random() * total
            chosen[i] = np.searchsorted(cumulative, draw, side="right")
        centre = chosen[i]
        np.add(row_sq, row_sq[centre], out=margin)
        np.matmul(features, features[centre], out=approx)
        approx *= -2.0
        approx += margin
        margin *= _MARGIN_UNITS * (dim + 1) * 2.0**-52
        approx -= margin
        # Rows failing approx - margin >= d2; NaN and inf fail it too.
        np.greater_equal(approx, d2, out=mask)
        rows = np.flatnonzero(np.logical_not(mask, out=mask))
        d2[rows] = np.minimum(d2[rows], _sq_dist(features, rows, features, centre))
    return features[chosen].copy()


def train_kmeans(
    features: np.ndarray,
    k: int,
    seed: int,
    max_iters: int = 100,
    tol: float = 1e-6,
    threads: int = 1,
) -> KMeansModel:
    """Lloyd iterations from a k-means++ start; deterministic given the seed.

    Stops when no centroid moves more than ``tol`` (euclidean) or after
    ``max_iters`` update steps. Empty clusters are re-seeded at the point
    currently farthest from its centroid. The assignments run on
    ``threads`` threads; the model does not depend on their number.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    if not np.isfinite(features).all():
        raise ValueError("features must be finite")
    n, dim = features.shape
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < k:
        raise ValueError(f"need at least k={k} rows, got {n}")

    # The BLAS products are small, so their thread pool would only queue
    # beside the assignment's own threads.
    with _one_blas_thread:
        pool = _BufferPool()
        centroids = _kmeanspp_init(features, k, np.random.default_rng(seed))
        iterations = 0
        for _ in range(max_iters):
            labels, sq_dists = _assign(features, centroids, threads, pool)
            sums = np.empty((k, dim))
            for j in range(dim):
                sums[:, j] = np.bincount(labels, weights=features[:, j], minlength=k)
            sizes = np.bincount(labels, minlength=k)
            empty = np.nonzero(sizes == 0)[0]
            if empty.size:
                farthest = np.argsort(-sq_dists, kind="stable")
                for slot, cluster in enumerate(empty):
                    sums[cluster] = features[farthest[slot]]
                    sizes[cluster] = 1
            new_centroids = sums / sizes[:, None]
            shift = float(np.sqrt(np.sum((new_centroids - centroids) ** 2, axis=1)).max())
            centroids = new_centroids
            iterations += 1
            if shift < tol:
                break
        _, sq_dists = _assign(features, centroids, threads, pool)
    return KMeansModel(
        k=k,
        centroids=centroids,
        feature_dim=dim,
        iterations_run=iterations,
        final_inertia=float(np.sum(sq_dists)),
    )


def apply_kmeans(model: KMeansModel, features: np.ndarray) -> np.ndarray:
    """Nearest-centroid label per feature row; empty input gives an empty array."""
    features = np.asarray(features, dtype=np.float64)
    if features.size == 0:
        return np.empty(0, dtype=np.int64)
    if features.ndim != 2 or features.shape[1] != model.feature_dim:
        raise ValueError(
            f"features must be N x {model.feature_dim}, got {features.shape}"
        )
    return _assign(features, model.centroids, 1)[0]


def save_kmeans_model(model: KMeansModel, path: str | Path, config_echo: dict | None = None) -> None:
    """JSON container with exact float64 round-trip via repr."""
    payload = {
        "k": model.k,
        "feature_dim": model.feature_dim,
        "iterations_run": model.iterations_run,
        "final_inertia": model.final_inertia,
        "centroids": [[float(v) for v in row] for row in model.centroids],
        "config_echo": config_echo or {},
    }
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, indent=None, separators=(",", ":")) + "\n",
        encoding="utf-8",
        newline="\n",
    )


def load_kmeans_model(path: str | Path) -> tuple[KMeansModel, dict]:
    """Read a model written by :func:`save_kmeans_model` and its config echo.

    Raises ``ValueError`` naming ``path`` when the file is not a model in
    that format: not JSON, a missing field, or a field of the wrong shape.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        model = KMeansModel(
            k=payload["k"],
            centroids=np.array(payload["centroids"], dtype=np.float64),
            feature_dim=payload["feature_dim"],
            iterations_run=payload["iterations_run"],
            final_inertia=payload["final_inertia"],
        )
    except KeyError as exc:
        raise ValueError(f"{path}: model file lacks the {exc} field") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad model file ({exc})") from None
    return model, payload.get("config_echo", {})


def read_wav_mono(path: str | Path, expected_rate_hz: int) -> np.ndarray:
    """Samples of a 16-bit PCM mono WAV as float64 in [-1, 1)."""
    pcm = np.frombuffer(read_wav_pcm16(path, expected_rate_hz), dtype="<i2")
    # One pass into one array; scaling by 2**-15 is exact, like / 32768.
    return np.multiply(pcm, 2.0**-15, out=np.empty(pcm.shape))


def read_wav_pcm16(path: str | Path, expected_rate_hz: int) -> bytes:
    """The data of a 16-bit PCM mono WAV at ``expected_rate_hz``, two bytes per sample.

    Raises :class:`AudioError` naming the file when it cannot be read, has
    another channel count, sample width or rate, or its data ends mid-sample.
    """
    path = Path(path)
    try:
        with wave.open(str(path), "rb") as handle:
            channels = handle.getnchannels()
            width = handle.getsampwidth()
            rate = handle.getframerate()
            n = handle.getnframes()
            raw = handle.readframes(n)
    except (wave.Error, OSError) as exc:
        raise AudioError(f"{path}: cannot read WAV ({exc})") from exc
    if channels != 1:
        raise AudioError(f"{path}: expected mono audio, got {channels} channels")
    if width != 2:
        raise AudioError(f"{path}: expected 16-bit PCM, got {8 * width}-bit")
    if rate != expected_rate_hz:
        raise AudioError(
            f"{path}: sample rate {rate} Hz does not match expected {expected_rate_hz} Hz"
        )
    if len(raw) % 2:
        raise AudioError(f"{path}: WAV data ends mid-sample ({len(raw)} bytes of 16-bit samples)")
    return raw


@functools.cache
def _openblas_thread_calls():
    """``(get, set)`` of the loaded OpenBLAS's thread count, or None where none is found.

    Looks in ``/proc/self/maps`` for a mapped file whose name contains
    ``openblas`` and in it for ``openblas_{get,set}_num_threads``, also under
    the scipy-openblas names (prefix ``scipy_``, ILP64 suffix ``64_``).
    """
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="surrogateescape") as maps:
            # address, perms, offset, dev, inode, then the path of a mapped file
            paths = {fields[5] for fields in (line.rstrip("\n").split(maxsplit=5) for line in maps)
                     if len(fields) == 6}
    except OSError:
        return None
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p).lower()):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("", ""), ("scipy_", "64_"), ("scipy_", ""), ("", "64_")):
            get = getattr(library, f"{prefix}openblas_get_num_threads{suffix}", None)
            set_ = getattr(library, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


class _OneBlasThread:
    """Context manager: OpenBLAS runs on one thread inside, at its earlier count after.

    The count is one setting for the whole process, so one instance serves
    every caller: overlapping uses share the pin, and the last to leave
    restores the count that the first one found. Without a loaded OpenBLAS
    that exports the calls (or without ``/proc``) it does nothing.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._calls = None
        self._before = 0

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._calls = _openblas_thread_calls()
                if self._calls is not None:
                    self._before = self._calls[0]()
                    self._calls[1](1)
            self._depth += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._calls is not None:
                self._calls[1](self._before)


_one_blas_thread = _OneBlasThread()


class _Buffers:
    """One worker's reusable float64 arrays, by name, each grown to its largest request."""

    def __init__(self):
        self._flat: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """An uninitialised ``shape`` view of buffer ``name``, which grows if it is too small."""
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size)
        return flat[:size].reshape(shape)


# Per thread: ``buffers``, the set lent to the task running on it.
_worker = threading.local()


class _BufferPool:
    """Buffer sets that the tasks of one call borrow, one task per set at a time.

    At most as many sets exist as tasks run at once, and they are freed with
    the pool.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._free: list[_Buffers] = []

    @contextlib.contextmanager
    def lend(self):
        """The set held by this thread inside the block: its own, if it already holds one."""
        held = getattr(_worker, "buffers", None)
        if held is not None:
            yield held
            return
        with self._lock:
            buffers = self._free.pop() if self._free else _Buffers()
        _worker.buffers = buffers
        try:
            yield buffers
        finally:
            _worker.buffers = None
            with self._lock:
                self._free.append(buffers)


def _buffers() -> _Buffers:
    """The set lent to this thread, or a fresh one that is freed after its last use."""
    held = getattr(_worker, "buffers", None)
    return held if held is not None else _Buffers()


def map_manifest(function, manifest: AudioManifest, threads: int) -> list:
    """``function`` of each manifest entry, in manifest order, run on ``threads`` threads.

    The workers run with one BLAS thread each (see :class:`_OneBlasThread`):
    their matrix products are small, and a BLAS thread pool beside them
    would make them queue on it. At most ``4 * threads`` entries are
    submitted ahead of the first unfinished one, so the pool's bookkeeping
    does not grow with the manifest. The first failing entry, in manifest
    order, raises, as ``utterance '<id>': <message>`` if it is an
    :class:`AudioError`, and entries not yet started are not run. Each call
    borrows a buffer set from a pool of this call (see :class:`_BufferPool`),
    so the functions of this module that it runs reuse their temporaries
    from one entry to the next.
    """
    pool = _BufferPool()

    def run(entry):
        with pool.lend():
            try:
                return function(entry)
            except AudioError as exc:
                raise AudioError(f"utterance {entry.id!r}: {exc}") from exc

    with _one_blas_thread:
        return list(map_in_order(run, manifest.entries, threads, 4 * threads))


def _discretize_entry(entry, model: KMeansModel, config: MfccConfig) -> LabelSequence:
    samples = read_wav_mono(entry.audio_path, config.sample_rate_hz)
    try:
        feats = compute_mfcc(samples, config)
    except AudioError as exc:
        raise AudioError(f"{entry.audio_path}: {exc}") from exc
    labels = apply_kmeans(model, feats)
    return LabelSequence(
        id=entry.id,
        duration_s=samples.shape[0] / config.sample_rate_hz,
        labels=labels,
    )


def discretize_manifest(
    manifest: AudioManifest,
    model: KMeansModel,
    config: MfccConfig,
    skip_bad: bool = False,
    max_workers: int = 1,
) -> LabelCorpus:
    """One label sequence per manifest entry, in manifest order.

    A failing entry aborts the run, and :func:`map_manifest` names it,
    unless ``skip_bad`` is set, in which case it is logged, in manifest
    order, and omitted. Work is farmed over ``max_workers`` threads;
    output order never depends on completion order.
    """
    if model.feature_dim != config.feature_dim:
        raise ValueError(
            f"model expects {model.feature_dim}-dim features but config produces "
            f"{config.feature_dim}-dim"
        )

    def worker(entry):
        try:
            return _discretize_entry(entry, model, config)
        except AudioError as exc:
            if not skip_bad:
                raise
            return exc

    sequences = []
    for entry, result in zip(manifest.entries, map_manifest(worker, manifest, max_workers)):
        if isinstance(result, AudioError):
            logger.warning("skipping %s: %s", entry.id, result)
        else:
            sequences.append(result)

    return LabelCorpus(alphabet_size=model.k, sequences=sequences)
