"""Seeded input generators for the scdselect benchmark.

Every file written here is a pure function of the workload seed: the same
seed gives byte-identical files. The two sources' preferences (which labels,
or which phones, each favours) are fixed by ``SOURCE_SEED``, so a workload
seed only draws a new sample from the same population.

Label corpora imitate discretized speech: K=500 cluster labels, utterances of
400-600 labels, labels in runs of about 4 frames (a 10 ms frame shift makes
that 40 ms), Zipf-skewed label frequencies, and two sources with different
label preferences. The pool mixes 20% of source B into source A; the query
is pure source B, so a good selection leans towards B.

Audio is synthetic 16 kHz mono 16-bit PCM: runs of "phones", each a few
formant tones on a voiced pulse or on noise, drawn from the same two-source
scheme.
"""

from __future__ import annotations

import os
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SOURCE_SEED = 20230226
ALPHABET_SIZE = 500
LENGTH_RANGE = (400, 600)
MEAN_RUN_FRAMES = 4.0
ZIPF_EXPONENT = 1.0
POOL_SHARE_B = 0.2
QUERY_UTTERANCES = 200
FRAMES_PER_SECOND = 100  # a 10 ms frame shift
WRITE_CHUNK_UTTS = 4096  # utterances formatted per bulk step

SAMPLE_RATE_HZ = 16000
N_PHONES = 48
PHONE_MS_RANGE = (40, 160)

# Independent random streams drawn from one workload seed.
_STREAM_POOL, _STREAM_QUERY, _STREAM_AUDIO = 1, 2, 3


@dataclass(frozen=True)
class LabelSet:
    """A label corpus held as one flat label array plus per-utterance lengths."""

    ids: tuple[str, ...]
    lengths: np.ndarray  # int64, one per utterance
    labels: np.ndarray  # int32, all utterances concatenated
    from_b: np.ndarray  # bool, True where the utterance came from source B
    alphabet_size: int

    @property
    def offsets(self) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(self.lengths)))


def _zipf_preferences(n_items: int) -> tuple[np.ndarray, np.ndarray]:
    """Probability vectors of sources A and B: one Zipf law under two permutations."""
    rng = np.random.default_rng(SOURCE_SEED)
    zipf = 1.0 / np.arange(1, n_items + 1) ** ZIPF_EXPONENT
    zipf /= zipf.sum()
    prefs = []
    for _ in range(2):
        probs = np.empty(n_items)
        probs[rng.permutation(n_items)] = zipf
        prefs.append(probs)
    return prefs[0], prefs[1]


def _choose_b(rng: np.random.Generator, n_utts: int, share_b: float) -> np.ndarray:
    from_b = np.zeros(n_utts, dtype=bool)
    from_b[rng.choice(n_utts, size=int(round(n_utts * share_b)), replace=False)] = True
    return from_b


def _draw(rng: np.random.Generator, probs: np.ndarray, n: int) -> np.ndarray:
    cdf = np.cumsum(probs)
    return np.minimum(np.searchsorted(cdf, rng.random(n) * cdf[-1], side="right"), len(probs) - 1)


def _label_stream(rng: np.random.Generator, probs: np.ndarray, n_labels: int) -> np.ndarray:
    """``n_labels`` labels in geometric runs of mean ``MEAN_RUN_FRAMES``."""
    n_runs = int(n_labels / MEAN_RUN_FRAMES * 1.1) + 64
    run_lengths = rng.geometric(1.0 / MEAN_RUN_FRAMES, size=n_runs)
    while run_lengths.sum() < n_labels:
        run_lengths = np.concatenate((run_lengths, rng.geometric(1.0 / MEAN_RUN_FRAMES, size=n_runs)))
    run_labels = _draw(rng, probs, run_lengths.shape[0]).astype(np.int32)
    return np.repeat(run_labels, run_lengths)[:n_labels]


def label_set(seed: int, n_utts: int, share_b: float, id_prefix: str, stream: int) -> LabelSet:
    """``n_utts`` utterances, a ``share_b`` fraction of them from source B."""
    rng = np.random.default_rng([seed, stream])
    lengths = rng.integers(LENGTH_RANGE[0], LENGTH_RANGE[1] + 1, size=n_utts).astype(np.int64)
    from_b = _choose_b(rng, n_utts, share_b)
    labels = np.empty(int(lengths.sum()), dtype=np.int32)
    label_from_b = np.repeat(from_b, lengths)
    for source, probs in zip((False, True), _zipf_preferences(ALPHABET_SIZE)):
        mask = label_from_b == source
        labels[mask] = _label_stream(rng, probs, int(mask.sum()))
    width = len(str(n_utts - 1))
    ids = tuple(f"{id_prefix}{i:0{width}d}" for i in range(n_utts))
    return LabelSet(ids, lengths, labels, from_b, ALPHABET_SIZE)


def pool_and_query(seed: int, n_pool: int) -> tuple[LabelSet, LabelSet]:
    pool = label_set(seed, n_pool, POOL_SHARE_B, "u", _STREAM_POOL)
    query = label_set(seed, QUERY_UTTERANCES, 1.0, "q", _STREAM_QUERY)
    return pool, query


def _token_table(alphabet_size: int) -> tuple[np.ndarray, np.ndarray]:
    """ASCII of ``"<label> "`` for every label, padded to one width, and its length."""
    width = len(str(alphabet_size - 1)) + 1
    table = np.zeros((alphabet_size, width), dtype=np.uint8)
    token_len = np.empty(alphabet_size, dtype=np.int64)
    for label in range(alphabet_size):
        token = f"{label} ".encode("ascii")
        table[label, : len(token)] = np.frombuffer(token, dtype=np.uint8)
        token_len[label] = len(token)
    return table, token_len


def write_label_corpus(path: Path, labels: LabelSet) -> None:
    """Write ``labels`` in the label-corpus file format, formatting labels in bulk.

    Durations are the label count at ``FRAMES_PER_SECOND``.
    """
    table, token_len = _token_table(labels.alphabet_size)
    width = table.shape[1]
    offsets = labels.offsets
    with open(path, "wb") as out:
        out.write(f"#K={labels.alphabet_size}\n".encode("ascii"))
        for first in range(0, len(labels.ids), WRITE_CHUNK_UTTS):
            stop = min(len(labels.ids), first + WRITE_CHUNK_UTTS)
            chunk = labels.labels[offsets[first] : offsets[stop]]
            tokens = table[chunk]
            lengths = token_len[chunk]
            last = offsets[first + 1 : stop + 1] - offsets[first] - 1
            tokens[last, lengths[last] - 1] = ord("\n")  # last label's space ends the line
            body = memoryview(tokens[np.arange(width) < lengths[:, None]].tobytes())
            line_ends = np.cumsum(lengths)[last]
            line_starts = np.concatenate(([0], line_ends[:-1]))
            for row, index in enumerate(range(first, stop)):
                duration = int(labels.lengths[index]) / FRAMES_PER_SECOND
                out.write(f"{labels.ids[index]}\t{duration!r}\t".encode("ascii"))
                out.write(body[line_starts[row] : line_ends[row]])
        out.flush()
        os.fsync(out.fileno())  # no writeback of the inputs while the program runs


@dataclass(frozen=True)
class AudioSet:
    ids: tuple[str, ...]
    paths: tuple[Path, ...]
    from_b: np.ndarray
    n_samples: int

    @property
    def seconds(self) -> float:
        return len(self.ids) * self.n_samples / SAMPLE_RATE_HZ


def _phone_inventory() -> np.ndarray:
    """Per phone: three formant frequencies in Hz and a voiced flag."""
    rng = np.random.default_rng([SOURCE_SEED, _STREAM_AUDIO])
    f1 = rng.uniform(250.0, 900.0, N_PHONES)
    f2 = rng.uniform(850.0, 2500.0, N_PHONES)
    f3 = rng.uniform(2300.0, 3800.0, N_PHONES)
    voiced = rng.random(N_PHONES) < 0.75
    return np.stack([f1, f2, f3, voiced.astype(np.float64)], axis=1)


def _utterance_samples(
    rng: np.random.Generator, probs: np.ndarray, phones: np.ndarray, n_samples: int
) -> np.ndarray:
    ms_lo, ms_hi = PHONE_MS_RANGE
    n_segments = n_samples * 1000 // (SAMPLE_RATE_HZ * ms_lo) + 1
    seg_len = rng.integers(ms_lo, ms_hi + 1, size=n_segments) * SAMPLE_RATE_HZ // 1000
    seg_phone = _draw(rng, probs, n_segments)
    jitter = rng.uniform(0.95, 1.05, size=(n_segments, 3))
    formants = np.repeat(phones[seg_phone, :3] * jitter, seg_len, axis=0)[:n_samples]
    voiced = np.repeat(phones[seg_phone, 3], seg_len)[:n_samples]
    f0 = rng.uniform(90.0, 220.0)
    two_pi_dt = 2.0 * np.pi / SAMPLE_RATE_HZ
    pulse = 0.6 + 0.4 * np.sin(two_pi_dt * f0 * np.arange(n_samples))
    tones = np.sin(np.cumsum(formants * two_pi_dt, axis=0)) @ np.array([1.0, 0.6, 0.3])
    noise = rng.standard_normal(n_samples)
    signal = np.where(voiced > 0, tones * pulse + 0.05 * noise, 0.3 * tones + 0.6 * noise)
    return np.round(signal / np.abs(signal).max() * 0.3 * 32767.0).astype("<i2")


def write_audio(directory: Path, seed: int, n_utts: int, seconds: float) -> AudioSet:
    """``n_utts`` WAV files of ``seconds`` each plus a manifest, 20% from source B."""
    rng = np.random.default_rng([seed, _STREAM_AUDIO])
    from_b = _choose_b(rng, n_utts, POOL_SHARE_B)
    prefs = _zipf_preferences(N_PHONES)
    phones = _phone_inventory()
    n_samples = int(round(seconds * SAMPLE_RATE_HZ))
    width = len(str(n_utts - 1))
    ids, paths = [], []
    for index in range(n_utts):
        samples = _utterance_samples(rng, prefs[int(from_b[index])], phones, n_samples)
        utt_id = f"a{index:0{width}d}"
        path = directory / f"{utt_id}.wav"
        with wave.open(str(path), "wb") as handle:
            handle.setnchannels(1)
            handle.setsampwidth(2)
            handle.setframerate(SAMPLE_RATE_HZ)
            handle.writeframes(samples.tobytes())
        ids.append(utt_id)
        paths.append(path)
    return AudioSet(tuple(ids), tuple(paths), from_b, n_samples)


def write_manifest(path: Path, audio: AudioSet) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        for utt_id, wav in zip(audio.ids, audio.paths):
            out.write(f"{utt_id}\t{wav}\n")
