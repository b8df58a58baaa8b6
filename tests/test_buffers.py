"""The audio workers' reusable buffers: never seen by a caller, never stale.

``map_manifest`` and ``train_kmeans`` lend each running task a set of
buffers that lives as long as the call; ``compute_mfcc`` and the k-means
assignment take their large temporaries from it. These tests pin that the
labels of interleaved long and short utterances equal a from-scratch
reference at every thread count, that no returned array shares memory with
another or changes later, that the sets die with the call, and that a warm
worker allocates no large temporary.
"""

import gc
import itertools
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from scdselect import discretizer
from scdselect.corpus import AudioManifest, ManifestEntry
from scdselect.discretizer import (
    KMeansModel,
    MfccConfig,
    apply_kmeans,
    compute_mfcc,
    discretize_manifest,
    map_manifest,
    read_wav_mono,
    read_wav_pcm16,
    train_kmeans,
)

from test_discretizer import reference_assign, tone, write_wav
from test_frame_pool import reference_compute_mfcc

# Long and short utterances in turn, so every worker meets a short one
# after a long one; 400 samples is one frame.
LENGTHS = (64000, 4800, 48000, 400, 64123, 8000, 40000, 2000, 56000, 12345)
# A manifest of one entry, for functions that read no file.
ONE_ENTRY = AudioManifest(entries=(ManifestEntry(id="u0", audio_path="u0.wav"),))


@pytest.fixture(scope="module")
def interleaved(tmp_path_factory):
    """(manifest, model) over WAVs of ``LENGTHS``; the model has k=16."""
    directory = tmp_path_factory.mktemp("interleaved")
    entries = []
    for i, n in enumerate(LENGTHS):
        path = directory / f"u{i}.wav"
        write_wav(path, tone(n, freq=120.0 + 90 * i, seed=i))
        entries.append(ManifestEntry(id=f"u{i}", audio_path=str(path)))
    manifest = AudioManifest(entries=tuple(entries))
    frames = np.concatenate([reference_features(entry.audio_path) for entry in entries[:3]])
    return manifest, train_kmeans(frames, k=16, seed=0, max_iters=5)


def reference_features(path):
    """MFCCs by the whole-matrix formulas, from samples converted as ``/ 32768``."""
    pcm = np.frombuffer(read_wav_pcm16(path, 16000), dtype="<i2")
    return reference_compute_mfcc(pcm.astype(np.float64) / 32768.0, MfccConfig())


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_interleaved_labels_match_a_fresh_reference(interleaved, threads):
    manifest, model = interleaved
    corpus = discretize_manifest(manifest, model, MfccConfig(), max_workers=threads)
    assert [seq.id for seq in corpus.sequences] == [entry.id for entry in manifest.entries]
    for seq, entry, n in zip(corpus.sequences, manifest.entries, LENGTHS):
        expected, _ = reference_assign(reference_features(entry.audio_path), model.centroids)
        assert np.array_equal(seq.labels, expected), entry.id
        assert seq.duration_s == n / 16000


def test_more_workers_than_cores_with_frequent_switches(interleaved):
    # Workers that shared a set, or lost one back to the pool, would mix
    # utterances or blocks; a short switch interval makes that likely.
    manifest, model = interleaved
    expected = discretize_manifest(manifest, model, MfccConfig(), max_workers=1)
    features = np.random.default_rng(3).standard_normal((4000, 39))
    single = train_kmeans(features, k=64, seed=0, max_iters=3, threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        corpus = discretize_manifest(manifest, model, MfccConfig(), max_workers=6)
        trained = train_kmeans(features, k=64, seed=0, max_iters=3, threads=6)
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(corpus.sequences, expected.sequences, strict=True):
        assert np.array_equal(got.labels, want.labels), got.id
    assert trained.centroids.tobytes() == single.centroids.tobytes()


@pytest.mark.parametrize("threads", [1, 2])
def test_returned_arrays_are_fresh_and_stay_unchanged(interleaved, threads):
    manifest, model = interleaved

    def function(entry):
        samples = read_wav_mono(entry.audio_path, 16000)
        feats = compute_mfcc(samples, MfccConfig())
        labels = apply_kmeans(model, feats)
        arrays = (samples, feats, labels)
        return arrays, tuple(array.copy() for array in arrays)

    results = map_manifest(function, manifest, threads)
    arrays = [array for returned, _ in results for array in returned]
    for a, b in itertools.combinations(arrays, 2):
        assert not np.shares_memory(a, b)
    for returned, copies in results:
        for array, copy in zip(returned, copies):
            assert array.tobytes() == copy.tobytes()


@pytest.fixture
def buffer_sets(monkeypatch):
    """Weak references to every buffer set made while the test runs."""
    made = []

    class Recorded(discretizer._Buffers):
        def __init__(self):
            super().__init__()
            made.append(weakref.ref(self))

    monkeypatch.setattr(discretizer, "_Buffers", Recorded)
    return made


@pytest.mark.parametrize("threads", [1, 2])
def test_sets_are_one_per_worker_and_die_with_the_call(interleaved, buffer_sets, threads):
    manifest, model = interleaved
    discretize_manifest(manifest, model, MfccConfig(), max_workers=threads)
    gc.collect()
    assert 1 <= len(buffer_sets) <= threads
    assert all(ref() is None for ref in buffer_sets)

    buffer_sets.clear()
    features = np.random.default_rng(0).standard_normal((3000, 39))
    train_kmeans(features, k=256, seed=0, max_iters=3, threads=threads)
    gc.collect()
    assert 1 <= len(buffer_sets) <= threads
    assert all(ref() is None for ref in buffer_sets)
    assert getattr(discretizer._worker, "pool", None) is None


def traced_peak(function, *args):
    """Traced peak bytes of one ``function(*args)`` call."""
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("threads", [1, 2])
def test_warm_worker_allocates_no_large_temporary(threads):
    # Without the buffers, one 4 s MFCC peaks near 1.9 MB (its samples'
    # pre-emphasis, spectrum and log-mel matrix), and one 512-row block
    # of the assignment at k=256 holds its 1 MiB screen.
    config = MfccConfig()
    signal = tone(64000, seed=3)
    rng = np.random.default_rng(1)
    features = rng.standard_normal((512, 39))
    centroids = rng.standard_normal((256, 39))
    peaks = {}

    def function(entry):
        compute_mfcc(signal, config)
        peaks["mfcc"] = traced_peak(compute_mfcc, signal, config)
        discretizer._assign(features, centroids, 1)
        peaks["assign"] = traced_peak(discretizer._assign, features, centroids, 1)

    map_manifest(function, ONE_ENTRY, threads)
    assert peaks["mfcc"] < 500_000, peaks
    assert peaks["assign"] < 512 * 256 * 8, peaks


def test_block_assignment_matches_the_reference_after_larger_blocks():
    # A 512-row block leaves its screen and differences in the set; a
    # later, shorter input must not read their stale rows.
    rng = np.random.default_rng(2)
    model = KMeansModel(k=256, centroids=rng.standard_normal((256, 39)), feature_dim=39,
                        iterations_run=0, final_inertia=0.0)
    inputs = [rng.standard_normal((n, 39)) for n in (1500, 7, 511, 1, 1024)]

    def function(entry):
        return [apply_kmeans(model, x) for x in inputs]

    (labels,) = map_manifest(function, ONE_ENTRY, 1)
    for got, x in zip(labels, inputs):
        assert np.array_equal(got, reference_assign(x, model.centroids)[0])
