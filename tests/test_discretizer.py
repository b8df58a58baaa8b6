import tracemalloc
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scdselect import discretizer
from scdselect.corpus import AudioManifest, ManifestEntry
from scdselect.discretizer import (
    AudioError,
    KMeansModel,
    MfccConfig,
    apply_kmeans,
    compute_mfcc,
    discretize_manifest,
    load_kmeans_model,
    num_frames,
    read_wav_mono,
    read_wav_pcm16,
    save_kmeans_model,
    train_kmeans,
)


def write_wav(path, samples, rate=16000):
    pcm = np.round(np.clip(samples, -1.0, 1.0) * 32767).astype("<i2")
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(rate)
        handle.writeframes(pcm.tobytes())


def tone(n, freq=440.0, rate=16000, seed=None):
    t = np.arange(n) / rate
    signal = 0.4 * np.sin(2 * np.pi * freq * t)
    if seed is not None:
        signal += 0.05 * np.random.default_rng(seed).standard_normal(n)
    return signal


class TestMfcc:
    def test_frame_count_formula(self):
        config = MfccConfig()
        # 1 + floor((16000 - 400) / 160) = 98
        assert num_frames(16000, config) == 1 + (16000 - 400) // 160 == 98
        feats = compute_mfcc(tone(16000), config)
        assert feats.shape == (98, 39)

    def test_single_frame_boundary(self):
        config = MfccConfig()
        feats = compute_mfcc(tone(400), config)
        assert feats.shape[0] == 1

    def test_random_lengths_obey_formula(self):
        config = MfccConfig()
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(400, 20000))
            expected = 1 + (n - 400) // 160
            assert compute_mfcc(tone(n), config).shape[0] == expected

    def test_zero_signal_is_finite(self):
        feats = compute_mfcc(np.zeros(1600), MfccConfig())
        assert np.isfinite(feats).all()

    def test_too_short_rejected(self):
        with pytest.raises(AudioError, match="shorter"):
            compute_mfcc(tone(399), MfccConfig())

    def test_sample_rate_mismatch_rejected(self):
        with pytest.raises(AudioError, match="does not match"):
            compute_mfcc(tone(16000), MfccConfig(), sample_rate_hz=8000)

    def test_no_deltas_dim(self):
        config = MfccConfig(include_deltas=False)
        assert compute_mfcc(tone(1600), config).shape[1] == 13

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MfccConfig(frame_length_ms=10.0, frame_shift_ms=25.0)
        with pytest.raises(ValueError):
            MfccConfig(num_coeffs=30, num_mel_filters=26)

    @pytest.mark.parametrize("field,value,message", [
        ("sample_rate_hz", 0, "sample_rate_hz must be positive"),
        ("preemphasis", 1.0, "preemphasis must be in"),
    ])
    def test_rate_and_preemphasis_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            MfccConfig(**{field: value})

    @pytest.mark.parametrize("length,shift", [(float("inf"), 10.0), (float("nan"), 10.0),
                                              (25.0, float("nan"))])
    def test_non_finite_frame_sizes_rejected(self, length, shift):
        with pytest.raises(ValueError, match="finite"):
            MfccConfig(frame_length_ms=length, frame_shift_ms=shift)

    @pytest.mark.parametrize("shift", [1e-9, 0.03])
    def test_shift_below_one_sample_rejected(self, shift):
        # 0.03 ms is 0.48 samples at 16 kHz and rounds to 0.
        with pytest.raises(ValueError, match="below one sample"):
            MfccConfig(frame_shift_ms=shift)
        assert MfccConfig(frame_length_ms=0.1, frame_shift_ms=0.04).frame_shift_samples == 1


def two_clouds(n_per=40, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(loc=(-5.0, 0.0), scale=0.1, size=(n_per, 2))
    b = rng.normal(loc=(5.0, 1.0), scale=0.1, size=(n_per, 2))
    return np.vstack([a, b])


class TestKMeans:
    def test_separable_clouds(self):
        features = two_clouds()
        model = train_kmeans(features, k=2, seed=3)
        means = sorted([features[:40].mean(axis=0), features[40:].mean(axis=0)], key=lambda m: m[0])
        got = sorted(model.centroids.tolist(), key=lambda m: m[0])
        np.testing.assert_allclose(got, means, atol=1e-8)

    def test_k_equals_rows(self):
        rng = np.random.default_rng(1)
        features = rng.standard_normal((6, 3))
        model = train_kmeans(features, k=6, seed=0)
        assert model.final_inertia == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_model_bytes(self, tmp_path):
        features = two_clouds(seed=5)
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_kmeans_model(train_kmeans(features, k=3, seed=11), p1)
        save_kmeans_model(train_kmeans(features, k=3, seed=11), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_fewer_rows_than_k(self):
        with pytest.raises(ValueError, match="at least k"):
            train_kmeans(np.zeros((3, 2)), k=4, seed=0)

    def test_non_finite_rejected(self):
        bad = np.zeros((5, 2))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            train_kmeans(bad, k=2, seed=0)

    @pytest.mark.parametrize("features,k,message", [
        (np.zeros(5), 2, "2-D matrix"),
        (np.zeros((5, 2)), 0, "k must be >= 1"),
    ])
    def test_bad_shape_or_k_rejected(self, features, k, message):
        with pytest.raises(ValueError, match=message):
            train_kmeans(features, k=k, seed=0)

    def test_inertia_non_increasing_across_iterations(self):
        # Same seed and tol=0 make every run follow one trajectory, so the
        # final inertia after t updates is the iteration-t inertia.
        rng = np.random.default_rng(13)
        features = rng.standard_normal((300, 4))
        inertias = [
            train_kmeans(features, k=6, seed=5, max_iters=t, tol=0.0).final_inertia
            for t in range(1, 9)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(inertias, inertias[1:]))

    def test_reported_inertia_consistent(self):
        rng = np.random.default_rng(8)
        features = rng.standard_normal((200, 5))
        model = train_kmeans(features, k=7, seed=2)
        labels = apply_kmeans(model, features)
        recomputed = float(((features - model.centroids[labels]) ** 2).sum())
        assert recomputed == pytest.approx(model.final_inertia, rel=1e-6)

    def test_model_round_trip_exact(self, tmp_path):
        model = train_kmeans(two_clouds(seed=9), k=4, seed=7)
        path = tmp_path / "model.json"
        save_kmeans_model(model, path, config_echo={"note": "test"})
        loaded, echo = load_kmeans_model(path)
        assert echo == {"note": "test"}
        assert loaded.k == model.k
        assert loaded.iterations_run == model.iterations_run
        assert loaded.final_inertia == model.final_inertia
        np.testing.assert_array_equal(loaded.centroids, model.centroids)

    @pytest.mark.parametrize("text,message", [
        ('{"k": 2}', "model file lacks the 'centroids' field"),
        ("{not json", "bad model file"),
        ("[1, 2]", "bad model file"),
        ('{"k": 2, "feature_dim": 2, "iterations_run": 1, "final_inertia": 0.0, '
         '"centroids": [[0.0, 0.0]]}', "bad model file"),
    ])
    def test_malformed_model_file_named(self, tmp_path, text, message):
        path = tmp_path / "model.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"model.json: {message}"):
            load_kmeans_model(path)


class TestApplyKMeans:
    def _model(self):
        centroids = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [4.0, 4.0]])
        return KMeansModel(k=4, centroids=centroids, feature_dim=2, iterations_run=1, final_inertia=0.0)

    def test_exact_centroid_hit(self):
        model = self._model()
        assert apply_kmeans(model, np.array([[4.0, 4.0]]))[0] == 3

    def test_tie_goes_to_lowest_index(self):
        model = self._model()
        # (1, 0) is equidistant from centroids 0 and 1
        assert apply_kmeans(model, np.array([[1.0, 0.0]]))[0] == 0

    def test_empty_input(self):
        assert apply_kmeans(self._model(), np.empty((0, 2))).shape == (0,)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="features must be"):
            apply_kmeans(self._model(), np.zeros((3, 5)))

    def test_matches_brute_force_nearest(self):
        rng = np.random.default_rng(4)
        model = train_kmeans(rng.standard_normal((120, 3)), k=9, seed=1)
        points = rng.standard_normal((50, 3))
        fast = apply_kmeans(model, points)
        for i, point in enumerate(points):
            dists = [float(((point - c) ** 2).sum()) for c in model.centroids]
            assert fast[i] == int(np.argmin(dists))


class TestDiscretizeManifest:
    @pytest.fixture
    def setup(self, tmp_path):
        paths = []
        for i, n in enumerate([8000, 12000]):
            path = tmp_path / f"a{i}.wav"
            write_wav(path, tone(n, freq=300.0 + 200 * i, seed=i))
            paths.append(path)
        manifest = AudioManifest(
            entries=tuple(ManifestEntry(id=f"utt{i}", audio_path=str(p)) for i, p in enumerate(paths))
        )
        config = MfccConfig()
        frames = np.vstack([compute_mfcc(read_wav_mono(p, 16000), config) for p in paths])
        model = train_kmeans(frames, k=5, seed=0)
        return manifest, model, config, tmp_path

    def test_basic(self, setup):
        manifest, model, config, _ = setup
        corpus = discretize_manifest(manifest, model, config)
        assert len(corpus) == 2
        assert corpus.alphabet_size == 5
        assert corpus.ids == ("utt0", "utt1")
        # 8000 samples at 16 kHz: 0.5 s and 1 + (8000-400)//160 = 48 frames
        assert corpus.sequences[0].duration_s == pytest.approx(0.5)
        assert len(corpus.sequences[0]) == 48

    def test_bad_entry_aborts(self, setup):
        manifest, model, config, tmp_path = setup
        bad = AudioManifest(
            entries=manifest.entries + (ManifestEntry(id="missing", audio_path=str(tmp_path / "nope.wav")),)
        )
        with pytest.raises(AudioError, match="missing"):
            discretize_manifest(bad, model, config)

    def test_skip_bad_downgrades(self, setup, caplog):
        manifest, model, config, tmp_path = setup
        bad = AudioManifest(
            entries=manifest.entries + (ManifestEntry(id="missing", audio_path=str(tmp_path / "nope.wav")),)
        )
        with caplog.at_level("WARNING"):
            corpus = discretize_manifest(bad, model, config, skip_bad=True)
        assert corpus.ids == ("utt0", "utt1")
        assert any("missing" in m for m in caplog.messages)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_bad_entry_stops_the_run(self, setup, monkeypatch, threads):
        # The 4th of 40 entries is unreadable: only the three before it and
        # the entries submitted ahead of it (4 per thread) may run an MFCC.
        manifest, model, config, tmp_path = setup
        garbage = tmp_path / "garbage.wav"
        garbage.write_bytes(b"not a wav file")
        paths = [manifest.entries[0].audio_path] * 40
        paths[3] = str(garbage)
        many = AudioManifest(
            entries=tuple(ManifestEntry(id=f"u{i}", audio_path=p) for i, p in enumerate(paths))
        )
        calls = []
        real_mfcc = discretizer.compute_mfcc

        def counting_mfcc(samples, config):
            calls.append(1)
            return real_mfcc(samples, config)

        monkeypatch.setattr(discretizer, "compute_mfcc", counting_mfcc)
        with pytest.raises(AudioError, match=f"^utterance 'u3': {garbage}: cannot read WAV"):
            discretize_manifest(many, model, config, max_workers=threads)
        assert len(calls) <= 3 + 4 * threads

    def test_duplicate_manifest_id_rejected_upfront(self):
        with pytest.raises(ValueError, match="duplicate"):
            AudioManifest(
                entries=(
                    ManifestEntry(id="x", audio_path="a.wav"),
                    ManifestEntry(id="x", audio_path="b.wav"),
                )
            )

    def test_deterministic_and_thread_invariant(self, setup):
        manifest, model, config, _ = setup
        reference = discretize_manifest(manifest, model, config, max_workers=1)
        again = discretize_manifest(manifest, model, config, max_workers=1)
        threaded = discretize_manifest(manifest, model, config, max_workers=4)
        assert reference == again
        assert reference == threaded

    def test_dim_mismatch_rejected(self, setup):
        manifest, model, _, _ = setup
        with pytest.raises(ValueError, match="dim"):
            discretize_manifest(manifest, model, MfccConfig(include_deltas=False))


class TestReadWav:
    def test_rate_mismatch(self, tmp_path):
        path = tmp_path / "x.wav"
        write_wav(path, tone(4000, rate=8000), rate=8000)
        with pytest.raises(AudioError, match="sample rate"):
            read_wav_mono(path, 16000)

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "s.wav"
        pcm = (np.zeros((100, 2)) * 32767).astype("<i2")
        with wave.open(str(path), "wb") as handle:
            handle.setnchannels(2)
            handle.setsampwidth(2)
            handle.setframerate(16000)
            handle.writeframes(pcm.tobytes())
        with pytest.raises(AudioError, match="mono"):
            read_wav_mono(path, 16000)

    def test_8bit_rejected_names_file(self, tmp_path):
        path = tmp_path / "b.wav"
        with wave.open(str(path), "wb") as handle:
            handle.setnchannels(1)
            handle.setsampwidth(1)
            handle.setframerate(16000)
            handle.writeframes(bytes(range(100)))
        with pytest.raises(AudioError) as exc:
            read_wav_pcm16(path, 16000)
        assert str(exc.value) == f"{path}: expected 16-bit PCM, got 8-bit"

    def test_round_trip_values(self, tmp_path):
        path = tmp_path / "r.wav"
        samples = tone(1000, seed=3)
        write_wav(path, samples)
        loaded = read_wav_mono(path, 16000)
        assert loaded.shape == (1000,)
        np.testing.assert_allclose(loaded, samples, atol=1e-4)


# Reference k-means: brute-force versions of the definitions that the blocked,
# threaded ones in ``discretizer`` must reproduce bit for bit.


def reference_assign(features, centroids):
    """(labels, squared distances): each row's exact ``np.sum((x - c) ** 2)``
    to every centroid; the least wins, the lowest index on ties."""
    d2 = np.empty((features.shape[0], centroids.shape[0]))
    for j, centre in enumerate(centroids):
        d2[:, j] = np.sum((features - centre) ** 2, axis=1)
    labels = np.argmin(d2, axis=1)
    return labels, d2[np.arange(features.shape[0]), labels]


def reference_kmeanspp_init(features, k, rng):
    n = features.shape[0]
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(n)
    d2 = np.sum((features - features[chosen[0]]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            chosen[i] = rng.integers(n)
        else:
            cumulative = np.cumsum(d2)
            draw = rng.random() * total
            chosen[i] = np.searchsorted(cumulative, draw, side="right")
        d2 = np.minimum(d2, np.sum((features - features[chosen[i]]) ** 2, axis=1))
    return features[chosen].copy()


def reference_train_kmeans(features, k, seed, max_iters, tol=1e-6):
    """(centroids, iterations, final inertia) of the reference Lloyd loop."""
    n, dim = features.shape
    rng = np.random.default_rng(seed)
    centroids = reference_kmeanspp_init(features, k, rng)
    iterations = 0
    for _ in range(max_iters):
        labels, _ = reference_assign(features, centroids)
        sums = np.zeros((k, dim))
        np.add.at(sums, labels, features)
        sizes = np.bincount(labels, minlength=k)
        empty = np.nonzero(sizes == 0)[0]
        if empty.size:
            point_d2 = np.sum((features - centroids[labels]) ** 2, axis=1)
            farthest = np.argsort(-point_d2, kind="stable")
            for slot, cluster in enumerate(empty):
                sums[cluster] = features[farthest[slot]]
                sizes[cluster] = 1
        new_centroids = sums / sizes[:, None]
        shift = float(np.sqrt(np.sum((new_centroids - centroids) ** 2, axis=1)).max())
        centroids = new_centroids
        iterations += 1
        if shift < tol:
            break
    _, minima = reference_assign(features, centroids)
    return centroids, iterations, float(np.sum(minima))


# Row counts on both sides of the assignment's row blocks (512 rows at k=256,
# 436 at k=300) and of ``_sq_dist``'s 2048-row blocks.
EDGE_ROWS = [435, 436, 437, 511, 512, 513, 1025, 2047, 2048, 2049, 4097, 16385]


@st.composite
def kmeans_inputs(draw, rows):
    """(features, k, seed): normal rows, duplicated rows, all-identical rows
    (which take the ``total <= 0`` draw), or rows close together around a
    common 1e6 offset, where the norm expansion keeps few correct digits."""
    n = draw(rows)
    dim = draw(st.sampled_from([1, 2, 5, 39]))
    k = draw(st.one_of(st.integers(1, min(n, 8)), st.sampled_from([min(n, 80), 256, 300]).filter(lambda k: k <= n)))
    kind = draw(st.sampled_from(["normal", "duplicated", "identical", "offset"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    features = rng.standard_normal((n, dim))
    if kind == "duplicated":
        features = features[rng.integers(0, max(1, n // 3), n)]
    elif kind == "identical":
        features = np.repeat(features[:1], n, axis=0)
    elif kind == "offset":
        features = 1e6 + features * draw(st.sampled_from([1.0, 1e-3]))
    return features, k, draw(st.integers(0, 1000))


def assert_same_as_reference(features, k, seed, max_iters, threads=1):
    expected = reference_kmeanspp_init(features, k, np.random.default_rng(seed))
    got = discretizer._kmeanspp_init(features, k, np.random.default_rng(seed))
    assert got.tobytes() == expected.tobytes()
    expected_labels, expected_d2 = reference_assign(features, expected)
    labels, d2 = discretizer._assign(features, expected, threads)
    assert np.array_equal(labels, expected_labels)
    assert d2.tobytes() == expected_d2.tobytes()
    centroids, iterations, final_inertia = reference_train_kmeans(features, k, seed, max_iters)
    model = train_kmeans(features, k=k, seed=seed, max_iters=max_iters, threads=threads)
    assert model.centroids.tobytes() == centroids.tobytes()
    assert model.iterations_run == iterations
    assert repr(model.final_inertia) == repr(final_inertia)


class TestKMeansMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(kmeans_inputs(st.integers(1, 80)))
    def test_small_inputs(self, case):
        features, k, seed = case
        assert_same_as_reference(features, k, seed, max_iters=4)

    @settings(max_examples=10, deadline=None)
    @given(kmeans_inputs(st.sampled_from(EDGE_ROWS)), st.integers(1, 3))
    def test_block_and_chunk_edges(self, case, threads):
        features, k, seed = case
        assert_same_as_reference(features, k, seed, max_iters=2, threads=threads)

    @pytest.mark.parametrize(
        "n, k, offset",
        [(2049, 256, 0.0), (2049, 256, 1e6), (16385, 256, 0.0), (18433, 256, 1e6), (18433, 300, 0.0), (4097, 1, 1e6)],
    )
    def test_mfcc_like_edges(self, n, k, offset):
        rng = np.random.default_rng(n + k)
        centres = 5.0 * rng.standard_normal((40, 39))
        features = offset + centres[rng.integers(0, 40, n)] + rng.standard_normal((n, 39))
        assert_same_as_reference(features, k, seed=k, max_iters=2)


@st.composite
def near_tie_rows(draw, min_rows, max_rows):
    """(features, seed): rows whose nearest centroid the norm expansion's
    rounding may decide: duplicated rows, all-identical rows, rows around a
    common 1e6 offset, or rows half of which are replaced by their midpoint
    with row 0."""
    n = draw(st.integers(min_rows, max_rows))
    dim = draw(st.sampled_from([1, 2, 5, 39]))
    kind = draw(st.sampled_from(["duplicated", "identical", "offset", "midpoint"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    features = rng.standard_normal((n, dim))
    if kind == "duplicated":
        features = features[rng.integers(0, max(1, n // 3), n)]
    elif kind == "identical":
        features = np.repeat(features[:1], n, axis=0)
    elif kind == "offset":
        features = 1e6 + features * draw(st.sampled_from([1.0, 1e-3]))
    elif kind == "midpoint":
        features = np.where(rng.random((n, 1)) < 0.5, features, (features[0] + features) / 2)
    return features, draw(st.integers(0, 1000))


class TestAssignmentInvariance:
    """A row's label is a function of the row and the centroids alone."""

    @settings(max_examples=25, deadline=None)
    @given(k=st.sampled_from([256, 500]), case=near_tie_rows(1, 1200), data=st.data())
    def test_row_subset_gets_the_rows_of_the_whole_call(self, k, case, data):
        features, seed = case
        rng = np.random.default_rng(seed)
        # Centroids drawn from the rows (with repeats), so ties and near ties occur.
        centroids = features[rng.integers(0, features.shape[0], k)]
        centroids[0] = features[0]
        model = KMeansModel(k=k, centroids=centroids, feature_dim=features.shape[1],
                            iterations_run=0, final_inertia=0.0)
        start = data.draw(st.integers(0, features.shape[0] - 1))
        length = data.draw(st.one_of(st.sampled_from([1, 2]), st.integers(1, features.shape[0] - start)))
        rows = features[start : start + length]
        whole = apply_kmeans(model, features)
        assert np.array_equal(apply_kmeans(model, rows), whole[start : start + rows.shape[0]])

    @settings(max_examples=8, deadline=None)
    @given(k=st.sampled_from([256, 500]), case=near_tie_rows(500, 1500))
    def test_model_does_not_depend_on_threads(self, k, case, tmp_path_factory):
        features, seed = case
        directory = tmp_path_factory.mktemp("models")
        written = []
        for threads in (1, 2, 3):
            path = directory / f"model{threads}.json"
            save_kmeans_model(train_kmeans(features, k=k, seed=seed, max_iters=3, threads=threads), path)
            written.append(path.read_bytes())
        assert written[0] == written[1] == written[2]


def test_train_kmeans_working_memory_is_bounded():
    # Traced numpy allocations during training stay within a small multiple
    # of the input; whole-matrix distance temporaries would take ~8x.
    features = np.random.default_rng(4).standard_normal((40_000, 39))
    tracemalloc.start()
    try:
        train_kmeans(features, k=256, seed=0, max_iters=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * features.nbytes
