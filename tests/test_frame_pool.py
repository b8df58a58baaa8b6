"""``train-kmeans`` frame pooling against the whole-matrix path it replaced.

The reference below is that path: each entry's whole MFCC matrix from one
index gather and one FFT over all frames, the matrices concatenated, then
``frames[keep]`` for a ``--max-frames`` subsample. The streamed pool must
give the same frame bytes, so the same model bytes, for every thread count
and subsample size, and fail on the same entry with the same message. Its
traced memory is bounded by the kept frames, not by the manifest.
"""

import threading
import time
import tracemalloc
import wave

import numpy as np
import pytest

import scdselect.cli
from scdselect import discretizer
from scdselect.cli import main
from scdselect.corpus import AudioManifest, ManifestEntry, load_audio_manifest
from scdselect.discretizer import (
    AudioError,
    MfccConfig,
    compute_mfcc,
    load_kmeans_model,
    map_manifest,
    read_wav_mono,
)

from test_discretizer import tone, write_wav


def reference_compute_mfcc(samples, config):
    samples = np.asarray(samples, dtype=np.float64).reshape(-1)
    flen = config.frame_length_samples
    shift = config.frame_shift_samples
    n_out = discretizer.num_frames(samples.shape[0], config)
    if config.preemphasis > 0:
        samples = np.concatenate(([samples[0]], samples[1:] - config.preemphasis * samples[:-1]))
    n_fft = 1
    while n_fft < flen:
        n_fft *= 2
    window = np.hamming(flen)
    bank = discretizer._mel_filterbank(config, n_fft)
    dct = discretizer._dct_matrix(config.num_coeffs, config.num_mel_filters)
    idx = shift * np.arange(n_out)[:, None] + np.arange(flen)[None, :]
    frames = samples[idx] * window
    power = np.abs(np.fft.rfft(frames, n=n_fft, axis=1)) ** 2 / n_fft
    log_mel = np.log(np.maximum(power @ bank.T, discretizer.LOG_FLOOR))
    cepstra = log_mel @ dct.T
    if config.include_deltas:
        d1 = discretizer._deltas(cepstra)
        d2 = discretizer._deltas(d1)
        cepstra = np.concatenate([cepstra, d1, d2], axis=1)
    return cepstra


def reference_pool(paths, config, max_frames, seed):
    frames = np.concatenate(
        [reference_compute_mfcc(read_wav_mono(path, config.sample_rate_hz), config) for path in paths]
    )
    if max_frames is not None and frames.shape[0] > max_frames:
        keep = np.random.default_rng(seed).choice(frames.shape[0], size=max_frames, replace=False)
        keep.sort()
        frames = frames[keep]
    return frames


def write_manifest(path, wavs):
    path.write_text("".join(f"utt{i}\t{p}\n" for i, p in enumerate(wavs)), encoding="utf-8")
    return str(path)


# One frame; 63, 64, 65 and 129 frames around the MFCC row block of 64; two
# lengths that end between frames.
LENGTHS = (400, 400 + 160 * 62, 400 + 160 * 63, 400 + 160 * 64, 400 + 160 * 128, 8000, 12345)
TOTAL_FRAMES = sum(discretizer.num_frames(n, MfccConfig()) for n in LENGTHS)


@pytest.fixture
def pool_audio(tmp_path):
    wavs = []
    for i, n in enumerate(LENGTHS):
        path = tmp_path / f"p{i}.wav"
        write_wav(path, tone(n, freq=200.0 + 90 * i, seed=i))
        wavs.append(path)
    return wavs


class TestMfccMatchesReference:
    @pytest.mark.parametrize("n", LENGTHS)
    def test_default_config(self, n):
        samples = tone(n, seed=n)
        expected = reference_compute_mfcc(samples, MfccConfig())
        assert compute_mfcc(samples, MfccConfig()).tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "config",
        [
            MfccConfig(preemphasis=0.0),
            MfccConfig(include_deltas=False),
            MfccConfig(frame_length_ms=32.0, frame_shift_ms=7.0),  # 512 samples: n_fft equals the length
            MfccConfig(frame_length_ms=32.0625, frame_shift_ms=5.0),  # 513 samples: n_fft 1024
            MfccConfig(sample_rate_hz=8000, frame_length_ms=20.0, frame_shift_ms=12.5,
                       num_coeffs=20, num_mel_filters=40, preemphasis=0.5),
        ],
    )
    @pytest.mark.parametrize("seconds", [0.04, 0.9, 1.37])
    def test_other_configs(self, config, seconds):
        samples = tone(max(config.frame_length_samples, int(seconds * config.sample_rate_hz)), seed=3)
        expected = reference_compute_mfcc(samples, config)
        assert compute_mfcc(samples, config).tobytes() == expected.tobytes()

    def test_input_is_not_modified(self):
        samples = tone(5000, seed=1)
        before = samples.copy()
        compute_mfcc(samples, MfccConfig())
        assert samples.tobytes() == before.tobytes()

    def test_int16_and_read_only_input(self):
        pcm = np.round(tone(3000, seed=2) * 32767).astype(np.int16)
        pcm.flags.writeable = False
        expected = reference_compute_mfcc(pcm, MfccConfig())
        assert compute_mfcc(pcm, MfccConfig()).tobytes() == expected.tobytes()


class TestPoolMatchesReference:
    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("max_frames", [None, 100, TOTAL_FRAMES, TOTAL_FRAMES + 1, 10_000])
    def test_frame_and_model_bytes(self, pool_audio, tmp_path, monkeypatch, capsys, threads, max_frames):
        manifest = write_manifest(tmp_path / "m.tsv", pool_audio)
        trained = []
        real_train = discretizer.train_kmeans

        def recording_train(features, **kwargs):
            trained.append(features.copy())
            return real_train(features, **kwargs)

        monkeypatch.setattr(scdselect.cli, "train_kmeans", recording_train)
        argv = ["train-kmeans", manifest, "--k", "4", "--seed", "5", "--max-iters", "3",
                "--threads", str(threads), "--output", str(tmp_path / "model.json")]
        if max_frames is not None:
            argv += ["--max-frames", str(max_frames)]
        assert main(argv) == 0

        expected = reference_pool(pool_audio, MfccConfig(), max_frames, seed=5)
        assert expected.shape[0] == min(TOTAL_FRAMES, max_frames or TOTAL_FRAMES)
        assert trained[0].shape == expected.shape
        assert trained[0].tobytes() == expected.tobytes()
        assert f"on {expected.shape[0]} frames" in capsys.readouterr().out

        # The model file is that of training on the reference frames.
        _, echo = load_kmeans_model(tmp_path / "model.json")
        reference_model = real_train(expected, k=4, seed=5, max_iters=3, tol=1e-6)
        discretizer.save_kmeans_model(reference_model, tmp_path / "reference.json", config_echo=echo)
        assert (tmp_path / "model.json").read_bytes() == (tmp_path / "reference.json").read_bytes()

    def test_entries_without_kept_frames_are_not_computed(self, pool_audio, tmp_path, monkeypatch):
        # One kept frame: the second pass computes one entry's MFCCs.
        manifest = write_manifest(tmp_path / "m.tsv", pool_audio)
        calls = []
        real_mfcc = scdselect.cli.compute_mfcc
        monkeypatch.setattr(scdselect.cli, "compute_mfcc", lambda *a: calls.append(1) or real_mfcc(*a))
        assert main(["train-kmeans", manifest, "--k", "1", "--max-frames", "1", "--max-iters", "1",
                     "--output", str(tmp_path / "model.json")]) == 0
        assert len(calls) == 1


class TestPoolErrors:
    @pytest.fixture
    def entries(self, tmp_path):
        good = tmp_path / "good.wav"
        write_wav(good, tone(4000, seed=0))
        short = tmp_path / "short.wav"
        write_wav(short, tone(300, seed=1))
        stereo = tmp_path / "stereo.wav"
        with wave.open(str(stereo), "wb") as handle:
            handle.setnchannels(2)
            handle.setsampwidth(2)
            handle.setframerate(16000)
            handle.writeframes(np.zeros((800, 2), dtype="<i2").tobytes())
        return {"good": good, "short": short, "stereo": stereo, "missing": tmp_path / "nope.wav"}

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "names",
        [
            ("good", "missing", "short"),
            ("good", "short", "missing"),
            ("good", "good", "stereo", "short"),
            ("short", "good", "missing"),
        ],
    )
    def test_first_bad_entry_raises_the_reference_message(self, entries, tmp_path, capsys, threads, names):
        # The reference's error, on the entry named as discretize names it.
        paths = [entries[name] for name in names]
        with pytest.raises(AudioError) as reference:
            reference_pool(paths, MfccConfig(), None, seed=0)
        manifest = write_manifest(tmp_path / "m.tsv", paths)
        model = discretizer.KMeansModel(k=1, centroids=[[0.0] * 39], feature_dim=39, iterations_run=0,
                                        final_inertia=0.0)
        with pytest.raises(AudioError) as expected:
            discretizer.discretize_manifest(load_audio_manifest(manifest), model, MfccConfig())
        assert str(expected.value).endswith(str(reference.value))
        code = main(["train-kmeans", manifest, "--k", "2", "--threads", str(threads),
                     "--output", str(tmp_path / "model.json")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {expected.value}\n"
        assert not (tmp_path / "model.json").exists()

    def test_entry_that_changes_between_passes_fails(self, entries, tmp_path, monkeypatch, capsys):
        # The second read of the file (the MFCC pass) returns fewer samples
        # than the count pass's read of its bytes.
        real_read = discretizer.read_wav_mono

        def shrinking_read(path, rate):
            return real_read(path, rate)[:-800]

        monkeypatch.setattr(scdselect.cli, "read_wav_mono", shrinking_read)
        manifest = write_manifest(tmp_path / "m.tsv", [entries["good"]])
        code = main(["train-kmeans", manifest, "--k", "2", "--output", str(tmp_path / "model.json")])
        assert code == 1
        expected = f"error: utterance 'utt0': {entries['good']}: file changed while it was read\n"
        assert capsys.readouterr().err == expected


    def test_count_pass_converts_no_samples(self, entries, tmp_path, monkeypatch):
        # Only the MFCC pass reads samples as floats, once per entry; the
        # count pass takes the length of the checked bytes.
        reads = []
        real_read = discretizer.read_wav_mono

        def recording_read(path, rate):
            reads.append(path)
            return real_read(path, rate)

        monkeypatch.setattr(scdselect.cli, "read_wav_mono", recording_read)
        paths = [entries["good"], entries["good"]]
        manifest = write_manifest(tmp_path / "m.tsv", paths)
        code = main(["train-kmeans", manifest, "--k", "2", "--output", str(tmp_path / "model.json")])
        assert code == 0
        assert reads == [str(path) for path in paths]


def write_truncated_wav(path, n_samples, cut_bytes):
    """A WAV whose header counts ``n_samples`` but whose file lacks its last ``cut_bytes``."""
    write_wav(path, tone(n_samples, seed=7))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - cut_bytes])


class TestTruncatedWav:
    def test_data_ending_mid_sample_names_the_file(self, tmp_path):
        path = tmp_path / "odd.wav"
        write_truncated_wav(path, 4000, cut_bytes=1)
        with pytest.raises(AudioError, match="odd.wav.*mid-sample"):
            read_wav_mono(path, 16000)

    def test_data_short_of_the_header_on_a_sample_boundary_is_accepted(self, tmp_path):
        path = tmp_path / "short.wav"
        write_truncated_wav(path, 4000, cut_bytes=2 * 700)
        full = tmp_path / "full.wav"
        write_wav(full, tone(4000, seed=7))
        samples = read_wav_mono(path, 16000)
        assert samples.tobytes() == read_wav_mono(full, 16000)[:3300].tobytes()

    def test_train_kmeans_counts_the_samples_present(self, tmp_path, capsys):
        good = tmp_path / "good.wav"
        write_wav(good, tone(4000, seed=0))
        short = tmp_path / "short.wav"
        write_truncated_wav(short, 4000, cut_bytes=2 * 700)
        manifest = write_manifest(tmp_path / "m.tsv", [good, short])
        assert main(["train-kmeans", manifest, "--k", "2", "--output", str(tmp_path / "model.json")]) == 0
        frames = discretizer.num_frames(4000, MfccConfig()) + discretizer.num_frames(3300, MfccConfig())
        assert f"on {frames} frames" in capsys.readouterr().out

    @pytest.mark.parametrize("threads", [1, 2])
    def test_train_kmeans_error_names_the_file(self, tmp_path, capsys, threads):
        good = tmp_path / "good.wav"
        write_wav(good, tone(4000, seed=0))
        odd = tmp_path / "odd.wav"
        write_truncated_wav(odd, 4000, cut_bytes=1)
        manifest = write_manifest(tmp_path / "m.tsv", [good, odd])
        code = main(["train-kmeans", manifest, "--k", "2", "--threads", str(threads),
                     "--output", str(tmp_path / "model.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert str(odd) in err and "mid-sample" in err

    def test_discretize_skip_bad_drops_the_entry(self, tmp_path, caplog):
        good = tmp_path / "good.wav"
        write_wav(good, tone(4000, seed=0))
        manifest = write_manifest(tmp_path / "m.tsv", [good])
        model = tmp_path / "model.json"
        assert main(["train-kmeans", manifest, "--k", "2", "--output", str(model)]) == 0
        odd = tmp_path / "odd.wav"
        write_truncated_wav(odd, 4000, cut_bytes=1)
        both = write_manifest(tmp_path / "both.tsv", [good, odd])
        labels = tmp_path / "labels.txt"
        with caplog.at_level("WARNING"):
            code = main(["discretize", both, "--model", str(model), "--skip-bad", "--output", str(labels)])
        assert code == 0
        assert any("utt1" in m and "mid-sample" in m for m in caplog.messages)
        records = [line for line in labels.read_text().splitlines() if not line.startswith("#")]
        assert [line.split("\t", 1)[0] for line in records] == ["utt0"]


def pooling_peak(tmp_path, monkeypatch, wavs, max_frames, threads):
    """Traced peak bytes from the start of ``train-kmeans`` until training starts."""
    manifest = write_manifest(tmp_path / f"m{len(wavs)}.tsv", wavs)
    peaks = []
    real_train = discretizer.train_kmeans

    def recording_train(features, **kwargs):
        peaks.append(tracemalloc.get_traced_memory()[1])
        return real_train(features, **kwargs)

    monkeypatch.setattr(scdselect.cli, "train_kmeans", recording_train)
    tracemalloc.start()
    try:
        code = main(["train-kmeans", manifest, "--k", "2", "--max-iters", "1", "--threads", str(threads),
                     "--max-frames", str(max_frames), "--output", str(tmp_path / "model.json")])
    finally:
        tracemalloc.stop()
    assert code == 0
    return peaks[0]


@pytest.mark.parametrize("threads", [1, 2])
def test_pooling_memory_is_bounded_by_max_frames(tmp_path, monkeypatch, threads):
    # 60 entries of 0.5 s (48 frames each), then the same entries three
    # times over; 1000 frames are kept either way. Holding every frame
    # would take 2880 x 39 x 8 = 0.9 MB, then 2.7 MB, before the subsample.
    wavs = []
    for i in range(60):
        path = tmp_path / f"w{i}.wav"
        write_wav(path, tone(8000, freq=150.0 + 10 * i, seed=i))
        wavs.append(path)
    max_frames = 1000
    # A worker holds one utterance's samples, windowed frames, spectrum and
    # features: about 0.8 MB at 0.5 s.
    bound = max_frames * MfccConfig().feature_dim * 8 + threads * (1 << 20)
    # The first run in a process also builds the FFT plans and MFCC tables.
    pooling_peak(tmp_path, monkeypatch, wavs[:2], 10, threads)
    for copies in (1, 3):
        peak = pooling_peak(tmp_path, monkeypatch, wavs * copies, max_frames, threads)
        assert peak < bound, f"{copies}x manifest: pooling peaked at {peak} bytes, bound {bound}"


def manifest_of(n):
    return AudioManifest(entries=tuple(ManifestEntry(id=f"u{i}", audio_path=f"u{i}.wav") for i in range(n)))


class TestMapManifestWindow:
    def test_entries_are_submitted_a_bounded_window_ahead(self):
        # While the first entry blocks, the other worker may run only the
        # entries submitted behind it, not the whole manifest.
        started = []
        lock = threading.Lock()

        def function(entry):
            if entry.id == "u0":
                time.sleep(0.3)
                with lock:
                    return len(started)
            with lock:
                started.append(entry.id)
            return entry.id

        results = map_manifest(function, manifest_of(200), threads=2)
        assert results[0] <= 4 * 2
        assert results[1:] == [f"u{i}" for i in range(1, 200)]

    @pytest.mark.parametrize("threads", [2, 3])
    def test_first_failing_entry_in_order_raises(self, threads):
        # Later entries fail sooner; the first in manifest order raises.
        def function(entry):
            index = int(entry.id[1:])
            if index in (40, 41, 60):
                time.sleep(0.05 if index == 40 else 0.0)
                raise AudioError(entry.id)
            return index

        assert map_manifest(lambda entry: entry.id, manifest_of(50), threads) == [f"u{i}" for i in range(50)]
        with pytest.raises(AudioError, match="^utterance 'u40': u40$"):
            map_manifest(function, manifest_of(100), threads)
