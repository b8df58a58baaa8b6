"""The manifest fan-out and k-means training run on one BLAS thread and restore the count.

``discretizer.map_manifest`` sets OpenBLAS to one thread around its workers,
and ``train_kmeans`` around its steps, so two workers do not queue on one
BLAS thread pool. These tests pin what the pin may and may not change:
inside a worker the count reads 1, afterwards it reads what it read before
(also when a worker raises), and models and labels are the bytes of a run
without the pin.
"""

import contextlib
import subprocess
import sys
import threading
from unittest import mock

import numpy as np
import pytest

from scdselect import cli, discretizer
from scdselect.corpus import AudioManifest, ManifestEntry
from scdselect.discretizer import AudioError, MfccConfig, discretize_manifest, map_manifest

from test_discretizer import tone, write_wav

BLAS = discretizer._openblas_thread_calls()
needs_openblas = pytest.mark.skipif(
    BLAS is None, reason="no loaded OpenBLAS exports openblas_{get,set}_num_threads here"
)


def manifest_of(n, directory="."):
    return AudioManifest(
        entries=tuple(ManifestEntry(id=f"u{i}", audio_path=f"{directory}/u{i}.wav") for i in range(n))
    )


@pytest.fixture
def blas_threads():
    """The BLAS ``(get, set)`` with the count set to 2 for the test, restored after."""
    get, set_ = BLAS
    before = get()
    set_(2)
    try:
        yield get, set_
    finally:
        set_(before)


@needs_openblas
class TestPin:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_workers_read_one_blas_thread(self, blas_threads, threads):
        get, _ = blas_threads
        seen = map_manifest(lambda entry: get(), manifest_of(6), threads)
        assert seen == [1] * 6
        assert get() == 2

    @pytest.mark.parametrize("threads", [1, 2])
    def test_count_restored_when_a_worker_raises(self, blas_threads, threads):
        get, _ = blas_threads

        def worker(entry):
            if entry.id == "u3":
                raise AudioError("unreadable")
            return get()

        with pytest.raises(AudioError, match="unreadable"):
            map_manifest(worker, manifest_of(6), threads)
        assert get() == 2

    @pytest.mark.parametrize("threads", [1, 2])
    def test_count_restored_after_discretize_fails(self, blas_threads, threads, tmp_path):
        get, _ = blas_threads
        write_wav(tmp_path / "u0.wav", tone(8000, seed=0))
        model = discretizer.KMeansModel(
            k=1, centroids=[[0.0] * 39], feature_dim=39, iterations_run=0, final_inertia=0.0
        )
        with pytest.raises(AudioError, match="'u1'"):
            discretize_manifest(manifest_of(3, tmp_path), model, MfccConfig(), max_workers=threads)
        assert get() == 2

    @pytest.mark.parametrize("threads", [1, 2])
    def test_no_openblas_found_gives_the_same_results(self, blas_threads, threads, tmp_path):
        get, _ = blas_threads
        for i in range(4):
            write_wav(tmp_path / f"u{i}.wav", tone(4000 + 800 * i, freq=200.0 + 150 * i, seed=i))
        manifest = manifest_of(4, tmp_path)

        def worker(entry):
            return discretizer.compute_mfcc(discretizer.read_wav_mono(entry.audio_path, 16000), MfccConfig())

        pinned = map_manifest(worker, manifest, threads)
        with mock.patch.object(discretizer, "_openblas_thread_calls", return_value=None):
            assert map_manifest(lambda entry: get(), manifest, threads) == [2] * 4
            unpinned = map_manifest(worker, manifest, threads)
        assert [block.tobytes() for block in pinned] == [block.tobytes() for block in unpinned]
        assert get() == 2

    @pytest.mark.parametrize("threads", [1, 2])
    def test_training_reads_one_blas_thread(self, blas_threads, threads):
        get, _ = blas_threads
        seen = []
        assign = discretizer._assign

        def recording_assign(features, centroids, threads):
            seen.append(get())
            return assign(features, centroids, threads)

        features = np.random.default_rng(0).standard_normal((600, 3))
        with mock.patch.object(discretizer, "_assign", recording_assign):
            discretizer.train_kmeans(features, k=4, seed=0, max_iters=3, tol=0.0, threads=threads)
        assert seen == [1] * 4
        assert get() == 2

    def test_overlapping_calls_restore_the_first_count(self, blas_threads):
        get, _ = blas_threads
        failures = []

        def caller():
            for _ in range(30):
                seen = map_manifest(lambda entry: get(), manifest_of(4), 2)
                if seen != [1] * 4:
                    failures.append(seen)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller) for _ in range(4)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert failures == []
        assert get() == 2


def test_no_proc_maps_means_no_pin():
    with mock.patch("scdselect.discretizer.open", side_effect=OSError("no /proc"), create=True):
        assert discretizer._openblas_thread_calls.__wrapped__() is None


def test_library_is_not_looked_up_at_import():
    code = (
        "import scdselect.cli, scdselect.discretizer as d; "
        "print(d._openblas_thread_calls.cache_info().misses)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_pin_keeps_model_and_label_bytes(tmp_path, monkeypatch, threads):
    wavs = tmp_path / "wav"
    wavs.mkdir()
    lines = []
    for i in range(8):
        path = wavs / f"u{i}.wav"
        write_wav(path, tone(16000 + 1600 * i, freq=150.0 + 90 * i, seed=i))
        lines.append(f"u{i}\t{path}\n")
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("".join(lines), encoding="utf-8")

    def run(name):
        work = tmp_path / name
        work.mkdir()
        monkeypatch.chdir(work)
        assert cli.main(["train-kmeans", str(manifest), "--k", "128", "--max-iters", "5",
                         "--threads", threads, "--output", "model.json"]) == 0
        assert cli.main(["discretize", str(manifest), "--model", "model.json",
                         "--threads", threads, "--output", "labels.txt"]) == 0
        return (work / "model.json").read_bytes(), (work / "labels.txt").read_bytes()

    pinned = run("pinned")
    with mock.patch.object(discretizer, "_one_blas_thread", contextlib.nullcontext()):
        unpinned = run("unpinned")
    assert pinned == unpinned
