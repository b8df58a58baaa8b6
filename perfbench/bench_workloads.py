"""The benchmark's workloads: which inputs each generates, which CLI commands
one repetition runs, and how its outputs are checked.

A repetition calls ``run(argv)`` once per ``scdselect`` command; only those
calls are timed. Work between commands (checks, deriving the next input) is
untimed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import bench_checks as checks
import bench_inputs as inputs

LAMBDA = 0.9
ALPHA = 0.5
SELECT_FLAGS = ["--lambda", str(LAMBDA), "--alpha", str(ALPHA)]
MFCC_FEATURE_DIM = 39  # 13 cepstra plus deltas and delta-deltas, the CLI default

# A repetition's command runner: takes the CLI arguments, raises on failure.
Runner = Callable[[list[str]], None]


@dataclass
class Outcome:
    """What one repetition produced: its quality figures and the bytes to compare."""

    final_scd_nats: float
    outputs: dict[str, bytes]
    extra: dict[str, float]


@dataclass(frozen=True)
class SelectWorkload:
    name: str
    why: str
    n_pool: int
    order: int
    budget: int

    def prepare(self, work: Path, seed: int) -> dict:
        pool, query = inputs.pool_and_query(seed, self.n_pool)
        inputs.write_label_corpus(work / "pool.txt", pool)
        inputs.write_label_corpus(work / "query.txt", query)
        n_labels = int(pool.labels.shape[0])
        return {
            "pool": pool,
            "query": query,
            "labels": n_labels,
            "audio_seconds": n_labels / inputs.FRAMES_PER_SECOND,
        }

    def repeat(self, run: Runner, prepared: dict, work: Path, out: Path) -> dict[str, bytes]:
        run(
            ["select", str(work / "pool.txt"), str(work / "query.txt"),
             "--order", str(self.order), "--budget-count", str(self.budget),
             *SELECT_FLAGS, "--output", str(out / "report.txt")]
        )
        return {name: (out / name).read_bytes() for name in ("report.txt", "report.txt.ids")}

    def check(self, prepared: dict, outputs: dict[str, bytes]) -> Outcome:
        pool, query = prepared["pool"], prepared["query"]
        report = checks.check_selection(
            outputs["report.txt"].decode(), outputs["report.txt.ids"].decode(), pool, self.budget
        )
        checks.check_recount(
            report.final_scd,
            checks.recount_scd(pool, query, report.ids, self.order, LAMBDA, ALPHA),
        )
        return Outcome(report.final_scd, outputs, {})


@dataclass(frozen=True)
class AudioWorkload:
    name: str
    why: str
    n_utts: int
    seconds_per_utt: float
    k: int
    max_iters: int
    max_frames: int
    threads: int
    order: int
    budget: int

    def prepare(self, work: Path, seed: int) -> dict:
        wav_dir = work / "wav"
        wav_dir.mkdir()
        audio = inputs.write_audio(wav_dir, seed, self.n_utts, self.seconds_per_utt)
        inputs.write_manifest(work / "manifest.tsv", audio)
        frames = 1 + (audio.n_samples - 400) // 160  # 25 ms frames every 10 ms
        return {
            "audio": audio,
            "frames_per_utt": frames,
            "labels": frames * self.n_utts,
            "audio_seconds": audio.seconds,
        }

    def repeat(self, run: Runner, prepared: dict, work: Path, out: Path) -> dict[str, bytes]:
        manifest = str(work / "manifest.tsv")
        threads = ["--threads", str(self.threads)]
        run(
            ["train-kmeans", manifest, "--k", str(self.k), "--max-iters", str(self.max_iters),
             "--max-frames", str(self.max_frames), *threads, "--output", str(out / "model.json")]
        )
        run(["discretize", manifest, "--model", str(out / "model.json"), *threads,
             "--output", str(out / "labels.txt")])
        # The query is the source-B utterances of the discretized pool.
        audio = prepared["audio"]
        query_ids = {utt_id for utt_id, b in zip(audio.ids, audio.from_b) if b}
        with open(out / "query.txt", "w", encoding="utf-8", newline="\n") as handle:
            handle.write(f"#K={self.k}\n")
            for line in (out / "labels.txt").read_text().splitlines():
                if line.split("\t", 1)[0] in query_ids:
                    handle.write(line + "\n")
        run(["select", str(out / "labels.txt"), str(out / "query.txt"), "--order", str(self.order),
             "--budget-count", str(self.budget), *SELECT_FLAGS,
             "--output", str(out / "report.txt")])
        return {
            name: (out / name).read_bytes()
            for name in ("model.json", "labels.txt", "query.txt", "report.txt", "report.txt.ids")
        }

    def check(self, prepared: dict, outputs: dict[str, bytes]) -> Outcome:
        model = checks.check_model(
            outputs["model.json"].decode(), self.k, MFCC_FEATURE_DIM, self.max_iters
        )
        pool = checks.check_label_file(
            outputs["labels.txt"].decode(), prepared["audio"].ids, prepared["frames_per_utt"], self.k
        )
        query = checks.parse_label_file(outputs["query.txt"].decode())
        report = checks.check_selection(
            outputs["report.txt"].decode(), outputs["report.txt.ids"].decode(), pool, self.budget
        )
        checks.check_recount(
            report.final_scd, checks.recount_scd(pool, query, report.ids, self.order, LAMBDA, ALPHA)
        )
        frames_trained = min(self.max_frames, prepared["labels"])
        return Outcome(
            report.final_scd,
            outputs,
            {"kmeans_inertia_per_frame": model["final_inertia"] / frames_trained},
        )


WORKLOADS = {
    w.name: w
    for w in (
        SelectWorkload(
            "select-unigram-30k",
            "order-1 selection over a 58 MB pool file: label-file load and sort dominate, "
            "so it exercises the corpus layer and the fast scorer",
            n_pool=30_000, order=1, budget=100,
        ),
        SelectWorkload(
            "select-bigram-1k",
            "order-2 selection on the dense scorer branch: exact divergence (scd and "
            "scd_incremental) dominates and the corpus layer is small",
            n_pool=1_000, order=2, budget=30,
        ),
        SelectWorkload(
            "select-trigram-1k",
            "order-3 selection on the sparse dict scorer (K**3 above the dense limit): "
            "exact divergence, fast scorer and target build share the time",
            n_pool=1_000, order=3, budget=10,
        ),
        AudioWorkload(
            "audio-route",
            "WAV to labels to selection: train-kmeans with frame subsampling, then "
            "discretize and an order-2 select; the only workload that runs the discretizer",
            n_utts=100, seconds_per_utt=4.0, k=256, max_iters=10, max_frames=30_000,
            threads=2, order=2, budget=10,
        ),
    )
}
