"""Command-line surface: one subcommand per pipeline stage.

    train-kmeans   pool MFCCs over a manifest and fit the cluster model
    discretize     audio manifest + model -> label-corpus file
    ngram-stats    label corpus -> gram count dump
    scd            divergence between two label-corpus files
    select         run a selection strategy and write the report

Every subcommand embeds a config echo in its outputs sufficient to reproduce
the run bit-exactly. Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import load_audio_manifest, load_label_corpus, save_label_corpus
from .discretizer import (
    AudioError,
    MfccConfig,
    compute_mfcc,
    discretize_manifest,
    load_kmeans_model,
    map_manifest,
    num_frames,
    read_wav_mono,
    read_wav_pcm16,
    save_kmeans_model,
    train_kmeans,
)
from .divergence import scd
from .ngram import count_ngrams, prune, save_stats_dump
from .selection import (
    STRATEGY_CONTRASTIVE,
    STRATEGY_GREEDY,
    STRATEGY_ORACLE,
    STRATEGY_RANDOM,
    SelectionConfig,
    save_report,
    select_contrastive,
    select_greedy_scd,
    select_oracle,
    select_random,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RunConfig:
    """Full record of one CLI invocation, embedded in every output file."""

    subcommand: str
    options: dict

    def to_json(self) -> str:
        return json.dumps(
            {"subcommand": self.subcommand, "options": self.options}, sort_keys=True
        )

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        payload = json.loads(text)
        return cls(subcommand=payload["subcommand"], options=payload["options"])

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        # Thread count never changes results, so it stays out of the echo;
        # outputs are byte-identical across worker counts.
        options = {
            key: value
            for key, value in sorted(vars(args).items())
            if key not in ("func", "subcommand", "threads")
        }
        return cls(subcommand=args.subcommand, options=options)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text}")
    return value


def _nonneg_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"expected a finite non-negative number, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text}")
    return value


def _closed01(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a value in [0, 1], got {text}")
    return value


def _add_ngram_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--order", type=_positive_int, default=1, help="gram order N (default 1)")
    parser.add_argument("--alpha", type=_nonneg_float, default=0.5, help="add-alpha smoothing (default 0.5)")
    parser.add_argument(
        "--prune-min-count",
        type=_nonneg_int,
        default=0,
        help="drop grams counted fewer times than this (default 0 = keep all)",
    )


def _add_mfcc_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sample-rate", type=_positive_int, default=16000, help="expected WAV rate in Hz")
    parser.add_argument("--frame-length-ms", type=_positive_float, default=25.0)
    parser.add_argument("--frame-shift-ms", type=_positive_float, default=10.0)
    parser.add_argument("--num-coeffs", type=_positive_int, default=13)
    parser.add_argument("--num-mel-filters", type=_positive_int, default=26)
    parser.add_argument("--no-deltas", action="store_true", help="disable delta and delta-delta features")


def _mfcc_config_from_args(args: argparse.Namespace) -> MfccConfig:
    return MfccConfig(
        sample_rate_hz=args.sample_rate,
        frame_length_ms=args.frame_length_ms,
        frame_shift_ms=args.frame_shift_ms,
        num_coeffs=args.num_coeffs,
        include_deltas=not args.no_deltas,
        num_mel_filters=args.num_mel_filters,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scdselect",
        description="Divergence-driven subset selection for discrete-token corpora.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "-v", "--verbose", action="count", default=0, help="more logging (-v info, -vv debug)"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("train-kmeans", help="fit a K-means model on pooled MFCC frames")
    p.add_argument("manifest", help="audio manifest (<id>\\t<path> lines)")
    p.add_argument("--k", type=_positive_int, default=500, help="number of clusters (default 500)")
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--max-iters", type=_positive_int, default=100)
    p.add_argument("--tol", type=_nonneg_float, default=1e-6)
    p.add_argument(
        "--max-frames",
        type=_positive_int,
        default=None,
        help="uniformly subsample the pooled frames to at most this many; memory holds "
        "only the kept frames, and each WAV is read twice",
    )
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="parallelize manifest entries, then the row blocks of each k-means "
                        "assignment, over this many worker threads, with one BLAS thread "
                        "per worker (default 1; the model does not depend on it)")
    _add_mfcc_flags(p)
    p.add_argument("--output", required=True, help="model file to write (JSON)")
    p.set_defaults(func=cmd_train_kmeans)

    p = sub.add_parser("discretize", help="convert an audio manifest into a label corpus")
    p.add_argument("manifest")
    p.add_argument("--model", required=True, help="K-means model file")
    p.add_argument("--skip-bad", action="store_true", help="warn and drop unreadable entries instead of aborting")
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="parallelize manifest entries over this many worker threads, with one "
                        "BLAS thread per worker (default 1; results do not depend on it)")
    p.add_argument("--output", required=True, help="label-corpus file to write")
    p.set_defaults(func=cmd_discretize)

    p = sub.add_parser("ngram-stats", help="dump gram counts of a label corpus")
    p.add_argument("corpus")
    _add_ngram_flags(p)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_ngram_stats)

    p = sub.add_parser("scd", help="divergence of corpus X from corpus Y, in nats")
    p.add_argument("corpus_x")
    p.add_argument("corpus_y")
    _add_ngram_flags(p)
    p.set_defaults(func=cmd_scd)

    p = sub.add_parser("select", help="select a budgeted subset of a corpus")
    p.add_argument("universal", help="pool label-corpus file")
    p.add_argument("query", help="target label-corpus file")
    p.add_argument(
        "--strategy",
        choices=[STRATEGY_GREEDY, STRATEGY_RANDOM, STRATEGY_CONTRASTIVE, STRATEGY_ORACLE],
        default=STRATEGY_GREEDY,
    )
    budget = p.add_mutually_exclusive_group(required=True)
    budget.add_argument("--budget-count", type=_positive_int, help="number of utterances to select")
    budget.add_argument("--budget-seconds", type=_nonneg_float, help="duration budget in seconds")
    _add_ngram_flags(p)
    p.add_argument("--lambda", dest="lam", type=_closed01, default=0.5,
                   help="query/pool interpolation weight (default 0.5)")
    p.add_argument("--seed", type=_nonneg_int, default=0, help="seed (random strategy)")
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="accepted and ignored: label files are parsed on up to 4 usable "
                        "CPUs, in file order, and selection runs single-threaded; no output "
                        "depends on either")
    p.add_argument("--output", required=True, help="report file to write")
    p.add_argument("--ids-output", default=None, help="id worklist file (default: <output>.ids)")
    p.set_defaults(func=cmd_select)

    return parser


def _pool_mfcc_frames(manifest, config: MfccConfig, threads: int, max_frames: int | None,
                      seed: int, k: int) -> np.ndarray:
    """Pooled MFCC frames of a manifest, uniformly subsampled to at most ``max_frames``.

    A first pass counts each entry's frames from the length of its checked
    sample bytes, so the draw of the kept rows needs no frame, and a
    manifest of fewer than ``k`` frames fails before any MFCC is computed;
    the second computes MFCCs and writes only the kept rows into one
    matrix, each entry into its own rows. Memory is bounded by the kept
    frames, not by the corpus; each WAV is read twice.
    """
    if not manifest.entries:
        raise AudioError("manifest is empty; nothing to train on")

    # A failing entry is named as discretize names it.
    def count(entry):
        try:
            raw = read_wav_pcm16(entry.audio_path, config.sample_rate_hz)
        except AudioError as exc:
            raise AudioError(f"utterance {entry.id!r}: {exc}") from exc
        try:
            return num_frames(len(raw) // 2, config)
        except AudioError as exc:
            raise AudioError(f"utterance {entry.id!r}: {entry.audio_path}: {exc}") from exc

    counts = np.array(map_manifest(count, manifest, threads), dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(counts)))
    total = int(starts[-1])
    logger.info("pooled %d frames of dim %d", total, config.feature_dim)
    if total < k:
        raise ValueError(f"need at least k={k} frames, the manifest has {total}")
    if max_frames is not None and total > max_frames:
        keep = np.random.default_rng(seed).choice(total, size=max_frames, replace=False)
        keep.sort()
        logger.info("subsampled to %d frames", max_frames)
    else:
        keep = np.arange(total)
    # Rows of the output that each entry's kept frames go to.
    bounds = np.searchsorted(keep, starts)

    frames = np.empty((keep.shape[0], config.feature_dim))
    position = {entry.id: index for index, entry in enumerate(manifest.entries)}

    def worker(entry):
        index = position[entry.id]
        lo, hi = bounds[index], bounds[index + 1]
        if lo == hi:
            return
        feats = compute_mfcc(read_wav_mono(entry.audio_path, config.sample_rate_hz), config)
        if feats.shape[0] != counts[index]:
            raise AudioError(f"{entry.audio_path}: file changed while it was read")
        np.take(feats, keep[lo:hi] - starts[index], axis=0, out=frames[lo:hi])

    map_manifest(worker, manifest, threads)
    return frames


def cmd_train_kmeans(args: argparse.Namespace) -> int:
    run_config = RunConfig.from_args(args)
    manifest = load_audio_manifest(args.manifest)
    mfcc_config = _mfcc_config_from_args(args)
    frames = _pool_mfcc_frames(manifest, mfcc_config, args.threads, args.max_frames, args.seed, args.k)

    model = train_kmeans(frames, k=args.k, seed=args.seed, max_iters=args.max_iters, tol=args.tol,
                         threads=args.threads)
    save_kmeans_model(
        model,
        args.output,
        config_echo={
            "run_config": json.loads(run_config.to_json()),
            "mfcc": dataclasses.asdict(mfcc_config),
        },
    )
    print(f"trained k={model.k} on {frames.shape[0]} frames "
          f"({model.iterations_run} iterations, inertia {model.final_inertia:.6g})")
    print(f"model written to {args.output}")
    return 0


def cmd_discretize(args: argparse.Namespace) -> int:
    run_config = RunConfig.from_args(args)
    manifest = load_audio_manifest(args.manifest)
    model, echo = load_kmeans_model(args.model)
    if "mfcc" in echo:
        try:
            mfcc_config = MfccConfig(**echo["mfcc"])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{args.model}: bad MFCC config echo ({exc})") from None
    else:
        mfcc_config = MfccConfig()
        logger.warning("model file carries no MFCC config; using defaults")
    corpus = discretize_manifest(
        manifest,
        model,
        mfcc_config,
        skip_bad=args.skip_bad,
        max_workers=args.threads,
        source_tag=Path(args.manifest).name,
    )
    save_label_corpus(corpus, args.output, comments=[f"cfg={run_config.to_json()}"])
    print(f"wrote {len(corpus)} utterances (K={corpus.alphabet_size}) to {args.output}")
    return 0


def cmd_ngram_stats(args: argparse.Namespace) -> int:
    run_config = RunConfig.from_args(args)
    corpus = load_label_corpus(args.corpus)
    stats = prune(count_ngrams(corpus, args.order, args.alpha), args.prune_min_count)
    save_stats_dump(stats, args.output, comments=[f"cfg={run_config.to_json()}"])
    print(f"{len(stats.counts)} distinct grams, {stats.total} total, written to {args.output}")
    return 0


def cmd_scd(args: argparse.Namespace) -> int:
    run_config = RunConfig.from_args(args)
    corpus_x = load_label_corpus(args.corpus_x)
    corpus_y = load_label_corpus(args.corpus_y)
    if corpus_x.alphabet_size != corpus_y.alphabet_size:
        raise ValueError(
            f"alphabet mismatch: {args.corpus_x} has K={corpus_x.alphabet_size}, "
            f"{args.corpus_y} has K={corpus_y.alphabet_size}"
        )
    stats_x = prune(count_ngrams(corpus_x, args.order, args.alpha), args.prune_min_count)
    stats_y = prune(count_ngrams(corpus_y, args.order, args.alpha), args.prune_min_count)
    value = scd(stats_x.distribution(), stats_y.distribution())
    print(f"SCD = {value.nats:.6f} nats ({value.support_terms} support grams)")
    print(f"scd_nats={value.nats!r}")
    print(f"run_config={run_config.to_json()}")
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    run_config = RunConfig.from_args(args)
    universal = load_label_corpus(args.universal)
    query = load_label_corpus(args.query)
    config = SelectionConfig(
        budget_c=args.budget_count,
        duration_budget_s=args.budget_seconds,
        order=args.order,
        lam=args.lam,
        alpha=args.alpha,
        prune_min_count=args.prune_min_count,
        seed=args.seed,
    )
    if args.strategy == STRATEGY_GREEDY:
        result = select_greedy_scd(universal, query, config)
    elif args.strategy == STRATEGY_RANDOM:
        result = select_random(universal, config, query=query)
    elif args.strategy == STRATEGY_CONTRASTIVE:
        result = select_contrastive(universal, query, config)
    else:
        result = select_oracle(universal, query, config)

    save_report(result, args.output, extra_header={"run_config": run_config.to_json()})
    ids_path = args.ids_output if args.ids_output else args.output + ".ids"
    with open(ids_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"#run_config={run_config.to_json()}\n")
        for utt_id in result.selected_ids:
            handle.write(utt_id + "\n")

    final = result.final_scd.nats if result.final_scd is not None else float("nan")
    print(f"{result.strategy}: selected {len(result.selected_ids)} utterances, "
          f"final SCD {final:.6f} nats")
    print(f"report written to {args.output}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "train-kmeans" and args.max_frames is not None and args.max_frames < args.k:
        parser.error(f"train-kmeans: --max-frames {args.max_frames} is below --k {args.k}; "
                     "k-means needs at least k frames")
    level = {0: logging.WARNING, 1: logging.INFO}.get(args.verbose, logging.DEBUG)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (AudioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
