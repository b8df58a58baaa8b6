"""Budget-constrained corpus subset selection by divergence over discrete labels.

The names of ``__all__`` are imported from their submodules on first use
(PEP 562), so ``import scdselect`` alone loads no numpy. That lets the CLI
entry, :mod:`scdselect.__main__`, set OpenBLAS's thread count before numpy
starts its thread pool, while a program that imports scdselect as a library
keeps its own BLAS setting.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "corpus": (
        "AudioManifest", "CorpusFormatError", "LabelCorpus", "LabelSequence", "ManifestEntry",
        "load_audio_manifest", "load_label_corpus", "save_label_corpus", "sort_by_length",
    ),
    "discretizer": (
        "KMeansModel", "MfccConfig", "apply_kmeans", "compute_mfcc", "discretize_manifest",
        "load_kmeans_model", "save_kmeans_model", "train_kmeans",
    ),
    "divergence": ("CandidateStats", "DivergenceUndefinedError", "ScdValue", "scd", "scd_incremental"),
    "ngram": (
        "Distribution", "GramCounts", "NGramStats", "count_ngrams", "interpolate", "prune",
        "save_stats_dump", "sequence_gram_counts",
    ),
    "selection": (
        "MarkovSource", "SelectionConfig", "SelectionResult", "build_target_distribution",
        "contrastive_scores", "format_report", "generate_synthetic", "partition_buckets",
        "save_report", "select_contrastive", "select_greedy_scd", "select_oracle", "select_random",
    ),
}
_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SUBMODULE_OF)


def __getattr__(name):
    # A submodule name imports it, so `scdselect.corpus` needs no import of its own.
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _SUBMODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
