"""Budget-constrained corpus subset selection by divergence over discrete labels."""

from .corpus import (
    AudioManifest,
    CorpusFormatError,
    LabelCorpus,
    LabelSequence,
    ManifestEntry,
    load_audio_manifest,
    load_label_corpus,
    save_label_corpus,
    sort_by_length,
)
from .discretizer import (
    KMeansModel,
    MfccConfig,
    apply_kmeans,
    compute_mfcc,
    discretize_manifest,
    load_kmeans_model,
    save_kmeans_model,
    train_kmeans,
)
from .divergence import (
    CandidateStats,
    DivergenceUndefinedError,
    ScdValue,
    scd,
    scd_incremental,
)
from .ngram import (
    Distribution,
    GramCounts,
    NGramStats,
    count_ngrams,
    interpolate,
    prune,
    save_stats_dump,
    sequence_gram_counts,
)
from .selection import (
    MarkovSource,
    SelectionConfig,
    SelectionResult,
    build_target_distribution,
    contrastive_scores,
    format_report,
    generate_synthetic,
    partition_buckets,
    save_report,
    select_contrastive,
    select_greedy_scd,
    select_oracle,
    select_random,
)

__version__ = "0.1.0"
