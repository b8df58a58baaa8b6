import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from scdselect.corpus import LabelCorpus, LabelSequence
from scdselect.ngram import GramCounts, NGramStats

# A failing property prints a blob that replays its example with
# ``@reproduce_failure``, so a rare failure need not be found again.
settings.register_profile("scdselect", print_blob=True)
settings.load_profile("scdselect")

# pytest puts src/ on its own sys.path (pyproject.toml); the tests that run
# ``python -m scdselect`` in a child process need it on the child's path too.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])
)


def make_corpus(seqs, alphabet_size, ids=None, durations=None):
    """Corpus from plain label lists; ids default to u0, u1, ..."""
    sequences = []
    for i, labels in enumerate(seqs):
        sequences.append(
            LabelSequence(
                id=ids[i] if ids else f"u{i}",
                duration_s=durations[i] if durations else 1.0,
                labels=np.asarray(labels, dtype=np.int32),
            )
        )
    return LabelCorpus(alphabet_size=alphabet_size, sequences=tuple(sequences))


def stats_from_counts(counts, k, order=1, alpha=0.5):
    """Stats from a ``gram tuple -> count`` dict; each gram becomes its mixed-radix code."""
    grams = sorted(counts)
    codes = np.array([np.ravel_multi_index(gram, (k,) * order) for gram in grams], dtype=np.int64)
    tallies = np.array([counts[gram] for gram in grams], dtype=np.int64)
    return NGramStats(counts=GramCounts(order, k, codes, tallies), smoothing_alpha=alpha)


@pytest.fixture
def tiny_corpus():
    return make_corpus([[0, 0, 1], [1, 2], []], alphabet_size=3)
