"""Data model and file formats for discrete-label corpora and audio manifests.

A label corpus is a list of utterances, each discretized into a sequence of
integer cluster labels drawn from a shared alphabet of size K. The on-disk
format is line-oriented UTF-8 text:

    line 1:     ``#K=<int>``
    each record: ``<id>\\t<duration_s>\\t<space-separated labels>``

An empty label list is encoded as an empty third field. Extra ``#``-prefixed
lines directly after the header are tolerated on load (tools may embed a
config echo there) but never written by :func:`save_label_corpus`.

Audio manifests are ``<id>\\t<path>`` lines.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

logger = logging.getLogger(__name__)

LABEL_DTYPE = np.int32


class CorpusFormatError(ValueError):
    """A label-corpus or manifest file violates its format contract."""


def _as_label_array(labels) -> np.ndarray:
    arr = np.asarray(labels, dtype=LABEL_DTYPE).reshape(-1)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class LabelSequence:
    """One utterance as an ordered run of integer cluster labels.

    ``labels`` is held as a read-only int32 array; an empty array is a valid
    (zero-length) utterance. Bounds against the owning alphabet are enforced
    by :class:`LabelCorpus`, not here.
    """

    id: str
    duration_s: float
    labels: np.ndarray

    def __post_init__(self):
        if not self.id:
            raise ValueError("utterance id must be non-empty")
        if "\t" in self.id or "\n" in self.id or "\r" in self.id:
            raise ValueError(f"utterance id {self.id!r} contains tab/newline")
        duration = float(self.duration_s)
        if not (math.isfinite(duration) and duration >= 0):
            raise ValueError(
                f"utterance {self.id!r}: duration_s must be a finite number >= 0, "
                f"got {self.duration_s!r}"
            )
        object.__setattr__(self, "duration_s", duration)
        object.__setattr__(self, "labels", _as_label_array(self.labels))

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabelSequence):
            return NotImplemented
        return (
            self.id == other.id
            and self.duration_s == other.duration_s
            and np.array_equal(self.labels, other.labels)
        )

    def __hash__(self):
        return hash((self.id, self.duration_s, self.labels.tobytes()))


@dataclass(frozen=True, eq=False)
class LabelCorpus:
    """A collection of label sequences over one alphabet of size K."""

    alphabet_size: int
    sequences: tuple[LabelSequence, ...]
    source_tag: str = ""

    def __post_init__(self):
        if self.alphabet_size < 1:
            raise ValueError("alphabet_size must be >= 1")
        object.__setattr__(self, "sequences", tuple(self.sequences))
        seen: set[str] = set()
        for seq in self.sequences:
            if seq.id in seen:
                raise ValueError(f"duplicate utterance id {seq.id!r}")
            seen.add(seq.id)
            if len(seq) and (seq.labels.min() < 0 or seq.labels.max() >= self.alphabet_size):
                bad = seq.labels[(seq.labels < 0) | (seq.labels >= self.alphabet_size)][0]
                raise ValueError(
                    f"utterance {seq.id!r}: label {int(bad)} outside [0, {self.alphabet_size})"
                )

    def __len__(self) -> int:
        return len(self.sequences)

    def __iter__(self) -> Iterator[LabelSequence]:
        return iter(self.sequences)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabelCorpus):
            return NotImplemented
        return (
            self.alphabet_size == other.alphabet_size
            and self.source_tag == other.source_tag
            and self.sequences == other.sequences
        )

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(seq.id for seq in self.sequences)

    @property
    def total_frames(self) -> int:
        return sum(len(seq) for seq in self.sequences)


@dataclass(frozen=True)
class ManifestEntry:
    id: str
    audio_path: str
    duration_s: float | None = None


@dataclass(frozen=True)
class AudioManifest:
    """Utterance ids paired with audio file paths."""

    entries: tuple[ManifestEntry, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        seen: set[str] = set()
        for entry in self.entries:
            if not entry.id:
                raise ValueError("manifest entry id must be non-empty")
            if entry.id in seen:
                raise ValueError(f"duplicate manifest id {entry.id!r}")
            seen.add(entry.id)
            if not entry.audio_path:
                raise ValueError(f"manifest entry {entry.id!r}: empty audio path")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[ManifestEntry]:
        return iter(self.entries)


def load_label_corpus(path: str | Path, source_tag: str | None = None) -> LabelCorpus:
    """Read a label-corpus file, preserving record order exactly.

    Raises :class:`CorpusFormatError` naming the line number for malformed
    lines, the utterance id for out-of-alphabet labels, and the id for
    duplicates. Never silently drops a record.
    """
    path = Path(path)
    sequences: list[LabelSequence] = []
    with path.open("r", encoding="utf-8", newline="\n") as handle:
        header = handle.readline().rstrip("\n")
        if not header.startswith("#K="):
            raise CorpusFormatError(f"{path}:1: expected '#K=<int>' header")
        try:
            alphabet_size = int(header[3:])
        except ValueError:
            raise CorpusFormatError(f"{path}:1: bad alphabet size in header {header!r}") from None
        if alphabet_size < 1:
            raise CorpusFormatError(f"{path}:1: alphabet size must be >= 1, got {alphabet_size}")

        body_started = False
        for lineno, line in enumerate(handle, start=2):
            line = line.rstrip("\n")
            if not body_started and line.startswith("#") and "\t" not in line:
                continue  # tolerated extra header comment (e.g. a config echo)
            body_started = True
            fields = line.split("\t")
            if len(fields) != 3:
                raise CorpusFormatError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}"
                )
            utt_id, duration_text, label_text = fields
            if duration_text == "":
                duration_s = 0.0  # absent duration; duration-budget selection refuses these
            else:
                try:
                    duration_s = float(duration_text)
                except ValueError:
                    raise CorpusFormatError(
                        f"{path}:{lineno}: bad duration {duration_text!r}"
                    ) from None
                if not math.isfinite(duration_s):
                    raise CorpusFormatError(
                        f"{path}:{lineno}: duration {duration_text!r} is not finite"
                    )
            if label_text:
                try:
                    labels = np.array(label_text.split(" "), dtype=LABEL_DTYPE)
                except ValueError:
                    raise CorpusFormatError(
                        f"{path}:{lineno}: labels must be space-separated integers"
                    ) from None
                except OverflowError:
                    raise CorpusFormatError(
                        f"{path}:{lineno}: utterance {utt_id!r} has a label outside the "
                        "int32 range"
                    ) from None
            else:
                labels = np.empty(0, dtype=LABEL_DTYPE)
            if labels.size and (labels.min() < 0 or labels.max() >= alphabet_size):
                bad = labels[(labels < 0) | (labels >= alphabet_size)][0]
                raise CorpusFormatError(
                    f"{path}:{lineno}: utterance {utt_id!r} has label {int(bad)} "
                    f"outside [0, {alphabet_size})"
                )
            try:
                sequences.append(LabelSequence(utt_id, duration_s, labels))
            except ValueError as exc:
                raise CorpusFormatError(f"{path}:{lineno}: {exc}") from None

    try:
        return LabelCorpus(
            alphabet_size=alphabet_size,
            sequences=tuple(sequences),
            source_tag=source_tag if source_tag is not None else path.name,
        )
    except ValueError as exc:
        raise CorpusFormatError(f"{path}: {exc}") from None


def save_label_corpus(
    corpus: LabelCorpus, path: str | Path, comments: Sequence[str] = ()
) -> None:
    """Write a corpus in the label-corpus format; load-after-save is identity.

    ``comments`` become extra ``#``-prefixed lines between the header and the
    body; they are skipped on load and must not contain tabs or newlines.
    """
    path = Path(path)
    for comment in comments:
        if "\t" in comment or "\n" in comment:
            raise ValueError("header comments must not contain tabs or newlines")
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"#K={corpus.alphabet_size}\n")
        for comment in comments:
            handle.write(f"#{comment}\n")
        for seq in corpus.sequences:
            labels = " ".join(map(str, seq.labels.tolist()))
            handle.write(f"{seq.id}\t{seq.duration_s!r}\t{labels}\n")


def sort_by_length(corpus: LabelCorpus) -> LabelCorpus:
    """Order sequences by ascending label count, ties by ascending id."""
    ordered = sorted(corpus.sequences, key=lambda seq: (len(seq), seq.id))
    return LabelCorpus(
        alphabet_size=corpus.alphabet_size,
        sequences=tuple(ordered),
        source_tag=corpus.source_tag,
    )


def load_audio_manifest(path: str | Path) -> AudioManifest:
    """Read ``<id>\\t<path>`` manifest lines."""
    path = Path(path)
    entries: list[ManifestEntry] = []
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise CorpusFormatError(
                    f"{path}:{lineno}: expected '<id>\\t<path>', got {len(fields)} fields"
                )
            entries.append(ManifestEntry(id=fields[0], audio_path=fields[1]))
    try:
        return AudioManifest(entries=tuple(entries))
    except ValueError as exc:
        raise CorpusFormatError(f"{path}: {exc}") from None
