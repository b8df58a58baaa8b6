"""Data model and file formats for discrete-label corpora and audio manifests.

A label corpus is a list of utterances, each discretized into a sequence of
integer cluster labels drawn from a shared alphabet of size K. The on-disk
format is line-oriented UTF-8 text with LF line ends:

    line 1:     ``#K=<int>``
    each record: ``<id>\\t<duration_s>\\t<labels>``

The header's ``<int>`` is ``[0-9]+`` with a value >= 1 and nothing else
before the LF (no sign, space, ``_``, non-ASCII digit or CR). ``<labels>``
is zero or more ``[0-9]+`` tokens, each below K and below 2**31, separated
by single ASCII spaces; an empty field is a zero-length utterance. Signs,
``_`` digit separators, non-ASCII digits, other whitespace and a CR before
the LF are rejected. ``<duration_s>`` is anything ``float()`` reads as a
finite number >= 0, or empty for an absent duration (stored as 0.0). Ids
are non-empty, unique and hold no CR. Extra ``#``-prefixed lines directly
after the header are tolerated on load (tools may embed a config echo
there) but never written by :func:`save_label_corpus`.

The loader checks each line-aligned chunk of the body in bulk with the one
record parser, :func:`_parse_records`, on up to four threads (one per
usable CPU), and takes the results in file order. Only the first chunk that
fails is checked again, line by line, to name its first faulty line. The
loaded corpus and the error never depend on the number of threads.

In memory a :class:`LabelCorpus` is columnar (see its docstring): one flat
label array shared by all utterances, plus per-utterance columns. The loader
stores labels in the narrowest unsigned type that holds every label below K
(uint8 up to K=256, uint16 up to K=65536, uint32 beyond), so the label
column of a large pool takes one or two bytes per label.

Audio manifests are ``<id>\\t<path>`` lines.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import operator
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NoReturn, Sequence

import numpy as np

from .parallel import map_in_order

LABEL_DTYPE = np.int32

# Bytes of label-file body read per chunk (extended to the next line end),
# and the most threads that parse chunks.
_CHUNK_BYTES = 1 << 18
_MAX_LOAD_WORKERS = 4

# Utterances formatted per write, and the most label values whose text the
# writer keeps in a list (when any label is larger, labels go through ``str``).
_WRITE_CHUNK_UTTS = 4096
_TOKEN_TABLE_ROWS = 1 << 16

_INT32_END = 2**31
_LABEL_FIELD_BYTES = b"0123456789 "
_SIGNED_TOKEN = re.compile(rb"[+-]?[0-9]+")


class CorpusFormatError(ValueError):
    """A label-corpus or manifest file violates its format contract."""


def integer_labels(labels, utt_id: str | None = None) -> np.ndarray:
    """``labels`` as a flat array whose dtype casts safely to int32.

    ValueError, naming ``utt_id`` when given, unless the labels have an integer
    dtype and lie within the int32 range; empty input of any dtype is valid. An
    array of a dtype that fits int32 is returned unread; any other is copied.
    """
    arr = np.asarray(labels).reshape(-1)
    if arr.dtype.kind in "iu" and np.can_cast(arr.dtype, LABEL_DTYPE):
        return arr
    if arr.size and (arr.dtype.kind not in "iu" or arr.min() < -_INT32_END or arr.max() >= _INT32_END):
        owner = "" if utt_id is None else f"utterance {utt_id!r}: "
        raise ValueError(f"{owner}labels must be integers within the int32 range, got {arr.dtype} values")
    return arr.astype(LABEL_DTYPE)


def integer_scalar(value, name: str, minimum: int | None = None) -> int:
    """``value`` as a plain int: ValueError naming ``name`` for a bool, a non-integer or a value below ``minimum``.

    Python and numpy integers pass; ``True``, ``2.0`` and ``"2"`` do not.
    """
    try:
        number = None if isinstance(value, (bool, np.bool_)) else operator.index(value)
    except TypeError:
        number = None
    if number is None:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and number < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {number}")
    return number


def real_scalar(value, name: str, minimum: float | None = None) -> float:
    """``value`` as a plain float: ValueError naming ``name`` for a bool or a non-real (``"0.5"``, a ``Decimal``).

    Given a ``minimum``, the value must also be finite and at least that.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    number = float(value)
    if minimum is not None and not (math.isfinite(number) and number >= minimum):
        raise ValueError(f"{name} must be finite and >= {minimum}, got {number!r}")
    return number


def _check_id_chars(utt_id: str) -> None:
    """ValueError when an id holds a tab, LF or CR, which would break its file's records."""
    if "\t" in utt_id or "\n" in utt_id or "\r" in utt_id:
        raise ValueError(f"utterance id {utt_id!r} contains tab/newline")


@dataclass(frozen=True, eq=False, slots=True)
class LabelSequence:
    """One utterance as an ordered run of integer cluster labels.

    ``labels`` is a read-only integer array: int32 when the sequence is
    built here, or a view into a loaded corpus's narrower label column.
    Built here, labels must have an integer dtype and lie within int32: floats,
    bools, objects and wider values raise ValueError naming the id, never cast.
    Equality and hashing depend on the label values only, not on the dtype.
    An empty array is a valid (zero-length) utterance. Bounds against the
    owning alphabet are enforced by :class:`LabelCorpus`, not here.
    """

    id: str
    duration_s: float
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "duration_s", self._checked_duration(self.id, self.duration_s))
        labels = integer_labels(self.labels, self.id).astype(LABEL_DTYPE, copy=False)
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)

    @staticmethod
    def _checked_duration(utt_id: str, duration_s) -> float:
        """``duration_s`` as a float; ValueError unless the id and the duration are valid."""
        if not utt_id:
            raise ValueError("utterance id must be non-empty")
        _check_id_chars(utt_id)
        duration = float(duration_s)
        if not (math.isfinite(duration) and duration >= 0):
            raise ValueError(
                f"utterance {utt_id!r}: duration_s must be a finite number >= 0, got {duration_s!r}"
            )
        return duration

    @classmethod
    def _view(cls, utt_id: str, duration_s: float, labels: np.ndarray) -> LabelSequence:
        """A sequence over values its corpus has already checked; nothing is copied."""
        seq = object.__new__(cls)
        object.__setattr__(seq, "id", utt_id)
        object.__setattr__(seq, "duration_s", duration_s)
        object.__setattr__(seq, "labels", labels)
        return seq

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
        return hash((self.id, self.duration_s, self.labels.astype(LABEL_DTYPE, copy=False).tobytes()))


class LabelCorpus:
    """A collection of label sequences over one alphabet of size K, held as columns.

    Utterance ``i`` has id ``ids[i]``, duration ``durations[i]`` and the labels
    ``labels[starts[i] : starts[i] + lengths[i]]``. ``labels`` is one flat
    read-only integer array that the utterances partition. The constructor
    keeps the dtype of the sequences' labels (int32 for sequences built as
    :class:`LabelSequence`); :func:`load_label_corpus` stores the narrowest
    unsigned type that holds every label below K. ``starts`` and
    ``lengths`` (int64) and ``durations`` (float64) are read-only too. This is
    the offsets-plus-values list layout of the Arrow columnar format, with an
    explicit start per utterance so that reordering utterances permutes the
    small columns and shares ``labels`` (see :func:`sort_by_length`).
    ``sequences`` presents the utterances as :class:`LabelSequence` views into
    ``labels``.

    The constructor copies the labels of ``sequences`` into one new
    ``labels`` column and checks that ids are unique and every label lies in
    ``[0, alphabet_size)``.
    """

    __slots__ = (
        "alphabet_size", "labels", "starts", "lengths", "ids", "durations", "_sequences",
    )

    def __init__(self, alphabet_size: int, sequences: Iterable[LabelSequence]):
        alphabet_size = integer_scalar(alphabet_size, "alphabet_size", 1)
        sequences = tuple(sequences)
        ids = tuple(seq.id for seq in sequences)
        _check_unique(ids)
        lengths = np.array([len(seq) for seq in sequences], dtype=np.int64)
        labels = np.concatenate([seq.labels for seq in sequences] or [np.empty(0, LABEL_DTYPE)])
        if labels.size and (labels.min() < 0 or labels.max() >= alphabet_size):
            position = int(np.argmax((labels < 0) | (labels >= alphabet_size)))
            owner = int(np.searchsorted(np.cumsum(lengths), position, side="right"))
            raise ValueError(
                f"utterance {ids[owner]!r}: label {int(labels[position])} "
                f"outside [0, {alphabet_size})"
            )
        durations = np.array([seq.duration_s for seq in sequences], dtype=np.float64)
        self._assign(alphabet_size, labels, np.cumsum(lengths) - lengths, lengths, ids, durations)

    def _assign(self, alphabet_size, labels, starts, lengths, ids, durations) -> None:
        self.alphabet_size = alphabet_size
        self.labels, self.starts, self.lengths, self.durations = labels, starts, lengths, durations
        for column in (labels, starts, lengths, durations):
            column.flags.writeable = False
        self.ids = ids
        self._sequences: tuple[LabelSequence, ...] | None = None

    @classmethod
    def _from_columns(cls, *columns) -> LabelCorpus:
        """A corpus over columns that are already checked (the arguments of ``_assign``)."""
        corpus = cls.__new__(cls)
        corpus._assign(*columns)
        return corpus

    @property
    def sequences(self) -> tuple[LabelSequence, ...]:
        """The utterances in order, as views into ``labels`` (built on first use)."""
        if self._sequences is None:
            ends = (self.starts + self.lengths).tolist()
            self._sequences = tuple(
                LabelSequence._view(utt_id, duration, self.labels[start:end])
                for utt_id, duration, start, end in zip(
                    self.ids, self.durations.tolist(), self.starts.tolist(), ends
                )
            )
        return self._sequences

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[LabelSequence]:
        return iter(self.sequences)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabelCorpus):
            return NotImplemented
        return self.alphabet_size == other.alphabet_size and self.sequences == other.sequences

    @property
    def total_frames(self) -> int:
        return int(self.lengths.sum())


def _check_unique(ids: Sequence[str]) -> None:
    """ValueError naming the first id that repeats an earlier one of ``ids``."""
    if len(set(ids)) == len(ids):
        return
    seen: set[str] = set()
    for utt_id in ids:
        if utt_id in seen:
            raise ValueError(f"duplicate utterance id {utt_id!r}")
        seen.add(utt_id)


@dataclass(frozen=True)
class ManifestEntry:
    id: str
    audio_path: str


def _check_manifest_entry(entry: ManifestEntry, seen: set[str]) -> None:
    """ValueError unless ``entry`` has a valid id not in ``seen`` and an audio path; adds its id to ``seen``."""
    if not entry.id:
        raise ValueError("manifest entry id must be non-empty")
    _check_id_chars(entry.id)
    if entry.id in seen:
        raise ValueError(f"duplicate manifest id {entry.id!r}")
    if not entry.audio_path:
        raise ValueError(f"manifest entry {entry.id!r}: empty audio path")
    seen.add(entry.id)


@dataclass(frozen=True)
class AudioManifest:
    """Utterance ids paired with audio file paths."""

    entries: tuple[ManifestEntry, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        seen: set[str] = set()
        for entry in self.entries:
            _check_manifest_entry(entry, seen)

    @classmethod
    def _from_checked(cls, entries: tuple[ManifestEntry, ...]) -> AudioManifest:
        """A manifest over entries that are already checked; they are not checked again."""
        manifest = cls.__new__(cls)
        object.__setattr__(manifest, "entries", entries)
        return manifest

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[ManifestEntry]:
        return iter(self.entries)


def load_label_corpus(path: str | Path) -> LabelCorpus:
    """Read a label-corpus file, preserving record order exactly.

    The body is read in line-aligned chunks of about ``_CHUNK_BYTES`` on this
    thread, and :func:`_parse_records` checks and parses each chunk in bulk
    on up to ``_MAX_LOAD_WORKERS`` threads, one per usable CPU (see
    :func:`_load_workers`), with at most two chunks per thread in flight.
    The label column is preallocated for the whole file in the narrowest
    unsigned type that holds every label below K (uint8 up to K=256, uint16
    up to K=65536, uint32 beyond). A worker range-checks its chunk's values,
    narrows them to that type and returns them with the chunk's ids, lengths
    and durations, but not its lines. Results are taken in file order: each
    chunk's ids are checked against those of the chunks before it, and its
    labels are copied into the column. The first chunk that fails, in file
    order, holds the first faulty line: only that chunk's lines are then
    checked one at a time, and the first that fails raises
    :class:`CorpusFormatError` naming ``path:line`` (and the utterance id for
    label and id faults). An id repeated from an earlier chunk is named at
    its own line. Neither the result nor the error depends on the number of
    threads. Never silently drops a record.
    """
    path = Path(path)
    with path.open("rb") as handle:
        alphabet_size = _read_header(path, handle.readline())
        # Every label but the file's last takes a digit and a following space
        # or LF, and the header alone takes four bytes, so half the file size
        # bounds the label count. Labels are below min(K, 2**31), so the
        # narrowest unsigned type that holds that bound holds them all.
        narrow = np.min_scalar_type(min(alphabet_size, _INT32_END) - 1)
        labels = np.empty(os.fstat(handle.fileno()).st_size // 2, dtype=narrow)
        filled = 0
        ids: list[str] = []
        durations: list[float] = []
        lengths: list[int] = []
        seen: set[str] = set()
        lineno = 2
        body = handle.tell()
        while _is_comment(line := handle.readline()):
            _check_utf8(path, lineno, line)
            lineno += 1
            body = handle.tell()
        handle.seek(body)

        def chunks() -> Iterator[bytes]:
            while chunk := handle.read(_CHUNK_BYTES):
                if not chunk.endswith(b"\n"):
                    chunk += handle.readline()
                yield chunk

        def parse(chunk: bytes) -> tuple[tuple | None, list[bytes] | None]:
            """The chunk's records, labels in the column's dtype; or None and its lines if one fails."""
            lines = chunk.split(b"\n")
            if not lines[-1]:
                lines.pop()
            try:
                values, *rest = _parse_records(lines, alphabet_size)
            except ValueError:
                return None, lines
            # The values are range-checked, so narrowing keeps them.
            return (values.astype(narrow), *rest), None

        workers = _load_workers()
        with contextlib.closing(map_in_order(parse, chunks(), workers, 2 * workers)) as parsed:
            for records, lines in parsed:
                if records is None:
                    _raise_first_fault(path, lineno, lines, alphabet_size, seen)
                values, n_labels, utt_ids, seconds = records
                # A chunk parses on its own, so ids are checked across chunks here;
                # its other lines check out, so a repeated id is its first fault.
                _add_new_ids(path, lineno, utt_ids, seen)
                labels[filled : filled + values.shape[0]] = values
                filled += values.shape[0]
                ids.extend(utt_ids)
                durations.extend(seconds)
                lengths.extend(n_labels)
                lineno += len(utt_ids)
    labels.resize(filled, refcheck=False)
    length_column = np.array(lengths, dtype=np.int64)
    return LabelCorpus._from_columns(
        alphabet_size, labels, np.cumsum(length_column) - length_column, length_column,
        tuple(ids), np.array(durations, dtype=np.float64),
    )


def _load_workers() -> int:
    """Threads that parse a label file: one per usable CPU, at most ``_MAX_LOAD_WORKERS``.

    Usable CPUs are those of the process's affinity mask where the OS has one.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_LOAD_WORKERS)


def _read_header(path: Path, line: bytes) -> int:
    header = line.decode("utf-8", errors="replace").removesuffix("\n")
    if not header.startswith("#K="):
        raise CorpusFormatError(f"{path}:1: expected '#K=<int>' header")
    if not (header[3:].isascii() and header[3:].isdigit()):
        raise CorpusFormatError(f"{path}:1: bad alphabet size in header {header!r}")
    alphabet_size = int(header[3:])
    if alphabet_size < 1:
        raise CorpusFormatError(f"{path}:1: alphabet size must be >= 1, got {alphabet_size}")
    return alphabet_size


def _is_comment(line: bytes) -> bool:
    """Whether a line before the first record is a tolerated ``#`` comment."""
    return line.startswith(b"#") and b"\t" not in line


def _check_utf8(path: Path, lineno: int, line: bytes) -> None:
    try:
        line.decode("utf-8")
    except UnicodeDecodeError:
        raise CorpusFormatError(f"{path}:{lineno}: not valid UTF-8") from None


def _parse_records(lines: Sequence[bytes], alphabet_size: int) -> tuple:
    """Labels (int64), lengths, ids and durations of record lines, checked in bulk.

    This is the one definition of a record line. Any fault raises
    ValueError; given a single line, its text is that line's fault message.
    Ids are checked against each other, not earlier records (:func:`_add_new_ids`).
    """
    ids: list[str] = []
    durations: list[float] = []
    lengths: list[int] = []
    fields: list[bytes] = []
    for line in lines:
        parts = line.split(b"\t")
        if len(parts) != 3:
            raise ValueError(f"expected 3 tab-separated fields, got {len(parts)}")
        utt_id, duration_text, field = parts
        duration_text = duration_text.decode("utf-8")
        try:
            duration = float(duration_text) if duration_text else 0.0
        except ValueError:
            raise ValueError(f"bad duration {duration_text!r}") from None
        if not math.isfinite(duration):
            raise ValueError(f"duration {duration_text!r} is not finite")
        ids.append(utt_id.decode("utf-8"))
        durations.append(duration)
        lengths.append(field.count(b" ") + 1 if field else 0)
        fields.append(field)
    # With digits and spaces only, each parsed value is one run of digits,
    # so as many values as space-separated tokens means no token is empty.
    # Values are >= 0, and int64 parsing saturates rather than wraps, so
    # the upper bound also catches labels beyond int32.
    text = b" ".join(filter(None, fields))
    values = None if text.translate(None, _LABEL_FIELD_BYTES) else np.fromstring(text, np.int64, sep=" ")
    expected = sum(lengths)
    well_formed = values is not None and values.shape[0] == expected
    label_end = min(alphabet_size, _INT32_END)
    if not well_formed or (expected and values.max() >= label_end):
        for utt_id, field in zip(ids, fields):
            if any(_SIGNED_TOKEN.fullmatch(t) and not -_INT32_END <= int(t) < _INT32_END
                   for t in field.split(b" ")):
                raise ValueError(f"utterance {utt_id!r} has a label outside the int32 range")
        if not well_formed:
            raise ValueError("labels must be space-separated integers")
        position = int(np.argmax(values >= label_end))
        owner = int(np.searchsorted(np.cumsum(lengths), position, side="right"))
        raise ValueError(
            f"utterance {ids[owner]!r} has label {int(values[position])} outside [0, {alphabet_size})"
        )
    if not all(ids) or any("\r" in utt_id for utt_id in ids) or min(durations, default=0.0) < 0:
        for utt_id, duration in zip(ids, durations):
            LabelSequence._checked_duration(utt_id, duration)
    _check_unique(ids)
    return values, lengths, ids, durations


def _raise_first_fault(
    path: Path, lineno: int, lines: Sequence[bytes], alphabet_size: int, seen: set[str]
) -> NoReturn:
    """Check ``lines``, numbered from ``lineno``, one at a time; raise for the first faulty one."""
    for lineno, line in enumerate(lines, start=lineno):
        _check_utf8(path, lineno, line)
        try:
            utt_ids = _parse_records([line], alphabet_size)[2]
        except ValueError as exc:
            raise CorpusFormatError(f"{path}:{lineno}: {exc}") from None
        _add_new_ids(path, lineno, utt_ids, seen)
    raise RuntimeError(f"{path}: a chunk failed to parse but each of its lines checks out")


def _add_new_ids(path: Path, lineno: int, utt_ids: Sequence[str], seen: set[str]) -> None:
    """Add the distinct ``utt_ids``, numbered from ``lineno``, to ``seen``; raise at the first already there."""
    if not seen.isdisjoint(utt_ids):
        index, utt_id = next((i, u) for i, u in enumerate(utt_ids) if u in seen)
        raise CorpusFormatError(f"{path}:{lineno + index}: duplicate utterance id {utt_id!r}")
    seen.update(utt_ids)


def save_label_corpus(
    corpus: LabelCorpus, path: str | Path, comments: Sequence[str] = ()
) -> None:
    """Write a corpus in the label-corpus format; load-after-save is identity.

    ``comments`` become extra ``#``-prefixed lines between the header and the
    body; they are skipped on load and must not contain tabs or newlines.
    The body is written ``_WRITE_CHUNK_UTTS`` records at a time, each chunk
    joined into one string. While every label is below ``_TOKEN_TABLE_ROWS``,
    an utterance's label texts are gathered with one index into an object
    array of texts by label value; otherwise labels are formatted with
    ``str``.
    """
    path = Path(path)
    for comment in comments:
        if "\t" in comment or "\n" in comment:
            raise ValueError("header comments must not contain tabs or newlines")
    labels = corpus.labels
    top = int(labels.max(initial=0)) + 1
    if top <= _TOKEN_TABLE_ROWS:
        table = np.array([str(value) for value in range(top)], dtype=object)

        def field(values: np.ndarray) -> str:
            return " ".join(table[values].tolist())
    else:
        def field(values: np.ndarray) -> str:
            return " ".join(map(str, values.tolist()))
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"#K={corpus.alphabet_size}\n")
        for comment in comments:
            handle.write(f"#{comment}\n")
        for first in range(0, len(corpus), _WRITE_CHUNK_UTTS):
            rows = slice(first, first + _WRITE_CHUNK_UTTS)
            ends = (corpus.starts[rows] + corpus.lengths[rows]).tolist()
            handle.write("".join(
                f"{utt_id}\t{duration!r}\t{field(labels[start:end])}\n"
                for utt_id, duration, start, end in zip(
                    corpus.ids[rows], corpus.durations[rows].tolist(), corpus.starts[rows].tolist(), ends
                )
            ))


def length_order(corpus: LabelCorpus) -> np.ndarray:
    """Rows of ``corpus`` by ascending label count, ties by ascending id."""
    by_id = np.array(sorted(range(len(corpus)), key=corpus.ids.__getitem__), dtype=np.intp)
    return by_id[np.argsort(corpus.lengths[by_id], kind="stable")]


def sort_by_length(corpus: LabelCorpus) -> LabelCorpus:
    """The corpus in :func:`length_order`.

    Only the per-utterance columns are permuted: the result shares the label
    array, and nothing is checked again.
    """
    order = length_order(corpus)
    return LabelCorpus._from_columns(
        corpus.alphabet_size,
        corpus.labels,
        corpus.starts[order],
        corpus.lengths[order],
        tuple(map(corpus.ids.__getitem__, order.tolist())),
        corpus.durations[order],
    )


def load_audio_manifest(path: str | Path) -> AudioManifest:
    """Read ``<id>\\t<path>`` lines, ended by LF, CRLF or CR; a bad line is named by number."""
    path = Path(path)
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    # Undecodable bytes become lone surrogates, which no valid line holds.
    with path.open("r", encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise CorpusFormatError(f"{path}:{lineno}: not valid UTF-8") from None
            fields = line.split("\t")
            if len(fields) != 2:
                raise CorpusFormatError(f"{path}:{lineno}: expected '<id>\\t<path>', got {len(fields)} fields")
            entry = ManifestEntry(*fields)
            try:
                _check_manifest_entry(entry, seen)
            except ValueError as exc:
                raise CorpusFormatError(f"{path}:{lineno}: {exc}") from None
            entries.append(entry)
    return AudioManifest._from_checked(tuple(entries))
