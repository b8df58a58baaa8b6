"""Property tests of the columnar label corpus against slow references.

A label file written by ``save_label_corpus`` loads back to the same corpus;
on randomly corrupted files the bulk loader and a small line-by-line
reference parser agree on accepting and on the first bad line, also when
the loader reads chunks of a few bytes; and ``count_ngrams`` matches a
brute-force recount on corpora built by the loader, by the constructor and
by ``sort_by_length``.
"""

import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scdselect.corpus import CorpusFormatError, load_label_corpus, save_label_corpus, sort_by_length
from scdselect import corpus as corpus_module
from scdselect import ngram
from scdselect.ngram import count_ngrams

from conftest import make_corpus
from test_ngram import brute_force_counts

# Ids: any non-empty text UTF-8 can encode, without tab, LF or CR.
IDS = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"), min_size=1, max_size=12
)
DURATIONS = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 0.1 + 0.2, 5e-324, 1e308]),
)


@st.composite
def corpora(draw, max_k=1000, max_len=12):
    k = draw(st.integers(1, max_k))
    ids = draw(st.lists(IDS, max_size=8, unique=True))
    seqs = [draw(st.lists(st.integers(0, k - 1), max_size=max_len)) for _ in ids]
    durations = [draw(DURATIONS) for _ in ids]
    return make_corpus(seqs, k, ids=ids, durations=durations)


def _load_bytes(data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.labels"
        path.write_bytes(data)
        return load_label_corpus(path)


def _save_bytes(corpus, comments=()) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.labels"
        save_label_corpus(corpus, path, comments=comments)
        return path.read_bytes()


@settings(max_examples=200, deadline=None)
@given(corpora())
def test_load_after_save_is_identity(corpus):
    loaded = _load_bytes(_save_bytes(corpus))
    assert loaded == corpus
    assert loaded.total_frames == corpus.total_frames


def reference_parse(data: bytes):
    """The records of a label file as ``(id, duration, labels)``, or the first bad line number.

    Written line by line from the format description, independently of the
    bulk loader; the header line is taken to be a valid ``#K=<int>``.
    """
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()  # the final LF is optional
    k = int(lines[0].decode()[3:])
    records, seen, body = [], set(), False
    for lineno, raw in enumerate(lines[1:], start=2):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            return lineno
        if not body and line.startswith("#") and "\t" not in line:
            continue
        body = True
        fields = line.split("\t")
        if len(fields) != 3:
            return lineno
        utt_id, duration_text, label_text = fields
        try:
            duration = float(duration_text) if duration_text else 0.0
        except ValueError:
            return lineno
        tokens = label_text.split(" ") if label_text else []
        if not all(re.fullmatch("[0-9]+", t) and int(t) < k for t in tokens):
            return lineno
        if not (math.isfinite(duration) and duration >= 0) or not utt_id or "\r" in utt_id:
            return lineno
        if utt_id in seen:
            return lineno
        seen.add(utt_id)
        records.append((utt_id, duration, [int(t) for t in tokens]))
    return records


# Bytes a corruption inserts or writes: separators, signs, digit look-alikes,
# comment and exponent characters, and bytes that are not UTF-8.
NOISE = [b"0", b"7", b"9", b" ", b"\t", b"\n", b"\r", b"+", b"-", b"_", b".", b"e", b"#",
         b"x", "١".encode(), b"\xff", b"\xc3", b"99999999999"]


@st.composite
def corrupted_files(draw):
    corpus = draw(corpora(max_k=30))
    data = bytearray(_save_bytes(corpus, comments=draw(st.lists(st.sampled_from(["cfg=1", ""]), max_size=2))))
    body_start = data.index(b"\n") + 1
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(body_start, len(data)))
        noise = draw(st.sampled_from(NOISE))
        action = draw(st.sampled_from(["insert", "replace", "delete", "repeat_line", "after_tab"]))
        tabs = [i + 1 for i in range(body_start, len(data)) if data[i] == ord("\t")]
        if action == "after_tab" and tabs:
            at = draw(st.sampled_from(tabs))
            action = "insert"
        if action == "insert":
            data[at:at] = noise
        elif action == "replace" and at < len(data):
            data[at : at + 1] = noise
        elif action == "delete" and at < len(data):
            del data[at]
        elif action == "repeat_line":
            lines = [line for line in bytes(data[body_start:]).split(b"\n") if line]
            if lines:
                copy = draw(st.sampled_from(lines))
                lines.insert(draw(st.integers(0, len(lines))), copy)
                data[body_start:] = b"\n".join(lines) + b"\n"
    return bytes(data)


@settings(max_examples=400, deadline=None)
@given(corrupted_files())
def test_bulk_loader_agrees_with_reference(data):
    expected = reference_parse(data)
    try:
        loaded = _load_bytes(data)
    except CorpusFormatError as exc:
        assert isinstance(expected, int), f"reference accepted, loader said {exc}"
        assert f"c.labels:{expected}: " in str(exc)
        return
    assert not isinstance(expected, int), f"loader accepted, reference rejects line {expected}"
    assert [(s.id, s.duration_s, s.labels.tolist()) for s in loaded] == expected


def _load_outcome(data: bytes):
    """The columns of the loaded corpus, or the loader's error message after the file name."""
    try:
        corpus = _load_bytes(data)
    except CorpusFormatError as exc:
        return str(exc).partition("c.labels:")[2]
    return (corpus.alphabet_size, corpus.ids, corpus.labels.tolist(), corpus.starts.tolist(),
            corpus.lengths.tolist(), corpus.durations.tolist())


@settings(max_examples=300, deadline=None)
@given(corrupted_files(), st.sampled_from([1, 16, 64]))
# A duplicate id whose first copy is a chunk before it, behind a comment line.
@example(b"#K=4\n#cfg\na\t1.0\t0 1 2 3\nb\t0.5\t3 3 3 3 3 3\nc\t\t\nd\t2\t1\na\t1.0\t0\n", 16)
# One line per chunk: the first copy of the duplicate id is in a chunk still
# in flight when the chunk of its second copy is parsed.
@example(b"#K=4\na\t1\t0\nb\t1\t1\na\t1\t2\nc\t1\t3\n", 1)
# Two chunks fail (a label of K, then a bad duration); the earlier is reported.
@example(b"#K=4\na\t1\t0\nb\t1\t4\nc\t1\t0\nd\tx\t1\n", 1)
def test_small_chunks_agree_with_reference(data, chunk_bytes):
    """The loader agrees with the reference when every chunk holds a few lines or one.

    Parsing on 1, 2 or 3 threads gives the same columns or the same error.
    """
    outcomes = []
    for workers in (1, 2, 3):
        with (
            mock.patch.object(corpus_module, "_CHUNK_BYTES", chunk_bytes),
            mock.patch.object(corpus_module, "_load_workers", return_value=workers),
        ):
            test_bulk_loader_agrees_with_reference.hypothesis.inner_test(data)
            outcomes.append(_load_outcome(data))
    assert outcomes[1:] == outcomes[:1] * 2


@settings(max_examples=200, deadline=None)
@given(
    corpora(max_k=12, max_len=10),
    st.integers(1, 4),
    st.sampled_from(["loader", "constructor"]),
    st.sampled_from([1, 3, 8, 1 << 16]),
)
def test_count_ngrams_matches_brute_force(corpus, order, built_by, batch):
    if built_by == "loader":
        corpus = _load_bytes(_save_bytes(corpus))
    expected = brute_force_counts([seq.labels.tolist() for seq in corpus], order)
    for counted in (corpus, sort_by_length(corpus)):
        # Small batches cut the corpus into many runs of utterances.
        with mock.patch.object(ngram, "_COUNT_BATCH", batch):
            stats = count_ngrams(counted, order)
        assert dict(stats.counts) == expected
        assert stats.total == sum(expected.values())
        assert np.array_equal(stats.counts.codes, np.sort(stats.counts.codes))


def reference_save_bytes(corpus, comments=()) -> bytes:
    """The label file of ``corpus`` written one utterance at a time."""
    lines = [f"#K={corpus.alphabet_size}", *(f"#{comment}" for comment in comments)]
    for seq in corpus.sequences:
        lines.append(f"{seq.id}\t{seq.duration_s!r}\t{' '.join(map(str, seq.labels.tolist()))}")
    return "".join(line + "\n" for line in lines).encode("utf-8")


COMMENTS = st.lists(
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n"), max_size=10),
    max_size=3,
)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(corpora(), corpora(max_k=2**31 - 1)),
    COMMENTS,
    st.booleans(),
    st.sampled_from([1, 3, 4096]),
    st.sampled_from([1, 10, 1 << 16]),
)
def test_bulk_writer_matches_reference(corpus, comments, sort, chunk_utts, table_rows):
    """Small chunks split the body into many writes; small tables take the distinct-label path."""
    if sort:
        corpus = sort_by_length(corpus)
    with (
        mock.patch.object(corpus_module, "_WRITE_CHUNK_UTTS", chunk_utts),
        mock.patch.object(corpus_module, "_TOKEN_TABLE_ROWS", table_rows),
    ):
        assert _save_bytes(corpus, comments) == reference_save_bytes(corpus, comments)


def test_bulk_writer_edge_cases():
    corpus = make_corpus(
        [[3, 1, 10], [], [0], [], [10, 10]],
        11,
        ids=["b", "é ü", "a", "日本", "c"],
        durations=[0.1 + 0.2, 0.0, 1e308, 5e-324, 2.5],
    )
    for written in (corpus, sort_by_length(corpus)):
        for comments in ((), ("config echo", "ü x=1", "")):
            assert _save_bytes(written, comments) == reference_save_bytes(written, comments)
    assert _save_bytes(make_corpus([], 5)) == b"#K=5\n"
    assert _save_bytes(make_corpus([[]], 2)) == b"#K=2\nu0\t1.0\t\n"
