import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scdselect import corpus as corpus_module
from scdselect.corpus import (
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

from conftest import make_corpus


def write(path, text):
    path.write_text(text, encoding="utf-8", newline="\n")


class TestLoad:
    def test_two_records(self, tmp_path):
        path = tmp_path / "c.labels"
        write(path, "#K=500\na\t1.5\t0 1 2\nb\t0.25\t499\n")
        corpus = load_label_corpus(path)
        assert corpus.alphabet_size == 500
        assert len(corpus) == 2
        assert corpus.ids == ("a", "b")
        assert corpus.sequences[0].duration_s == 1.5
        assert corpus.sequences[0].labels.tolist() == [0, 1, 2]

    def test_label_at_alphabet_bound_rejected(self, tmp_path):
        path = tmp_path / "c.labels"
        write(path, "#K=500\na\t1.0\t500\n")
        with pytest.raises(CorpusFormatError, match="'a'.*500"):
            load_label_corpus(path)

    def test_empty_body(self, tmp_path):
        path = tmp_path / "c.labels"
        write(path, "#K=4\n")
        corpus = load_label_corpus(path)
        assert corpus.alphabet_size == 4
        assert len(corpus) == 0

    def test_empty_label_field(self, tmp_path):
        path = tmp_path / "c.labels"
        write(path, "#K=4\na\t0.0\t\n")
        corpus = load_label_corpus(path)
        assert len(corpus.sequences[0]) == 0

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = tmp_path / "c.labels"
        write(path, "#K=4\na\t1.0\t0 1\nbad line without tabs\n")
        with pytest.raises(CorpusFormatError, match=":3:"):
            load_label_corpus(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "c.labels"
        write(path, "#K=4\na\t1.0\t0\na\t1.0\t1\n")
        with pytest.raises(CorpusFormatError, match="duplicate"):
            load_label_corpus(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "c.labels"
        write(path, "K=4\na\t1.0\t0\n")
        with pytest.raises(CorpusFormatError, match=":1:"):
            load_label_corpus(path)

    @pytest.mark.parametrize(
        "header",
        [
            "#K=1_0",  # digit separator (int() read K=10)
            "#K= +4\r",  # space, sign and CR (int() read K=4)
            "#K=+4",  # sign
            "#K=-4",  # negative (was reported as below 1)
            "#K=٤",  # Arabic-Indic digit four
            "#K=4 ",  # trailing space
            "#K=4\r",  # CR before the LF
            "#K=",  # no digits
        ],
    )
    def test_bad_alphabet_size_forms(self, tmp_path, header):
        path = tmp_path / "c.labels"
        write(path, f"{header}\na\t1.0\t0\n")
        with pytest.raises(CorpusFormatError, match="c.labels:1: bad alphabet size in header"):
            load_label_corpus(path)

    def test_zero_alphabet_size_names_line(self, tmp_path):
        path = tmp_path / "c.labels"
        write(path, "#K=0\na\t1.0\t\n")
        with pytest.raises(CorpusFormatError, match="c.labels:1: alphabet size must be >= 1, got 0"):
            load_label_corpus(path)

    @pytest.mark.parametrize("text, k", [("#K=004\n", 4), ("#K=7", 7)])
    def test_header_leading_zeros_and_no_final_newline(self, tmp_path, text, k):
        path = tmp_path / "c.labels"
        write(path, text)
        assert load_label_corpus(path).alphabet_size == k

    @pytest.mark.parametrize("label", ["99999999999", "-99999999999", "2147483648", "9" * 30])
    def test_label_outside_int32_names_line_and_id(self, tmp_path, label):
        path = tmp_path / "c.labels"
        write(path, f"#K=4\na\t1.0\t0 1\nb\t1.0\t1 {label} 2\n")
        with pytest.raises(CorpusFormatError, match="c.labels:3: utterance 'b' .*int32"):
            load_label_corpus(path)

    def test_negative_label_rejected(self, tmp_path):
        path = tmp_path / "c.labels"
        write(path, "#K=4\na\t1.0\t0 -1\n")
        with pytest.raises(CorpusFormatError):
            load_label_corpus(path)

    def test_comment_lines_after_header_skipped(self, tmp_path):
        path = tmp_path / "c.labels"
        write(path, '#K=4\n#cfg={"x": 1}\na\t1.0\t0 1\n')
        corpus = load_label_corpus(path)
        assert corpus.ids == ("a",)

    def test_absent_duration_stored_as_zero(self, tmp_path):
        path = tmp_path / "c.labels"
        write(path, "#K=4\na\t\t0 1\n")
        assert load_label_corpus(path).sequences[0].duration_s == 0.0

    def test_no_silent_drops(self, tmp_path):
        path = tmp_path / "c.labels"
        body = "".join(f"u{i}\t1.0\t{i % 4}\n" for i in range(100))
        write(path, "#K=4\n" + body)
        assert len(load_label_corpus(path)) == 100


class TestRoundTrip:
    def test_identity(self, tmp_path, tiny_corpus):
        path = tmp_path / "c.labels"
        save_label_corpus(tiny_corpus, path)
        loaded = load_label_corpus(path)
        assert loaded == tiny_corpus

    def test_empty_labels_preserved(self, tmp_path):
        corpus = make_corpus([[]], alphabet_size=7)
        path = tmp_path / "c.labels"
        save_label_corpus(corpus, path)
        loaded = load_label_corpus(path)
        assert len(loaded.sequences[0]) == 0
        assert loaded == corpus

    def test_non_ascii_id(self, tmp_path):
        corpus = make_corpus([[0, 1]], alphabet_size=2, ids=["uttérance-日本語"])
        path = tmp_path / "c.labels"
        save_label_corpus(corpus, path)
        assert load_label_corpus(path) == corpus
        assert "uttérance-日本語" in path.read_text(encoding="utf-8")

    def test_duration_round_trip_exact(self, tmp_path):
        corpus = make_corpus([[0]], alphabet_size=2, durations=[0.1 + 0.2])
        path = tmp_path / "c.labels"
        save_label_corpus(corpus, path)
        assert load_label_corpus(path).sequences[0].duration_s == 0.1 + 0.2

    def test_save_is_byte_deterministic(self, tmp_path, tiny_corpus):
        p1, p2 = tmp_path / "a", tmp_path / "b"
        save_label_corpus(tiny_corpus, p1)
        save_label_corpus(tiny_corpus, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("comment", ["a\tb", "a\nb"])
    def test_comment_with_tab_or_newline_rejected(self, tmp_path, tiny_corpus, comment):
        path = tmp_path / "c.labels"
        with pytest.raises(ValueError, match="header comments must not contain tabs or newlines"):
            save_label_corpus(tiny_corpus, path, comments=["ok", comment])
        assert not path.exists()

    def test_save_io_failure_raises(self, tmp_path, tiny_corpus):
        with pytest.raises(OSError):
            save_label_corpus(tiny_corpus, tmp_path)  # path is a directory

    def test_random_corpora_round_trip(self, tmp_path):
        rng = np.random.default_rng(42)
        for trial in range(20):
            k = int(rng.integers(1, 50))
            n = int(rng.integers(0, 10))
            corpus = make_corpus(
                [rng.integers(0, k, size=rng.integers(0, 30)).tolist() for _ in range(n)],
                alphabet_size=k,
                ids=[f"utt-{trial}-{j}" for j in range(n)],
                durations=[float(rng.random() * 10) for _ in range(n)],
            )
            path = tmp_path / f"r{trial}.labels"
            save_label_corpus(corpus, path)
            assert load_label_corpus(path) == corpus


class TestSortByLength:
    def test_ascending(self):
        corpus = make_corpus([[0] * 5, [0] * 2, [0] * 9], alphabet_size=2)
        assert [len(s) for s in sort_by_length(corpus)] == [2, 5, 9]

    def test_tie_break_by_id(self):
        corpus = make_corpus([[0], [1]], alphabet_size=2, ids=["b", "a"])
        assert sort_by_length(corpus).ids == ("a", "b")

    def test_idempotent(self):
        corpus = make_corpus([[0, 1], [0], [1, 1, 1]], alphabet_size=2)
        once = sort_by_length(corpus)
        assert sort_by_length(once) == once

    def test_permutation(self):
        rng = np.random.default_rng(3)
        corpus = make_corpus(
            [rng.integers(0, 4, size=rng.integers(0, 8)).tolist() for _ in range(25)],
            alphabet_size=4,
        )
        assert sorted(sort_by_length(corpus).ids) == sorted(corpus.ids)


class TestValidation:
    def test_label_out_of_alphabet(self):
        with pytest.raises(ValueError, match="outside"):
            make_corpus([[0, 5]], alphabet_size=3)

    def test_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_corpus([[0], [1]], alphabet_size=2, ids=["x", "x"])

    def test_zero_alphabet_size(self):
        with pytest.raises(ValueError, match="alphabet_size must be >= 1"):
            make_corpus([], alphabet_size=0)

    def test_negative_duration(self):
        with pytest.raises(ValueError, match="duration"):
            LabelSequence(id="a", duration_s=-1.0, labels=np.array([0], dtype=np.int32))

    def test_total_frames(self, tiny_corpus):
        assert tiny_corpus.total_frames == 5

    def test_labels_read_only(self, tiny_corpus):
        with pytest.raises(ValueError):
            tiny_corpus.sequences[0].labels[0] = 1


class TestManifest:
    def test_load(self, tmp_path):
        path = tmp_path / "m.tsv"
        write(path, "a\t/x/a.wav\nb\t/x/b.wav\n")
        manifest = load_audio_manifest(path)
        assert len(manifest) == 2
        assert manifest.entries[0] == ManifestEntry(id="a", audio_path="/x/a.wav")

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "m.tsv"
        write(path, "a\t/x/a.wav\na\t/x/b.wav\n")
        with pytest.raises(CorpusFormatError, match="duplicate"):
            load_audio_manifest(path)

    def test_malformed(self, tmp_path):
        path = tmp_path / "m.tsv"
        write(path, "only-one-field\n")
        with pytest.raises(CorpusFormatError, match=":1:"):
            load_audio_manifest(path)

    def test_crlf_lines_load(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_bytes(b"a\t/x/a.wav\r\n\r\nb\t/x/b.wav\r\n")
        manifest = load_audio_manifest(path)
        assert manifest.entries == (
            ManifestEntry(id="a", audio_path="/x/a.wav"),
            ManifestEntry(id="b", audio_path="/x/b.wav"),
        )

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError, match="empty audio path"):
            AudioManifest(entries=(ManifestEntry(id="a", audio_path=""),))

    @pytest.mark.parametrize("bad_id", ["b\tx", "b\nx", "b\rx"])
    def test_id_with_tab_or_newline_rejected_like_a_label_id(self, bad_id):
        # The manifest fails when it is built, before any audio is read,
        # with the message a label sequence gives for the same id.
        with pytest.raises(ValueError) as from_sequence:
            LabelSequence(id=bad_id, duration_s=0.0, labels=np.array([], dtype=np.int32))
        with pytest.raises(ValueError) as from_manifest:
            AudioManifest((ManifestEntry("a0", "a0.wav"), ManifestEntry(bad_id, "b.wav")))
        assert str(from_manifest.value) == str(from_sequence.value) == f"utterance id {bad_id!r} contains tab/newline"


class TestNonFiniteDurations:
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN", "infinity"])
    def test_load_rejects_with_path_and_line(self, tmp_path, text):
        path = tmp_path / "c.labels"
        write(path, f"#K=4\na\t1.0\t0 1\nb\t{text}\t2\n")
        with pytest.raises(CorpusFormatError, match=f"c.labels:3: duration '{text}' is not finite"):
            load_label_corpus(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_label_sequence_rejects(self, value):
        with pytest.raises(ValueError, match="finite"):
            LabelSequence(id="a", duration_s=value, labels=np.array([0], dtype=np.int32))


class TestLabelGrammar:
    """Labels are [0-9]+ tokens separated by single ASCII spaces, lines end in LF."""

    @pytest.mark.parametrize(
        "field",
        [
            "+1",  # sign
            "0 -0",  # sign on zero
            "1_0",  # digit separator
            "١",  # Arabic-Indic digit one
            "0 1\r",  # CR before the LF
            "\r",  # CR as the whole field
            " 1",  # leading space
            "1 ",  # trailing space
            "1  2",  # double space
            "1 2",  # no-break space
            "0x1",
        ],
    )
    def test_rejected_with_path_and_line(self, tmp_path, field):
        path = tmp_path / "c.labels"
        write(path, f"#K=4\na\t1.0\t0 1\nb\t1.0\t{field}\nc\t1.0\t2\n")
        with pytest.raises(CorpusFormatError, match="c.labels:3: labels must be space-separated integers"):
            load_label_corpus(path)

    def test_leading_zeros_accepted(self, tmp_path):
        path = tmp_path / "c.labels"
        write(path, "#K=4\na\t1.0\t003 0\n")
        assert load_label_corpus(path).sequences[0].labels.tolist() == [3, 0]

    def test_no_final_newline(self, tmp_path):
        path = tmp_path / "c.labels"
        write(path, "#K=4\na\t1.0\t0 1\nb\t2.0\t3")
        corpus = load_label_corpus(path)
        assert corpus.ids == ("a", "b")
        assert corpus.sequences[1].labels.tolist() == [3]

    def test_blank_line_rejected(self, tmp_path):
        path = tmp_path / "c.labels"
        write(path, "#K=4\na\t1.0\t0 1\n\n")
        with pytest.raises(CorpusFormatError, match="c.labels:3: expected 3 tab-separated fields"):
            load_label_corpus(path)

    def test_negative_duration_names_line(self, tmp_path):
        path = tmp_path / "c.labels"
        write(path, "#K=4\na\t1.0\t0\nb\t-0.5\t1\n")
        with pytest.raises(CorpusFormatError, match="c.labels:3: utterance 'b': duration_s must be"):
            load_label_corpus(path)

    def test_invalid_utf8_in_comment_names_line(self, tmp_path):
        path = tmp_path / "c.labels"
        path.write_bytes(b"#K=4\n#cfg=\xff\na\t1.0\t0\n")
        with pytest.raises(CorpusFormatError, match="c.labels:2: not valid UTF-8"):
            load_label_corpus(path)

    def test_invalid_utf8_names_line(self, tmp_path):
        path = tmp_path / "c.labels"
        path.write_bytes(b"#K=4\na\t1.0\t0\nb\xff\t1.0\t1\n")
        with pytest.raises(CorpusFormatError, match="c.labels:3: not valid UTF-8"):
            load_label_corpus(path)


def _big_label_file(path, n_lines, bad_line=None, bad_record=None, final_newline=True):
    """A label file of ``n_lines`` records over K=50, several read chunks long.

    Record ``bad_line`` (a file line number) is replaced by ``bad_record``.
    """
    lines = ["#K=50"]
    for lineno in range(2, n_lines + 2):
        labels = " ".join(str((lineno * 7 + j) % 50) for j in range(40))
        lines.append(f"utt{lineno:06d}\t1.5\t{labels}")
    if bad_line is not None:
        lines[bad_line - 1] = bad_record
    text = "\n".join(lines) + ("\n" if final_newline else "")
    write(path, text)
    return text


class TestChunkBoundaryErrors:
    """Faults far past the first read chunk are reported at their exact line."""

    N_LINES = 12_000  # about 1.4 MB, several chunks

    @pytest.mark.parametrize(
        "bad_record, message",
        [
            ("utt-bad\t1.0\t1 2x 3", "labels must be space-separated integers"),
            ("utt-bad\t1.0\t1 50 3", "utterance 'utt-bad' has label 50 outside \\[0, 50\\)"),
            ("utt000002\t1.0\t1 2 3", "duplicate utterance id 'utt000002'"),
            ("utt-bad\t1.0\t1 4294967296 3", "utterance 'utt-bad' has a label outside the int32 range"),
            ("utt-bad\tfast\t1", "bad duration 'fast'"),
        ],
    )
    def test_exact_line(self, tmp_path, bad_record, message):
        path = tmp_path / "big.labels"
        text = _big_label_file(path, self.N_LINES, bad_line=9_001, bad_record=bad_record)
        assert len("\n".join(text.split("\n")[:9_000])) > 4 * corpus_module._CHUNK_BYTES
        with pytest.raises(CorpusFormatError, match=f"big.labels:9001: {message}"):
            load_label_corpus(path)

    @pytest.mark.parametrize("bad_record", ["utt-bad\t1.0\t1 2 +3", "utt-bad\t1.0\t7 99"])
    def test_last_line_without_final_newline(self, tmp_path, bad_record):
        path = tmp_path / "big.labels"
        last = self.N_LINES + 1
        _big_label_file(path, self.N_LINES, bad_line=last, bad_record=bad_record, final_newline=False)
        with pytest.raises(CorpusFormatError, match=f"big.labels:{last}: "):
            load_label_corpus(path)

    def test_good_file_loads_whole(self, tmp_path):
        path = tmp_path / "big.labels"
        _big_label_file(path, self.N_LINES, final_newline=False)
        corpus = load_label_corpus(path)
        assert len(corpus) == self.N_LINES
        assert corpus.total_frames == 40 * self.N_LINES
        assert corpus.sequences[-1].labels.tolist() == [
            ((self.N_LINES + 1) * 7 + j) % 50 for j in range(40)
        ]

    def test_select_exits_1_naming_the_line(self, tmp_path, capsys):
        from scdselect.cli import main

        path = tmp_path / "big.labels"
        _big_label_file(path, self.N_LINES, bad_line=9_001, bad_record="utt-bad\t1.0\t1 -2 3")
        query = tmp_path / "q.labels"
        write(query, "#K=50\nq\t1.0\t1 2 3\n")
        code = main(["select", str(path), str(query), "--budget-count", "1",
                     "--output", str(tmp_path / "r.tsv")])
        assert code == 1
        assert "big.labels:9001: labels must be space-separated integers" in capsys.readouterr().err
        assert not (tmp_path / "r.tsv").exists()


def _recorded_parses(delay_when=None):
    """The lines of each ``_parse_records`` call, in call order, and the patch that records them.

    Calls may come from the loader's worker threads. A call whose lines hold
    ``delay_when`` sleeps 0.2 s first, so the chunks behind it finish before it.
    """
    calls = []
    parse = corpus_module._parse_records

    def recording(lines, *args):
        calls.append((list(lines), threading.current_thread()))
        if delay_when is not None and delay_when in lines:
            time.sleep(0.2)
        return parse(lines, *args)

    return calls, mock.patch.object(corpus_module, "_parse_records", recording)


class TestFaultLocation:
    """A fault is located inside the chunk that holds it, not by reading the file again."""

    def test_line_by_line_pass_checks_only_the_failing_chunk(self, tmp_path):
        path = tmp_path / "big.labels"
        bad_record = "utt-bad\t1.0\t1 50 3"
        _big_label_file(path, 12_000, bad_line=9_001, bad_record=bad_record)
        calls, recording = _recorded_parses()
        with recording, pytest.raises(CorpusFormatError, match="big.labels:9001: utterance 'utt-bad'"):
            load_label_corpus(path)
        line_calls = [lines for lines, _ in calls if len(lines) == 1]
        chunks = [lines for lines, _ in calls if len(lines) > 1]
        assert len(chunks) > 4
        # Chunks after the failing one may be parsed too, so the failing
        # chunk is the one that holds the bad record. The pass starts at its
        # first line and stops at the bad line, so it sees fewer lines than
        # that chunk holds.
        failing = next(lines for lines in chunks if bad_record.encode() in lines)
        assert line_calls[0] == failing[:1]
        assert line_calls[-1] == [bad_record.encode()]
        assert len(line_calls) <= len(failing)
        assert len(calls) == len(chunks) + len(line_calls)

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_chunks_parsed_past_the_failing_one_are_bounded(self, tmp_path, workers):
        # The failing chunk parses slowly, so the other workers run ahead as
        # far as the loader lets them: at most 2 x workers chunks are in
        # flight, the failing one among them.
        path = tmp_path / "big.labels"
        bad_record = "utt-bad\t1.0\t1 50 3"
        text = _big_label_file(path, 3_000, bad_line=201, bad_record=bad_record)
        file_line = {line: index for index, line in enumerate(text.encode().split(b"\n"))}
        calls, recording = _recorded_parses(delay_when=bad_record.encode())
        with (
            recording,
            mock.patch.object(corpus_module, "_CHUNK_BYTES", 1024),
            mock.patch.object(corpus_module, "_load_workers", return_value=workers),
            pytest.raises(CorpusFormatError, match="big.labels:201: utterance 'utt-bad'"),
        ):
            load_label_corpus(path)
        chunks = [lines for lines, _ in calls if len(lines) > 1]
        failing = next(lines for lines in chunks if bad_record.encode() in lines)
        after = [lines for lines in chunks if file_line[lines[0]] > file_line[failing[0]]]
        assert 1 <= len(after) <= 2 * workers
        # The file has many more chunks than that after the failing one.
        assert len(text) > 20 * 1024 + text.index(bad_record)


class TestLoaderThreads:
    """Label files parse on a bounded pool of threads that ends with the load."""

    def test_worker_count_follows_usable_cpus(self):
        for cpus, workers in ((1, 1), (2, 2), (3, 3), (4, 4), (64, 4)):
            with mock.patch.object(corpus_module.os, "sched_getaffinity", return_value=set(range(cpus))):
                assert corpus_module._load_workers() == workers

    def test_one_worker_parses_on_the_calling_thread(self, tmp_path):
        path = tmp_path / "big.labels"
        _big_label_file(path, 500)
        calls, recording = _recorded_parses()
        with (
            recording,
            mock.patch.object(corpus_module, "_CHUNK_BYTES", 1024),
            mock.patch.object(corpus_module, "_load_workers", return_value=1),
        ):
            load_label_corpus(path)
        assert len(calls) > 10
        assert {thread for _, thread in calls} == {threading.current_thread()}

    @pytest.mark.parametrize("bad_line", [None, 2, 300, 501])
    def test_no_worker_thread_outlives_a_load(self, tmp_path, bad_line):
        path = tmp_path / "big.labels"
        _big_label_file(path, 500, bad_line=bad_line, bad_record="utt-bad\t1.0\t1 50 3")
        before = set(threading.enumerate())
        calls, recording = _recorded_parses()
        with (
            recording,
            mock.patch.object(corpus_module, "_CHUNK_BYTES", 1024),
            mock.patch.object(corpus_module, "_load_workers", return_value=3),
        ):
            if bad_line is None:
                assert len(load_label_corpus(path)) == 500
            else:
                # The error is kept, as a caller reporting it would: its
                # traceback holds the loader's frame.
                with pytest.raises(CorpusFormatError, match=f"big.labels:{bad_line}: ") as raised:
                    load_label_corpus(path)
        workers = {thread for _, thread in calls} - {threading.current_thread()}
        assert workers
        assert not any(thread.is_alive() for thread in workers)
        assert set(threading.enumerate()) <= before
        if bad_line is not None:
            assert "utterance 'utt-bad' has label 50" in str(raised.value)

    def test_more_workers_than_cpus_with_fast_thread_switches(self, tmp_path):
        # Six workers switch threads every microsecond; the columns and the
        # first fault are those of the serial loop.
        path = tmp_path / "big.labels"
        text = _big_label_file(path, 2_000)
        bad = tmp_path / "bad.labels"
        lines = text.split("\n")
        lines[1_500] = "utt000100\t1.0\t1"  # repeats the id of line 100
        lines[1_700] = "utt-bad\t1.0\t1 50 3"
        write(bad, "\n".join(lines))
        with mock.patch.object(corpus_module, "_CHUNK_BYTES", 512):
            serial = load_label_corpus(path)
            switch = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                with mock.patch.object(corpus_module, "_load_workers", return_value=6):
                    for _ in range(3):
                        loaded = load_label_corpus(path)
                        assert loaded == serial
                        assert np.array_equal(loaded.starts, serial.starts)
                        with pytest.raises(CorpusFormatError, match="bad.labels:1501: duplicate utterance id"):
                            load_label_corpus(bad)
            finally:
                sys.setswitchinterval(switch)

    def test_earlier_of_two_failing_chunks_is_reported(self, tmp_path):
        # Lines 101 and 113 fail, in different chunks of one window. The
        # chunk holding line 101 parses slowly, so the later failing chunk
        # is done first; the earlier fault is reported.
        path = tmp_path / "big.labels"
        bad_record, late_record = "utt-bad\t1.0\t1 50 3", "utt-late\tfast\t1"
        lines = _big_label_file(path, 500, bad_line=101, bad_record=bad_record).split("\n")
        lines[112] = late_record
        write(path, "\n".join(lines))
        calls, recording = _recorded_parses(delay_when=bad_record.encode())
        with (
            recording,
            mock.patch.object(corpus_module, "_CHUNK_BYTES", 1024),
            mock.patch.object(corpus_module, "_load_workers", return_value=2),
            pytest.raises(CorpusFormatError, match="big.labels:101: utterance 'utt-bad' has label 50"),
        ):
            load_label_corpus(path)
        chunks = [lines for lines, _ in calls if len(lines) > 1]
        late = next(lines for lines in chunks if late_record.encode() in lines)
        assert bad_record.encode() not in late


class TestColumns:
    def test_sequences_are_views_of_the_label_array(self, tmp_path, tiny_corpus):
        path = tmp_path / "c.labels"
        save_label_corpus(tiny_corpus, path)
        corpus = load_label_corpus(path)
        assert corpus.labels.tolist() == [0, 0, 1, 1, 2]
        assert corpus.starts.tolist() == [0, 3, 5]
        assert corpus.lengths.tolist() == [3, 2, 0]
        assert corpus.durations.tolist() == [1.0, 1.0, 1.0]
        for seq in corpus.sequences[:2]:
            assert np.shares_memory(seq.labels, corpus.labels)

    def test_sort_shares_labels_and_permutes_columns(self, tiny_corpus):
        ordered = sort_by_length(tiny_corpus)
        assert ordered.labels is tiny_corpus.labels
        assert ordered.ids == ("u2", "u1", "u0")
        assert ordered.starts.tolist() == [5, 3, 0]
        assert [seq.labels.tolist() for seq in ordered] == [[], [1, 2], [0, 0, 1]]

    def test_columns_read_only(self, tiny_corpus):
        for column in (tiny_corpus.labels, tiny_corpus.starts, tiny_corpus.lengths, tiny_corpus.durations):
            with pytest.raises(ValueError):
                column[0] = 1

    def test_constructor_names_first_bad_utterance(self):
        with pytest.raises(ValueError, match="utterance 'u2': label 3 outside \\[0, 3\\)"):
            make_corpus([[0], [], [1, 3, 4]], alphabet_size=3)


def views_corpus(flat, bounds, alphabet_size=500):
    """Corpus of ``flat[start:stop]`` views, one per ``(start, stop)``, ids u0, u1, ..."""
    return LabelCorpus(
        alphabet_size,
        tuple(LabelSequence(f"u{i}", 0.0, flat[start:stop]) for i, (start, stop) in enumerate(bounds)),
    )


# Where a sequence's labels come from: a view of the int32 array, a view of
# an int64 copy of it, a view of a strided int32 copy, or an own copy.
SOURCES = ("flat", "int64", "strided", "copy")


class TestSharedLabels:
    def test_back_to_back_views_are_copied(self):
        rng = np.random.default_rng(3)
        lengths = rng.integers(4, 10, size=200)
        flat = rng.integers(0, 500, size=int(lengths.sum()), dtype=np.int32)
        ends = np.cumsum(lengths)
        bounds = list(zip((ends - lengths).tolist(), ends.tolist()))
        bounds[10:10] = [(0, 0)]  # an empty view elsewhere in the array
        corpus = views_corpus(flat, bounds)
        assert not np.shares_memory(corpus.labels, flat)
        assert not corpus.labels.flags.writeable
        assert np.array_equal(corpus.labels, flat)
        assert corpus.lengths.tolist() == [stop - start for start, stop in bounds]
        assert [seq.labels.tolist() for seq in corpus] == [flat[a:b].tolist() for a, b in bounds]
        ordered = sort_by_length(corpus)
        assert ordered.labels is corpus.labels

    @pytest.mark.parametrize(
        "bounds",
        [
            [(0, 3), (4, 6)],  # gap
            [(3, 6), (0, 3)],  # reordered
            [(0, 4), (2, 6)],  # overlapping
        ],
    )
    def test_other_views_are_copied(self, bounds):
        flat = np.arange(8, dtype=np.int32)
        corpus = views_corpus(flat, bounds)
        assert not np.shares_memory(corpus.labels, flat)
        assert corpus.labels.tolist() == [v for a, b in bounds for v in range(a, b)]

    def test_mixed_dtypes_are_copied(self):
        flat = np.arange(6, dtype=np.int32)
        wide = flat.astype(np.int64)
        corpus = LabelCorpus(
            10, (LabelSequence("a", 0.0, flat[0:3]), LabelSequence("b", 0.0, wide[3:6]))
        )
        assert not np.shares_memory(corpus.labels, flat)
        assert corpus.labels.tolist() == list(range(6))

    def test_adjacent_arrays_are_copied(self):
        # Back to back in one buffer, but two arrays: a view over both would
        # keep only the first one alive.
        buffer = bytearray(np.arange(6, dtype=np.int32).tobytes())
        first = np.frombuffer(buffer, dtype=np.int32, count=3)
        second = np.frombuffer(buffer, dtype=np.int32, count=3, offset=12)
        corpus = LabelCorpus(10, (LabelSequence("a", 0.0, first), LabelSequence("b", 0.0, second)))
        assert not np.shares_memory(corpus.labels, first)
        assert corpus.labels.tolist() == list(range(6))

    def test_out_of_range_label_message_unchanged(self):
        flat = np.array([0, 1, 2, 3, 7, 1], dtype=np.int32)
        bounds = [(0, 2), (2, 4), (4, 6)]
        message = "utterance 'u2': label 7 outside \\[0, 5\\)"
        with pytest.raises(ValueError, match=message):
            views_corpus(flat, bounds, alphabet_size=5)
        with pytest.raises(ValueError, match=message):
            make_corpus([flat[a:b].copy() for a, b in bounds], alphabet_size=5)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 4), st.sampled_from(SOURCES)), max_size=8
        )
    )
    def test_labels_are_copied_whatever_the_views(self, segments):
        flat = np.arange(20, dtype=np.int32)
        wide = flat.astype(np.int64)
        strided = np.zeros(40, dtype=np.int32)
        strided[::2] = flat
        arrays = {"flat": flat, "int64": wide, "strided": strided[::2]}
        sequences, expected = [], []
        for i, (start, length, source) in enumerate(segments):
            stop = start + length
            labels = flat[start:stop].copy() if source == "copy" else arrays[source][start:stop]
            sequences.append(LabelSequence(f"u{i}", 0.0, labels))
            expected.extend(range(start, stop))
        corpus = LabelCorpus(20, tuple(sequences))
        assert corpus.labels.tolist() == expected
        assert corpus.labels.dtype == np.int32
        assert not np.shares_memory(corpus.labels, flat)
        assert [seq.labels.tolist() for seq in corpus] == [seq.labels.tolist() for seq in sequences]


class TestNarrowLabels:
    """The loader stores labels in the narrowest unsigned type that holds every label below K."""

    @pytest.mark.parametrize(
        "k,dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16), (65536, np.uint16), (65537, None)]
    )
    def test_dtype_follows_alphabet_size(self, tmp_path, k, dtype):
        path = tmp_path / "c.labels"
        write(path, f"#K={k}\na\t1.5\t{k - 1} 0 {k - 1}\nb\t0.0\t\nc\t0.5\t0\n")
        corpus = load_label_corpus(path)
        if dtype is None:
            assert corpus.labels.dtype.kind in "iu" and corpus.labels.dtype.itemsize == 4
        else:
            assert corpus.labels.dtype == dtype
        assert corpus.labels.tolist() == [k - 1, 0, k - 1, 0]
        assert [seq.labels.dtype for seq in corpus] == [corpus.labels.dtype] * 3
        again = tmp_path / "again.labels"
        save_label_corpus(corpus, again)
        assert again.read_bytes() == path.read_bytes()
        assert load_label_corpus(again) == corpus

    def test_loaded_and_int32_sequences_are_equal_and_hash_alike(self, tmp_path):
        path = tmp_path / "c.labels"
        write(path, "#K=500\na\t1.5\t499 0 7\nb\t0.25\t\n")
        loaded = load_label_corpus(path)
        built = make_corpus([[499, 0, 7], []], 500, ids=["a", "b"], durations=[1.5, 0.25])
        assert loaded.labels.dtype == np.uint16 and built.labels.dtype == np.int32
        for narrow, wide in zip(loaded, built):
            assert narrow == wide
            assert hash(narrow) == hash(wide)
        assert len({*loaded.sequences, *built.sequences}) == 2
        assert loaded == built and built == loaded
        assert sort_by_length(loaded) == sort_by_length(built)
        assert loaded != make_corpus([[499, 0, 8], []], 500, ids=["a", "b"], durations=[1.5, 0.25])
