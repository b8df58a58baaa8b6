"""The one file writer, and the one rule for the ``#`` header lines of every file the package writes."""

import re
from pathlib import Path

import pytest

from scdselect import corpus as corpus_module
from scdselect.ngram import count_ngrams, save_stats_dump
from scdselect.selection import SelectionConfig, format_report, save_report, select_random

MESSAGE = "^header comments must not contain tabs or newlines$"
BAD_LINES = pytest.mark.parametrize("line", ["bad\nline", "tab\there", "cr\rhere"], ids=["LF", "tab", "CR"])

# Each writer given one bad header line after a good one (the label writer's
# rule is tested in test_corpus).
WRITERS = {
    "dump": lambda path, line, corpus: save_stats_dump(count_ngrams(corpus, 1), path, comments=["ok", line]),
    "report": lambda path, line, corpus: save_report(_result(corpus), path, extra_header={"ok": "1", "k": line}),
    "text": lambda path, line, corpus: corpus_module.write_text_file(path, ["ok", line], ["body\n"]),
}


def _result(corpus):
    return select_random(corpus, SelectionConfig(budget_c=2, seed=1))


@pytest.mark.parametrize("writer", sorted(WRITERS))
@BAD_LINES
def test_bad_header_line_is_refused_before_the_file_is_opened(tmp_path, tiny_corpus, writer, line):
    path = tmp_path / "out.txt"
    with pytest.raises(ValueError, match=MESSAGE):
        WRITERS[writer](path, line, tiny_corpus)
    assert not path.exists()


@BAD_LINES
def test_format_report_refuses_a_bad_extra_header(tiny_corpus, line):
    with pytest.raises(ValueError, match=MESSAGE):
        format_report(_result(tiny_corpus), {"k": line})


def test_refused_dump_and_report_leave_an_existing_file_as_it_was(tmp_path, tiny_corpus):
    path = tmp_path / "out.txt"
    path.write_bytes(b"before\n")
    with pytest.raises(ValueError, match=MESSAGE):
        save_stats_dump(count_ngrams(tiny_corpus, 1), path, comments=["bad\nline", "tab\there"])
    with pytest.raises(ValueError, match=MESSAGE):
        save_report(_result(tiny_corpus), path, extra_header={"k": "v\nw"})
    assert path.read_bytes() == b"before\n"


def test_header_lines_then_body_chunks_as_given_in_utf8_with_lf(tmp_path):
    path = tmp_path / "out.txt"
    corpus_module.write_text_file(path, ["K=3", 'cfg={"é": 1}'], iter(["a\tb\n", "", "ü", "\n"]))
    assert path.read_bytes() == '#K=3\n#cfg={"é": 1}\na\tb\nü\n'.encode("utf-8")
    corpus_module.write_text_file(path, [], [])
    assert path.read_bytes() == b""


def test_report_text_is_the_saved_file(tmp_path, tiny_corpus):
    result = _result(tiny_corpus)
    save_report(result, tmp_path / "r.tsv", {"tool": "x"})
    assert (tmp_path / "r.tsv").read_bytes() == format_report(result, {"tool": "x"}).encode("utf-8")


def test_src_opens_a_file_for_writing_in_one_place():
    src = Path(corpus_module.__file__).parent
    sites = [
        (path.name, match.group())
        for path in sorted(src.glob("*.py"))
        for match in re.finditer(r'open\([^)]*"[wax]|\.write_(?:text|bytes)\(', path.read_text(encoding="utf-8"))
    ]
    assert sites == [("corpus.py", 'open("w')]
