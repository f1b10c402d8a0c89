import codecs
import inspect
import json
import os
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyponli
from hyponli import cli, corpus, model, synth, text
from hyponli.util import (
    IngestError, atomic_open, atomic_write_text, config_block, csv_text, markdown_table,
    numbered_lines, parse_json,
)

from helpers import columns


def mode(path):
    return os.stat(path).st_mode & 0o777


class TestAtomicOpen:
    def test_permissions_follow_umask(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("x", encoding="utf-8")
        atomic_write_text(tmp_path / "atomic.txt", "x")
        assert mode(tmp_path / "atomic.txt") == mode(plain)

    def test_failed_write_leaves_old_file_and_no_temp(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with atomic_open(target) as fh:
                fh.write(b"partial")
                raise RuntimeError("interrupted")
        assert target.read_bytes() == b"old"
        assert sorted(os.listdir(tmp_path)) == ["out.bin"]

    def test_creates_missing_directory(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.txt"
        atomic_write_text(target, "done\n")
        assert target.read_text(encoding="utf-8") == "done\n"


class TestTables:
    def test_csv_text_quotes_fields_and_ends_lines_with_newline(self):
        rows = ([key, n] for key, n in (('x,"y', 1), ("", 2.5)))
        assert csv_text(["a", "b"], rows) == 'a,b\n"x,""y",1\n,2.5\n'

    def test_markdown_table_layout(self):
        assert markdown_table(["Word", "Freq"], [["a", 3], ["b", 1]]) == [
            "| Word | Freq |", "| --- | --- |", "| a | 3 |", "| b | 1 |"]
        assert markdown_table(["A", "B", "C"], []) == ["| A | B | C |", "| --- | --- | --- |"]

    def test_markdown_table_escapes_pipes_and_line_breaks(self):
        assert markdown_table(["Word", "Freq"], [["|", 3], ["a\r\nb\nc\rd", 1], ["x\\|", 2]]) == [
            "| Word | Freq |", "| --- | --- |", "| \\| | 3 |", "| a<br>b<br>c<br>d | 1 |",
            "| x\\\\\\| | 2 |"]

    @given(rows=st.lists(st.lists(st.text(alphabet="a |\\\r\n", max_size=6), min_size=3,
                                  max_size=3), max_size=4))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_every_markdown_row_keeps_the_header_columns(self, rows):
        """Each row is one line, split into columns as GitHub-flavoured
        markdown splits it: at each | that no backslash escapes."""
        lines = markdown_table(["A", "B", "C"], rows)
        assert len(lines) == 2 + len(rows)
        for line in lines:
            assert "\n" not in line and "\r" not in line
            assert re.sub(r"\\.", "", line).count("|") - 1 == 3, line

    def test_config_block_indents_each_line(self):
        assert config_block(["seed=0", "top_k=5"]) == [
            "## Run configuration", "", "    seed=0", "    top_k=5"]


def test_parse_json_errors_name_where():
    assert parse_json(b'{"a": [1]}', "x") == parse_json('{"a": [1]}', "x") == {"a": [1]}
    for text, reason in (("{broken", "Expecting property name enclosed in double quotes"),
                         (b"\xff", "'utf-8' codec can't decode byte 0xff in position 0"),
                         ("[" * 100_000, "maximum recursion depth exceeded")):
        with pytest.raises(IngestError, match=rf"^f: line 3: invalid JSON \({reason}"):
            parse_json(text, "f: line 3")


def test_parse_json_refuses_an_escaped_lone_surrogate():
    """A lone surrogate has no UTF-8 form, so a \\u escape of one is refused on
    a corpus line, a CRLF line, in a key and in bytes; an escaped pair is one
    character, and an escaped backslash escapes nothing."""
    for escape in ("\\ud800", "\\uDFFF", "\\ude00\\ud83d", "\\ud83d x"):
        code = escape[2:6].lower()
        for text in (f'{{"h": "a{escape}"}}\n', f'{{"h": "a{escape}"}}\r\n',
                     f'{{"a{escape}": 1}}', f'["a{escape}"]'.encode()):
            with pytest.raises(IngestError, match=rf"^f: line 3: \\u{code} escapes a lone "
                                                  rf"surrogate, which is not a character$"):
                parse_json(text, "f: line 3")
    assert parse_json('{"h": "a\\ud83d\\ude00"}\n') == {"h": "a\U0001f600"}
    assert parse_json(b'["\\\\ud800"]') == parse_json('["\\\\ud800"]\n') == ["\\ud800"]
    assert parse_json('["\\u00e9"]\n') == ["\u00e9"]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=5)
edges = st.sampled_from(["", " ", "\n", "\n\n", "\r\n", "\t", "\x0b", "\xa0", "\ufeff", "x",
                         "}", "]", ",", "1", '"', "\u2028"])


@given(head=edges, value=json_values, tail=st.lists(edges, max_size=2).map("".join),
       raw=st.booleans())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_parse_json_is_json_loads(head, value, tail, raw):
    """The scan without json.loads's wrapper gives json.loads's value, or
    its error, on any text: a value with text before or after it, and
    truncated or bare text."""
    text = head + (json.dumps(value)[:-1] if raw else json.dumps(value)) + tail
    try:
        expected = repr(json.loads(text))  # repr, as nan != nan
    except ValueError as exc:
        with pytest.raises(IngestError) as err:
            parse_json(text, "w")
        assert str(err.value) == f"w: invalid JSON ({exc.msg})"
    else:
        assert repr(parse_json(text, "w")) == expected


def test_numbered_lines_counts_from_one(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes("a\n\ncafé".encode("utf-8"))
    assert list(numbered_lines(path)) == [(1, "a\n"), (2, "\n"), (3, "café")]


def read_corpus(read, roles):
    return lambda path: (lambda data, skipped: (columns(data), skipped))(
        *read(path, roles, corpus.THREE_WAY))


# each text input: a file's content, and what reading the file gives
TEXT_INPUTS = {
    "jsonl": ('{"premise": "p", "hypothesis": "a b", "label": "neutral"}\n',
              read_corpus(corpus.read_jsonl, corpus.FIELD_MAP_PRESETS["native"])),
    "tsv": ("neutral\tp\ta b\nentailment\tq\tc\n",  # the label first
            read_corpus(corpus.read_tsv, corpus.RoleMap(premise=1, hypothesis=2, label=0))),
    "config": ("min_freq = 2\n", lambda path: cli._read_config(str(path), "stats")),
    "vectors": ("a 1.0 2.0\nb 3.0 4.0\n",
                lambda path: text.load_embeddings(path, text.Vocabulary(["a", "b"]), 2).tolist()),
    "spec": (json.dumps({"n_labels": 2, "label_prior": [0.5, 0.5], "vocab_size": 10,
                         "sentence_length": [2, 4], "seed": 0}), synth.read_spec),
}


@pytest.mark.parametrize("kind", TEXT_INPUTS)
def test_a_byte_order_mark_reads_as_no_content(tmp_path, kind):
    """A UTF-8 byte-order mark does not reach the first field, key or word:
    each text input with one reads exactly as without."""
    content, read = TEXT_INPUTS[kind]
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(content, encoding="utf-8")
    marked.write_bytes(codecs.BOM_UTF8 + content.encode("utf-8"))
    assert read(marked) == read(plain)


def test_text_inputs_are_opened_and_parsed_only_in_util():
    """Every text input goes through util.numbered_lines and util.parse_json:
    outside util.py no module parses JSON, and the one bare open() is
    load_checkpoint's binary read of the arrays after the header line."""
    bare_open, json_parse = re.compile(r"(?<![\w.])open\("), re.compile(r"\bjson\.loads?\(")
    found = {}
    for path in sorted(Path(hyponli.__file__).parent.glob("*.py")):
        if path.name != "util.py":
            source = path.read_text(encoding="utf-8")
            found[path.name] = (len(bare_open.findall(source)), len(json_parse.findall(source)))
    # (bare open() calls, json.load/loads calls) of each other module
    assert {name: n for name, n in found.items() if n != (0, 0)} == {"model.py": (1, 0)}
    assert 'open(path, "rb")' in inspect.getsource(model.load_checkpoint)


def test_options_use_only_the_public_argparse_api():
    """The option table builds the parsers and reads --config files without
    argparse internals: no module reads a parser's actions or names an
    argparse attribute that starts with an underscore."""
    found = {path.name: [name for name in ("._actions", "argparse._")
                         if name in path.read_text(encoding="utf-8")]
             for path in sorted(Path(hyponli.__file__).parent.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_argparse_only_splits_argv():
    """No option hands argparse a type, choices or requiredness: a flag's
    text reaches the option table as a --config line's does, and the table
    converts, checks and requires every value."""
    _, subcommands = cli.build_parser()
    handed = [(name, action.dest) for name, sub in subcommands.items() for action in sub._actions
              if (action.type, action.choices, action.required) != (None, None, False)]
    assert handed == []
