"""Small shared helpers: the two refusals (IngestError for an input,
ConfigError for a setting), the one input reader, integer parsing,
atomic file writes, and the one table format every output uses.

numbered_lines reads every text input (a corpus, a word-vector file, a
--config file, a synth spec) and parse_json every JSON text (a corpus
line, a spec, a checkpoint header); both raise IngestError naming the
file. csv_text holds the CSV dialect of every .csv file (the csv module's
default quoting, each line ending in a bare newline); markdown_table the
pipe-table layout, and config_block the indented "## Run configuration"
section, of every .md file.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
from contextlib import contextmanager


class IngestError(ValueError):
    """A line or record of an input file that cannot be read."""


class ConfigError(ValueError):
    """A flag, --config line, role map, scheme, synth spec key or run parameter
    that cannot be used; options names the parameters at fault by their flags' dests."""

    def __init__(self, message: str, *options: str):
        super().__init__(message)
        self.options = options


def numbered_lines(path):
    """(line number, line) pairs of a UTF-8 text file, numbered from 1; a
    byte-order mark at its start is read as no content. A byte sequence
    that is not UTF-8 raises IngestError naming its line."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as exc:
            # text files decode in chunks, so a second pass finds the line;
            # surrogateescape turns each undecodable byte into U+DC80..U+DCFF
            with open(path, encoding="utf-8-sig", errors="surrogateescape") as again:
                lineno = next((n for n, line in enumerate(again, start=1)
                               if any("\udc80" <= ch <= "\udcff" for ch in line)), "?")
            raise IngestError(f"{path}: line {lineno}: not UTF-8 ({exc.reason})") from exc


# json.loads's own scanner: one JSON value from a position in a str
_scan_json = json.JSONDecoder().scan_once
# a \u escape in U+D800..U+DFFF, the one way to a surrogate in a text decoded strictly
_surrogate_escape = re.compile(r"\\u[dD][89a-fA-F]").search


def parse_json(text, where=None):
    """The value of one JSON text, given as a str or as UTF-8 bytes. Text
    that is not JSON, bytes that are not UTF-8, nesting too deep to parse
    and a \\u escape of a lone surrogate (which no UTF-8 text can hold)
    raise IngestError, prefixed by where when it is given.

    A str that is one value, then at most a newline (a corpus line), and
    that holds no surrogate escape is scanned without json.loads's
    wrapper; any other text, and every text the scan refuses, goes through
    json.loads, so the value or the error is always json.loads's. A
    surrogate escape is refused when the value holds it unpaired."""
    if type(text) is str:
        try:
            value, end = _scan_json(text, 0)
        except (StopIteration, ValueError, RecursionError):  # json.loads gives the reason
            end = None
        if end == len(text) or end == len(text) - 1 and text[end] == "\n":
            if "\\" not in text or not _surrogate_escape(text):  # a backslash is found fastest
                return value
    try:
        text = text.decode("utf-8") if isinstance(text, bytes) else text
        value = json.loads(text)
        if _surrogate_escape(text):  # the UTF-8 encoder refuses a lone surrogate
            json.dumps(value, ensure_ascii=False).encode("utf-8")
    except (ValueError, RecursionError) as exc:  # JSON and Unicode errors are ValueErrors
        message = (f"\\u{ord(exc.object[exc.start]):04x} escapes a lone surrogate, which is "
                   f"not a character" if isinstance(exc, UnicodeEncodeError)
                   else f"invalid JSON ({getattr(exc, 'msg', exc)})")
        raise IngestError(message if where is None else f"{where}: {message}") from exc
    return value


def as_integer(value) -> int:
    """An int, an integral float or an integer string as an int; anything
    else (4.7, True, "4.0", "x", nan, inf, [4]) raises ValueError."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            if isinstance(value, str) or int(value) == value:
                return int(value)
        except (ValueError, OverflowError):  # "x", nan, inf
            pass
    raise ValueError(f"{value!r} is not an integer")


def csv_text(header, rows) -> str:
    """The header and each row as CSV lines, fields quoted as needed."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def markdown_table(header, rows) -> list[str]:
    """Lines of a pipe table: the header, the | --- | rule, one per row. A
    cell writes | as \\| and a line break as <br>, so that each row is one
    line with the header's columns."""
    def cell(value):  # a backslash right before a | is doubled, so it cannot escape the \|
        return re.sub(r"\r\n?|\n", "<br>", re.sub(r"(\\*)\|", r"\1\1\\|", str(value)))

    return [f"| {' | '.join(map(cell, row))} |"
            for row in (header, ["---"] * len(header), *rows)]


def config_block(config_lines) -> list[str]:
    """Lines of the "## Run configuration" section, each setting indented
    as a code block."""
    return ["## Run configuration", "", *(f"    {line}" for line in config_lines)]


@contextmanager
def atomic_open(path):
    """Binary handle on a temp file in the target directory.

    The temp file replaces path when the block exits normally and is
    removed when it raises, so readers never see a partial file. It is
    created with mode 0o666 so the umask sets the permissions, as open()
    does.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.getpid()}-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write to a temp file in the target directory, then promote."""
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path, data: bytes) -> None:
    with atomic_open(path) as fh:
        fh.write(data)
