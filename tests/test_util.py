import os

import pytest

from hyponli.util import atomic_open, atomic_write_text, config_block, csv_text, markdown_table


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

    def test_config_block_indents_each_line(self):
        assert config_block(["seed=0", "top_k=5"]) == [
            "## Run configuration", "", "    seed=0", "    top_k=5"]
