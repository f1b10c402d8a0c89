"""The committed mutation table: each row breaks one spot of src/hyponli and names the tests that
must fail once it is broken, so that a check shown to bite once can be shown again.

    python3 tests/mutants.py

applies each row, one at a time, to a temporary copy of src, tests and pyproject.toml (the copy
is whole because pyproject's pythonpath = ["src"] would otherwise import the checkout's src),
runs only that row's tests there and prints each named test that did not fail: a survivor. It
exits 1 on any survivor of a row not marked as a known survivor, and leaves nothing in the
checkout. tests/test_mutants.py checks in tier-1 that each row still applies: its
source text occurs exactly once in its file, each named test exists and its CHANGES.md entry is
there. A mutation that no test catches is a row with known_survivor=True and a FOUND line in
CHANGES.md, so that the first test that catches it shows up.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    source: str  # exact text, which must occur once in file
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, without parameters, that must each fail
    entry: str  # the opening words of the CHANGES.md entry the row comes from
    known_survivor: bool = False


MUTANTS = (
    Mutant("parse-json-accepts-a-lone-surrogate", "src/hyponli/util.py",
           '            json.dumps(value, ensure_ascii=False).encode("utf-8")\n',
           "            pass\n",
           ("tests/test_util.py::test_parse_json_refuses_an_escaped_lone_surrogate",
            "tests/test_cli.py::test_an_escaped_lone_surrogate_is_refused_at_its_line",
            "tests/test_cli.py::test_an_escaped_lone_surrogate_in_a_spec_is_one_line_naming_it",
            "tests/test_cli.py::test_an_escaped_lone_surrogate_in_a_checkpoint_header_is_one_line",
            "tests/test_cli.py::test_a_mutated_spec_is_read_or_one_line_naming_it"),
           "- Each result is held once."),
    Mutant("build-report-ungrouped-rows-in-slot-0", "src/hyponli/evaluate.py",
           "slot = np.full(n, keys.size)", "slot = np.full(n, 0)",
           ("tests/test_eval.py::TestReportTally::test_matches_row_tally",),
           "- Each result is held once."),
    Mutant("fit-never-updates-its-best-accuracy", "src/hyponli/train.py",
           "                    best_dev_acc = dev_acc\n", "                    pass\n",
           ("tests/test_train.py::TestBestParams::test_on_best_runs_at_each_improving_epoch_only",
            "tests/test_train.py::TestBestParams::test_best_dev_acc_is_history_max"),
           "- Each result is held once."),
    Mutant("finiteness-check-reads-only-the-min", "src/hyponli/model.py",
           "np.isfinite(arr.min()) and np.isfinite(arr.max())", "np.isfinite(arr.min())",
           ("tests/test_model.py::TestNonFiniteParameters::test_each_array_is_refused_by_name",
            "tests/test_model.py::TestNonFiniteParameters"
            "::test_load_checkpoint_names_the_path_and_the_array"),
           "- `ModelParameters` (src/hyponli/model.py) keeps nothing that only tests use"),
    Mutant("load-embeddings-drops-the-number-check", "src/hyponli/text.py",
           "\n                                       and _is_number(parts[-dimension - 1])", "",
           ("tests/test_text.py::TestLoadEmbeddings"
            "::test_words_holding_spaces_load_and_match_no_token",
            "tests/test_cli.py::TestTrainEvalCommand"
            "::test_words_holding_spaces_train_as_if_absent"),
           "- Each option fact is stated once, round two."),
    Mutant("on-best-gets-the-untrained-models-predictions", "src/hyponli/train.py",
           "                pred = predict(dev[0], tokens, params)\n"
           "                dev_acc = accuracy(pred, dev[1])\n",
           "                dev_acc = accuracy(predict(dev[0], tokens, params), dev[1])\n",
           ("tests/test_train.py::TestBestParams::test_on_best_runs_at_each_improving_epoch_only",
            "tests/test_train.py::TestBestParams::test_returned_params_achieve_history_max",
            "tests/test_cli.py::TestTrainEvalCommand::test_reports_agree_with_the_checkpoint"),
           "- Each dev prediction is made once."),
    Mutant("corpus-property-misses-a-lone-surrogate", "src/hyponli/util.py",
           '            json.dumps(value, ensure_ascii=False).encode("utf-8")\n',
           "            pass\n",
           ("tests/test_cli.py::test_a_mutated_corpus_is_read_or_one_line_naming_it",),
           "- MENDED: the derandomized property tests", known_survivor=True),
    Mutant("bag-adds-a-steps-block-reversed", "src/hyponli/model.py",
           "total[:n] += emb[ids[forward[start:start + n]]]",
           "total[:n] += emb[ids[forward[start:start + n]]][::-1]",
           ("tests/test_model.py::TestBatchedMatchesReference"
            "::test_bag_encoding_equals_per_sentence_mean",
            "tests/test_model.py::TestBatchedMatchesReference::test_ragged_batches",
            "tests/test_model.py::TestLossAndGradients::test_gradients_match_finite_differences"),
           "- One packed order and one gate-factor vector."),
    Mutant("bag-sums-each-sentence-last-token-first", "src/hyponli/model.py",
           "longest_first, forward, _, batch_sizes = _packed_rows(",
           "longest_first, _, forward, batch_sizes = _packed_rows(",
           ("tests/test_model.py::TestBatchedMatchesReference"
            "::test_bag_encoding_equals_per_sentence_mean",),
           "- One packed order and one gate-factor vector."),
    Mutant("halve-ifo-halves-the-g-rows-too", "src/hyponli/kernels.py",
           "    return wh * scale[:, None]\n", "    return wh * 0.5\n",
           ("tests/test_kernels.py::test_matches_per_step_reference",
            "tests/test_model.py::TestBatchedMatchesReference::test_ragged_batches"),
           "- One packed order and one gate-factor vector."),
)


def caught(output: str, test: str) -> bool:
    """Whether pytest's -rfE summary in output fails or errors test or one of its parameters."""
    return any(node == test or node.startswith(test + "[")
               for node in re.findall(r"^(?:FAILED|ERROR) (\S+)", output, re.MULTILINE))


def run(mutant: Mutant, copy: Path) -> list[str]:
    """The named tests that do not fail with mutant applied to copy, which is restored after."""
    path = copy / mutant.file
    original = path.read_text(encoding="utf-8")
    if original.count(mutant.source) != 1:
        raise SystemExit(f"{mutant.name}: its source text is not exactly once in {mutant.file}")
    path.write_text(original.replace(mutant.source, mutant.replacement), encoding="utf-8")
    try:
        env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
        result = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
                                 "no:cacheprovider", *mutant.tests], cwd=copy, env=env,
                                capture_output=True, text=True)
    finally:
        path.write_text(original, encoding="utf-8")
    if result.returncode not in (0, 1):  # 0: all passed, 1: some failed; else pytest broke
        raise SystemExit(f"{mutant.name}: pytest exited {result.returncode}\n{result.stdout}"
                         f"{result.stderr}")
    return [test for test in mutant.tests if not caught(result.stdout, test)]


def main() -> int:
    failing = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy)
        for mutant in MUTANTS:
            survivors = run(mutant, copy)
            verdict = "caught" if not survivors else (
                "known survivor" if mutant.known_survivor else "SURVIVED")
            print(f"{mutant.name}: {verdict}")
            for test in survivors:
                print(f"  survivor: {test}")
            failing += bool(survivors) and not mutant.known_survivor
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
