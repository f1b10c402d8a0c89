"""Hypothesis strategies for corpus files: valid JSONL records and TSV
rows with up to two fields dropped or replaced by the values ingest
treats differently, and now and then a blank or malformed line.
jsonl_lines and tsv_lines each draw the lines of one file."""

import json
import math

from hypothesis import strategies as st

from hyponli.corpus import THREE_WAY

# the values ingest treats differently: null, bools, containers, NaN, an
# integer past int64, empty and blank strings, labels in and out of the scheme
odd_values = st.sampled_from([None, True, False, [], ["a", "b"], ["a", 1], {}, {"k": 1},
                              math.nan, math.inf, 2 ** 63, 10 ** 20, 1e308, 2.5, 4.0, 0, 3,
                              6, "", " ", "x", "a b", "-", "3", " 4 ", "neutral",
                              "entailment", "contradiction"])
odd_cells = st.sampled_from(["", " ", "p", "a b", "neutral", "entailment", "-", "nan", "3",
                             "5", "7", "9223372036854775808", "true", "1.0", " 4", "x7"])
# the roles by position: the key of a JSONL record, the column of a TSV row
KEYS = ("premise", "hypothesis", "label", "group", "ordinal", "id")
TSV_COLUMNS = ",".join(f"{role}={column}" for column, role in enumerate(KEYS))


@st.composite
def mutated(draw, valid, odd, drop):
    """A valid record or row, keyed by role position, with up to two fields
    dropped or replaced."""
    record = draw(valid)
    for key in draw(st.lists(st.sampled_from(range(len(KEYS))), max_size=2)):
        if draw(st.booleans()):
            drop(record, key)
        else:
            record[key] = draw(odd)
    return record


@st.composite
def corpus_lines(draw, record_lines, garbage):
    """Mutated records, with a blank or malformed line among them now and then."""
    lines = draw(st.lists(record_lines, max_size=5))
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(garbage))
    return lines


def drop_key(record, key):
    record.pop(key, None)


def drop_columns(row, column):
    """A row loses the column and every one after it."""
    for later in range(column, len(KEYS)):
        row.pop(later, None)


valid_records = st.fixed_dictionaries(
    {0: st.just("p"), 1: st.sampled_from(["a b", "c"]),
     2: st.sampled_from([*THREE_WAY.names, "-"])},
    optional={3: st.sampled_from(["g", 7]), 4: st.integers(1, 5), 5: st.sampled_from(["x7", 8])})
jsonl_lines = corpus_lines(
    mutated(valid_records, odd_values, drop_key).map(
        lambda record: json.dumps({KEYS[k]: v for k, v in sorted(record.items())})),
    st.sampled_from(["", "   ", "{", "[1]", "null", '"text"', "NaN"]))
valid_rows = st.fixed_dictionaries(
    {0: st.just("p"), 1: st.sampled_from(["a b", "c"]),
     2: st.sampled_from([*THREE_WAY.names, "-"]), 3: st.sampled_from(["g", ""]),
     4: st.sampled_from(["1", "3", "5", ""]), 5: st.sampled_from(["x7", ""])})
tsv_lines = corpus_lines(
    mutated(valid_rows, odd_cells, drop_columns).map(
        lambda row: "\t".join(row[c] for c in sorted(row))),
    st.sampled_from(["", "   ", "p", "p\tq"]))
