"""Hypothesis strategies for the files hyponli reads, each a valid file
with a few parts dropped or replaced by the values its reader treats
differently.

jsonl_lines and tsv_lines each draw the lines of one corpus file: valid
JSONL records and TSV rows with up to two fields dropped or replaced, and
now and then a blank or malformed line. specs draws a synth spec object
with keys, or fields of its giveaway entries, replaced; config_lines the
lines of a stats --config file, stats_flag_values the same values given as
stats flags, vector_lines the lines of a word-vector file, and
checkpoint_damage an edit of a checkpoint's header and its array bytes.
"""

import json
import math
import struct

from hypothesis import strategies as st

from hyponli.corpus import THREE_WAY

# the values ingest treats differently: null, bools, containers, NaN, an
# integer past int64, empty and blank strings, a lone surrogate (which
# json.dumps escapes), labels in and out of the scheme
ODD_VALUES = [None, True, False, [], ["a", "b"], ["a", 1], {}, {"k": 1}, math.nan, math.inf,
              2 ** 63, 10 ** 20, 1e308, 2.5, 4.0, 0, 3, 6, "", " ", "x", "a b", "a \ud800", "-",
              "3", " 4 ", "neutral", "entailment", "contradiction"]
ODD_CELLS = ["", " ", "p", "a b", "neutral", "entailment", "-", "nan", "3", "5", "7",
             "9223372036854775808", "true", "1.0", " 4", "x7"]
odd_values = st.sampled_from(ODD_VALUES)
odd_cells = st.sampled_from(ODD_CELLS)
# the roles by position: the key of a JSONL record, the column of a TSV row
KEYS = ("premise", "hypothesis", "label", "group", "ordinal", "id")
TSV_COLUMNS = ",".join(f"{role}={column}" for column, role in enumerate(KEYS))


@st.composite
def mutated(draw, valid, odd, drop, keys=range(len(KEYS))):
    """A valid record or row (by default keyed by role position), with up
    to two of keys dropped or replaced."""
    record = draw(valid)
    for key in draw(st.lists(st.sampled_from(keys), max_size=2)):
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
    st.sampled_from(["", "   ", "{", "[1]", "null", '"text"', "NaN",
                     '{"premise": "p", "hypothesis": "a \\udfff", "label": "neutral"}']))
valid_rows = st.fixed_dictionaries(
    {0: st.just("p"), 1: st.sampled_from(["a b", "c"]),
     2: st.sampled_from([*THREE_WAY.names, "-"]), 3: st.sampled_from(["g", ""]),
     4: st.sampled_from(["1", "3", "5", ""]), 5: st.sampled_from(["x7", ""])})
tsv_lines = corpus_lines(
    mutated(valid_rows, odd_cells, drop_columns).map(
        lambda row: "\t".join(row[c] for c in sorted(row))),
    st.sampled_from(["", "   ", "p", "p\tq"]))

# JSON values a spec or checkpoint reader treats differently, lone surrogates among them
ODD_JSON = [None, True, False, [], {}, "", "x", "3", 0, -1, 1, 2, 3, 2.5, 1e308, math.nan,
            math.inf, 2 ** 63, 10 ** 20, [1], [0, 1], [3, 1], [1, 2 ** 63], [0.5, 0.5],
            [0.4, 0.35, 0.25], [1.5, -0.5, 0.0], ["a", "b"], [["w001", 0, 0.5]],
            [["give", 5, 0.5]], [["give", "neutral", 2.0]], [["a b", 0, 0.5]], "x\ud800",
            [["x\ud800", 0, 0.5]], [["give", 0, 0.5], ["give", 1, 0.5]], {"k": 1}]
odd_json = st.sampled_from(ODD_JSON)

SPEC_KEYS = ("n_labels", "label_prior", "vocab_size", "sentence_length", "giveaway", "seed",
             "extra")
VALID_SPECS = [
    {"n_labels": 3, "label_prior": [0.4, 0.35, 0.25], "vocab_size": 12,
     "sentence_length": [3, 6], "giveaway": [["give0", 0, 0.9], ["give1", "neutral", 0.5]],
     "seed": 4},
    {"n_labels": 2, "label_prior": [0.5, 0.5], "vocab_size": 1000,
     "sentence_length": [1, 2], "seed": 0}]
# the values a giveaway entry's token, label or rate may take instead, a lone surrogate among them
GIVEAWAY_FIELDS = ["x\ud800", "\udfff", "", " ", "a b", "w001", "give1", "neutral", None, 0, 3,
                   -1, 2.5, 1.0, math.nan, [1]]


@st.composite
def giveaway_mutated(draw, spec):
    """The spec, with up to two fields of its giveaway entries (token, label or
    rate) replaced, when its giveaway is a list of lists."""
    entries = spec.get("giveaway")
    if isinstance(entries, list) and entries and all(isinstance(e, list) for e in entries):
        entries = spec["giveaway"] = [list(entry) for entry in entries]  # unshare them
        for entry in draw(st.lists(st.sampled_from(entries), max_size=2)):
            entry[draw(st.integers(0, len(entry) - 1))] = draw(st.sampled_from(GIVEAWAY_FIELDS))
    return spec


specs = mutated(st.sampled_from(VALID_SPECS).map(dict), odd_json, drop_key, SPEC_KEYS).flatmap(
    giveaway_mutated)

# stats options, a dashed and an unknown key, the two subcommand actions
# that are not options (help, config), and the values their conversions and
# checks treat differently, --format and --scheme values among them
CONFIG_KEYS = ("format", "scheme", "remap-ordinal", "seed", "split-name", "min-freq", "top_k",
               "grid-step", "per-label-threshold", "compare-to", "help", "config", "")
config_values = st.sampled_from([
    "", "0", "1", "-1", "2.5", "0.3", "nan", "inf", "1e-7", "10" * 12, "yes", "Off", "maybe",
    "native", "snli", "tsv", "xml", "3way", "2way", "4way", "a,b", "a", "a,a", "a,b,c,d", ",",
    "entailment,neutral,contradiction", "premise=0,hypothesis=1,label=2", "hypothesis=x",
    "premise=0,hypothesis=1,label=2,label=3", "premise=0,hypothesis=1,ordinal=2",
    "hypothesis=0,label=1", "premise=0,hypothesis=1,label=2,", "= 3", "caf\u00e9"])
config_lines = st.lists(
    st.one_of(st.tuples(st.sampled_from(CONFIG_KEYS), config_values).map(
                  lambda pair: f"{pair[0]} = {pair[1]}"),
              st.sampled_from(["", "# a comment", "top-k", "=", "scheme"])),
    max_size=4)
# the same values given to stats' value flags, other than its input, output
# and config paths, as (flag, value) argv pairs
stats_flag_values = st.lists(
    st.tuples(st.sampled_from(["--format", "--scheme", "--seed", "--split-name", "--min-freq",
                               "--top-k", "--grid-step"]), config_values),
    max_size=4)

# the lines of a 4-dimensional vector file over the words a, b and c; a
# value may be one that float() reads or refuses, and a line may lose or
# gain values
vector_values = st.sampled_from(["0.5", "-1", "1e3", "1e308", "-1e308", "nan", "inf",
                                 "1e400", "x", "0x1", "1_0", "\u0661", "+.5", "1e-400"])
vector_lines = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c", "zz", "<unk>"]),
              st.lists(vector_values, min_size=3, max_size=5)).map(
                  lambda pair: " ".join([pair[0], *pair[1]])),
    max_size=5).map(lambda lines: lines or [""])


DROP = object()  # a change that deletes its field instead of setting it

# the checkpoint header's fields, as paths of object keys and of indices
# into the label names
CHECKPOINT_FIELDS = [
    ("format",), ("version",), ("config",), ("labels",), ("vocab",), ("arrays",),
    *(("config", key) for key in ("encoder_kind", "embedding_dim", "hidden_dim", "mlp_hidden",
                                   "seed", "finetune_embeddings", "extra")),
    ("labels", 0), ("labels", 1), ("labels", 2)]


@st.composite
def checkpoint_damage(draw):
    """An edit of a checkpoint: (header path, value or DROP) pairs for up
    to two CHECKPOINT_FIELDS, up to two (offset, bytes) writes into the
    array bytes, the offset a fraction of their length, and a length change
    of -1, 0 or 1 bytes. A label may become another label's name."""
    fields = draw(st.lists(st.tuples(st.sampled_from(CHECKPOINT_FIELDS),
                                     st.one_of(st.just(DROP), odd_json,
                                               st.sampled_from(["birnn-maxpool", "bag",
                                                                "neutral"]))),
                           max_size=2))
    floats = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 1e150, 0.0, -0.0,
                              5e-324]).map(lambda x: struct.pack("<d", x))
    writes = draw(st.lists(st.tuples(st.floats(0, 1), floats | st.binary(min_size=1,
                                                                         max_size=9)),
                           max_size=2))
    resize = draw(st.sampled_from([0, 0, 0, -1, 1]))
    return fields, writes, resize
