import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyponli import corpus
from hyponli.corpus import (
    THREE_WAY, TWO_WAY, ConfigError, Corpus, IngestError, LabelScheme, RoleMap,
    majority_label, random_split, read_jsonl, read_tsv, write_jsonl,
)

import reference
from helpers import columns, make_corpus
from strategies import jsonl_lines, tsv_lines

NATIVE = corpus.FIELD_MAP_PRESETS["native"]
SNLI = corpus.FIELD_MAP_PRESETS["snli"]
MANDATORY_ONLY = RoleMap("premise", "hypothesis", "label")


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestSchemes:
    def test_by_name_and_index(self):
        assert THREE_WAY.index["neutral"] == 1
        assert THREE_WAY.names[2] == "contradiction"
        with pytest.raises(KeyError, match="'-'"):
            THREE_WAY.index["-"]

    def test_size_bounds(self):
        with pytest.raises(ConfigError):
            LabelScheme(("a",))
        with pytest.raises(ConfigError):
            LabelScheme(tuple(f"l{i}" for i in range(4)))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError):
            LabelScheme(("a", "a"))
        with pytest.raises(ConfigError):
            LabelScheme(("a", ""))

    def test_instance_validation(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(path, [GOOD_RECORD,
                           json.dumps({"premise": "p", "hypothesis": "", "label": "neutral",
                                       "id": "x"})])
        with pytest.raises(IngestError) as err:
            read_jsonl(path, NATIVE, THREE_WAY)
        assert str(err.value) == f"{path}: line 2: instance 'x': empty hypothesis"
        path = tmp_path / "d.tsv"
        write_lines(path, [GOOD_ROW, "p\th\tneutral\t6"])
        with pytest.raises(IngestError) as err:
            read_tsv(path, TSV_COLUMNS, THREE_WAY)
        assert str(err.value) == f"{path}: line 2: instance 'line-2': ordinal 6 outside [1, 5]"


class TestReadJsonl:
    def test_identity_map(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(path, [json.dumps({"premise": "a", "hypothesis": "b",
                                       "label": "entailment"})])
        data, skipped = read_jsonl(path, NATIVE, THREE_WAY)
        assert skipped == 0
        assert len(data) == 1
        assert data.premises == ["a"]
        assert data.hypotheses == ["b"]
        assert data.labels.dtype == np.int64
        assert data.labels.tolist() == [THREE_WAY.index["entailment"]] == [0]

    def test_no_consensus_label_skipped(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(path, [json.dumps({"sentence1": "a", "sentence2": "b",
                                       "gold_label": "-"})])
        data, skipped = read_jsonl(path, SNLI, THREE_WAY)
        assert columns(data) == ([], [], [], [], [], [])
        assert data.labels.dtype == np.int64
        assert skipped == 1

    def test_three_lines_one_skipped(self, tmp_path):
        path = tmp_path / "d.jsonl"
        rows = [
            {"sentence1": "p1", "sentence2": "h1", "gold_label": "entailment"},
            {"sentence1": "p2", "sentence2": "h2", "gold_label": "-"},
            {"sentence1": "p3", "sentence2": "h3", "gold_label": "neutral"},
        ]
        write_lines(path, [json.dumps(r) for r in rows])
        data, skipped = read_jsonl(path, SNLI, THREE_WAY)
        assert len(data) == 2
        assert skipped == 1

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(path, [json.dumps({"premise": "a", "hypothesis": "b",
                                       "label": "neutral"}), "{broken"])
        with pytest.raises(IngestError, match="line 2"):
            read_jsonl(path, NATIVE, THREE_WAY)

    def test_missing_mandatory_field_is_config_error(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(path, [json.dumps({"premise": "a", "label": "neutral"})])
        with pytest.raises(ConfigError, match="hypothesis"):
            read_jsonl(path, NATIVE, THREE_WAY)

    def test_optional_fields(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(path, [json.dumps({"premise": "a", "hypothesis": "b",
                                       "label": "neutral", "group": "aware",
                                       "ordinal": 3, "id": "ex-1"})])
        data, _ = read_jsonl(path, NATIVE, THREE_WAY)
        assert data.groups == ["aware"]
        assert data.ordinals == [3]
        assert data.ids == ["ex-1"]

    def test_list_premise_joined_by_space(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(path, [json.dumps({"premise": ["c1", "c2", "c3", "c4"],
                                       "hypothesis": "h", "label": "neutral"})])
        data, _ = read_jsonl(path, NATIVE, THREE_WAY)
        assert data.premises == ["c1 c2 c3 c4"]


class TestReadTsv:
    def test_basic_row(self, tmp_path):
        path = tmp_path / "d.tsv"
        write_lines(path, ["a\tb\tentailment"])
        data, skipped = read_tsv(path, RoleMap(0, 1, 2), THREE_WAY)
        assert len(data) == 1 and skipped == 0
        assert data.hypotheses == ["b"]

    def test_short_row_names_line(self, tmp_path):
        path = tmp_path / "d.tsv"
        write_lines(path, ["a\tb\tentailment", "a\tb"])
        with pytest.raises(IngestError, match="line 2"):
            read_tsv(path, RoleMap(0, 1, 2), THREE_WAY)

    def test_hundred_rows_order_preserved(self, tmp_path):
        path = tmp_path / "d.tsv"
        names = THREE_WAY.names
        write_lines(path, [f"p{i}\th{i}\t{names[i % 3]}" for i in range(100)])
        data, skipped = read_tsv(path, RoleMap(0, 1, 2), THREE_WAY)
        assert len(data) == 100 and skipped == 0
        assert data.hypotheses == [f"h{i}" for i in range(100)]


class TestOneReader:
    RECORDS = [
        {"premise": "p0", "hypothesis": "h zero", "label": "neutral", "group": "aware",
         "ordinal": 3, "id": "a"},
        {"premise": "p1", "hypothesis": "h one", "label": "-", "group": "aware",
         "ordinal": 1, "id": "b"},
        {"premise": "p2", "hypothesis": "h two", "label": "contradiction", "group": "moved",
         "ordinal": 1, "id": "c"},
        {"premise": "p3", "hypothesis": "h three", "label": "entailment", "group": "theme",
         "ordinal": 5, "id": "a"},
    ]

    def test_jsonl_and_tsv_give_equal_instances(self, tmp_path):
        jsonl, tsv = tmp_path / "d.jsonl", tmp_path / "d.tsv"
        write_lines(jsonl, [json.dumps(r) for r in self.RECORDS])
        # columns in another order than the roles, as recast datasets have them
        write_lines(tsv, ["\t".join(str(r[k]) for k in
                                    ("id", "label", "ordinal", "hypothesis", "group", "premise"))
                          for r in self.RECORDS])
        roles = RoleMap(premise=5, hypothesis=3, label=1, group=4, ordinal=2, id=0)
        from_jsonl, jsonl_skipped = read_jsonl(jsonl, NATIVE, THREE_WAY)
        data, skipped = read_tsv(tsv, roles, THREE_WAY)
        assert (columns(from_jsonl), jsonl_skipped) == (columns(data), skipped)
        assert skipped == 1
        assert data.labels.tolist() == [1, 2, 0]
        assert data.ids == ["a", "c", "a"]
        assert data.ordinals == [3, 1, 5]

    def test_unset_optional_roles_take_defaults_in_both(self, tmp_path):
        jsonl, tsv = tmp_path / "d.jsonl", tmp_path / "d.tsv"
        write_lines(jsonl, [json.dumps(r) for r in self.RECORDS])
        write_lines(tsv, ["\t".join((r["premise"], r["hypothesis"], r["label"]))
                          for r in self.RECORDS])
        from_jsonl, jsonl_skipped = read_jsonl(jsonl, MANDATORY_ONLY, THREE_WAY)
        data, skipped = read_tsv(tsv, RoleMap(0, 1, 2), THREE_WAY)
        assert (columns(from_jsonl), jsonl_skipped) == (columns(data), skipped)
        assert data.ids == ["line-1", "line-3", "line-4"]
        assert data.groups == data.ordinals == [None] * 3


GOOD_RECORD = json.dumps({"premise": "p", "hypothesis": "h", "label": "neutral"})
GOOD_ROW = "p\th\tneutral\t3"
TSV_COLUMNS = RoleMap(0, 1, 2, ordinal=3)


def read_either(path, kind):
    if kind == "jsonl":
        return read_jsonl(path, NATIVE, THREE_WAY)
    return read_tsv(path, TSV_COLUMNS, THREE_WAY)


class TestIngestErrors:
    def test_overflowing_ordinal_is_ingest_error(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(GOOD_RECORD + "\n" + GOOD_RECORD[:-1] + ', "ordinal": 1e400}\n',
                        encoding="utf-8")
        with pytest.raises(IngestError, match=f"{path}: line 2: bad ordinal"):
            read_jsonl(path, NATIVE, THREE_WAY)

    @pytest.mark.parametrize("value", [4.7, True, "4.0", "four", [4], {"n": 4}, 2.5])
    def test_non_integer_ordinal_is_ingest_error(self, tmp_path, value):
        path = tmp_path / "d.jsonl"
        record = {"premise": "p", "hypothesis": "h", "label": "neutral", "ordinal": value}
        path.write_text(GOOD_RECORD + "\n" + json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(IngestError, match=f"{path}: line 2: bad ordinal"):
            read_jsonl(path, NATIVE, THREE_WAY)

    @pytest.mark.parametrize("value", ["4.7", "4.0", "true", "", "four"])
    def test_non_integer_tsv_ordinal_is_ingest_error(self, tmp_path, value):
        path = tmp_path / "d.tsv"
        path.write_text(GOOD_ROW + "\n" + f"p\th\tneutral\t{value}\n", encoding="utf-8")
        with pytest.raises(IngestError, match=f"{path}: line 2: bad ordinal"):
            read_tsv(path, TSV_COLUMNS, THREE_WAY)

    @pytest.mark.parametrize("kind, value", [
        ("jsonl", 4), ("jsonl", 4.0), ("jsonl", "4"), ("jsonl", " 4 "),
        ("tsv", "4"), ("tsv", " 4"), ("tsv", "+4"),
    ])
    def test_integral_ordinals_are_read(self, tmp_path, kind, value):
        path = tmp_path / f"d.{kind}"
        if kind == "jsonl":
            path.write_text(json.dumps({"premise": "p", "hypothesis": "h", "label": "neutral",
                                        "ordinal": value}) + "\n", encoding="utf-8")
        else:
            path.write_text(f"p\th\tneutral\t{value}\n", encoding="utf-8")
        data, _ = read_either(path, kind)
        (ordinal,) = data.ordinals
        assert ordinal == 4 and type(ordinal) is int

    @pytest.mark.parametrize("role, value", [
        ("hypothesis", None), ("hypothesis", 5), ("hypothesis", True), ("hypothesis", ["a"]),
        ("hypothesis", {"x": 1}),
        ("premise", None), ("premise", 5), ("premise", {"k": 1}), ("premise", ["a", 1]),
    ], ids=["hypothesis-null", "hypothesis-5", "hypothesis-true", "hypothesis-list",
            "hypothesis-object", "premise-null", "premise-5", "premise-object",
            "premise-mixed-list"])
    def test_non_string_text_is_ingest_error(self, tmp_path, role, value):
        # str() would have made these the texts 'None', "['a']", "{'x': 1}", ...
        path = tmp_path / "d.jsonl"
        record = {"premise": "p", "hypothesis": "h", "label": "neutral", "id": "x7"}
        record[role] = value
        path.write_text(GOOD_RECORD + "\n" + json.dumps(record) + "\n", encoding="utf-8")
        kinds = "a string" if role == "hypothesis" else "a string or a list of strings"
        with pytest.raises(IngestError, match=rf"^{path}: line 2: instance 'x7': {role} "
                                              rf"is not {kinds}$"):
            read_jsonl(path, NATIVE, THREE_WAY)

    @pytest.mark.parametrize("role, value", [
        ("group", ["x", "y"]), ("group", {"k": 1}), ("group", True), ("group", 2.0),
        ("id", ["x"]), ("id", {"k": 1}), ("id", False), ("id", 7.5),
    ])
    def test_group_or_id_that_is_not_a_key_is_ingest_error(self, tmp_path, role, value):
        # str() would have made these the keys "['x', 'y']", "{'k': 1}", 'True', ...
        path = tmp_path / "d.jsonl"
        record = {"premise": "p", "hypothesis": "h", "label": "neutral", "id": "x7"}
        record[role] = value
        path.write_text(GOOD_RECORD + "\n" + json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(IngestError) as err:
            read_jsonl(path, NATIVE, THREE_WAY)
        where = f"{path}: line 2" + (": instance 'x7'" if role == "group" else "")
        assert str(err.value) == f"{where}: {role} is not a string or an integer"

    def test_integer_null_and_skipped_groups_and_ids(self, tmp_path):
        path = tmp_path / "d.jsonl"
        records = [{"group": 3, "id": 7}, {"group": None, "id": None},
                   {"label": "-", "group": ["x"], "id": {"k": 1}}]
        write_lines(path, [json.dumps({"premise": "p", "hypothesis": "h", "label": "neutral",
                                       **record}) for record in records])
        data, skipped = read_jsonl(path, NATIVE, THREE_WAY)
        assert (data.groups, data.ids, skipped) == (["3", None], ["7", "line-2"], 1)

    @pytest.mark.parametrize("roles, remap, unset", [
        (RoleMap(0, 1), False, "label"),
        (RoleMap(0, ordinal=2), True, "hypothesis"),
        (RoleMap(label=2), False, "premise, hypothesis"),
        (RoleMap(0, 1, 2), True, "ordinal"),
    ])
    def test_unset_mandatory_role_is_config_error_before_any_line(self, tmp_path, roles,
                                                                   remap, unset):
        path = tmp_path / "d.tsv"
        path.write_bytes(b"\xff not even UTF-8\n")
        with pytest.raises(ConfigError) as err:
            read_tsv(path, roles, THREE_WAY, remap_ordinal=remap)
        assert str(err.value) == f"{path}: the role map has no field or column for {unset}"

    def test_remap_ordinal_needs_no_label_column(self, tmp_path):
        path = tmp_path / "d.tsv"
        write_lines(path, ["p\ta\t1", "p\tb\t5"])
        data, skipped = read_tsv(path, RoleMap(0, 1, ordinal=2), THREE_WAY, remap_ordinal=True)
        assert skipped == 0 and data.labels.tolist() == [2, 0]

    def test_non_string_text_of_a_skipped_record_is_not_read(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"premise": None, "hypothesis": None, "label": "-"}) + "\n"
                        + GOOD_RECORD + "\n", encoding="utf-8")
        data, skipped = read_jsonl(path, NATIVE, THREE_WAY)
        assert (len(data), skipped) == (1, 1)

    @pytest.mark.parametrize("kind", ["jsonl", "tsv"])
    def test_invalid_utf8_names_path_and_line(self, tmp_path, kind):
        # far more than one decoding chunk precedes the bad line
        good = (GOOD_RECORD if kind == "jsonl" else GOOD_ROW).encode("utf-8") + b"\n"
        path = tmp_path / f"d.{kind}"
        path.write_bytes(good * 3000 + b"caf\xe9\n" + good)
        with pytest.raises(IngestError, match=f"{path}: line 3001: not UTF-8"):
            read_either(path, kind)

    @given(data=st.binary(max_size=200), kind=st.sampled_from(["jsonl", "tsv"]))
    @settings(max_examples=300, deadline=None)
    def test_random_bytes_raise_only_ingest_or_config_errors(self, tmp_path_factory,
                                                            data, kind):
        path = tmp_path_factory.mktemp("fuzz") / f"d.{kind}"
        path.write_bytes(data)
        try:
            read_either(path, kind)
        except (IngestError, ConfigError):
            pass

    json_values = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6)
    mandatory = {"premise": json_values, "hypothesis": json_values,
                 "label": json_values | st.sampled_from(THREE_WAY.names)}
    optional = {"group": json_values,
                "ordinal": st.sampled_from([1, 3, 5, 6, 2.5, math.inf, -math.inf, math.nan])
                | json_values,
                "id": json_values}
    # mostly records that carry every mandatory role, so that the optional
    # fields are read too
    records = (st.fixed_dictionaries(mandatory, optional=optional)
               | st.fixed_dictionaries({}, optional={**mandatory, **optional}))

    @given(records=st.lists(records, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_field_values_raise_only_ingest_or_config_errors(
            self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("fuzz") / "d.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        try:
            read_jsonl(path, NATIVE, THREE_WAY)
        except (IngestError, ConfigError):
            pass


def outcome(read, path, roles, remap):
    """A reader's columns and skip count, or its exception class and message."""
    try:
        data, skipped = read(path, roles, THREE_WAY, remap)
    except Exception as exc:  # noqa: BLE001 - compared, class and message, with the oracle's
        return type(exc), str(exc)
    return columns(data), skipped


class TestAgainstReference:
    """_read against the record loop it replaced (tests/reference.py): the
    same columns and skip count, or the same exception class and message,
    on every record."""

    @given(lines=jsonl_lines, roles=st.sampled_from([NATIVE, NATIVE, MANDATORY_ONLY, SNLI]),
           remap=st.booleans())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_jsonl(self, tmp_path_factory, lines, roles, remap):
        path = tmp_path_factory.mktemp("jsonl") / "d.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        assert (outcome(read_jsonl, path, roles, remap)
                == outcome(reference.read_jsonl, path, roles, remap))

    def test_every_mix_of_good_and_bad_fields(self, tmp_path):
        """Check precedence: each role good, of a wrong type, out of range
        or missing, in every combination, read as the one line of a file."""
        path = tmp_path / "d.jsonl"
        path.write_text("{}\n", encoding="utf-8")
        missing = object()
        options = {"premise": ["p", ["a", "b"], 5, missing],
                   "hypothesis": ["a b", "", 5, missing],
                   "label": ["neutral", "-", 7, missing],
                   "group": ["g", 3, ["x"], missing],
                   "ordinal": [3, "x", 9, missing],
                   "id": ["x7", 8, {"k": 1}, missing]}

        def read(path, roles, scheme, remap):
            return corpus._read(path, roles, scheme, lambda line: record, remap)

        def read_reference(path, roles, scheme, remap):
            return reference._read(path, roles, scheme, lambda line, where: record, remap)

        for values in itertools.product(*options.values()):
            record = {key: v for key, v in zip(options, values) if v is not missing}
            for remap in (False, True):
                assert (outcome(read, path, NATIVE, remap)
                        == outcome(read_reference, path, NATIVE, remap)), record

    @given(lines=tsv_lines,
           roles=st.sampled_from([RoleMap(0, 1, 2, group=3, ordinal=4, id=5), RoleMap(0, 1, 2),
                                  RoleMap(0, 1, ordinal=4, id=2), RoleMap(1, 0, 2, group=5)]),
           remap=st.booleans())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_tsv(self, tmp_path_factory, lines, roles, remap):
        path = tmp_path_factory.mktemp("tsv") / "d.tsv"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        assert (outcome(read_tsv, path, roles, remap)
                == outcome(reference.read_tsv, path, roles, remap))


class TestJociRemap:
    """With remap_ordinal, ingest takes every label from the 1-5 ordinal."""

    @pytest.mark.parametrize("ordinal,expected", [
        (1, "contradiction"), (2, "neutral"), (3, "neutral"),
        (4, "neutral"), (5, "entailment"),
    ])
    def test_mapping(self, tmp_path, ordinal, expected):
        # the label field says "-", which the scheme lacks: the ordinal decides
        path = tmp_path / "d.jsonl"
        write_lines(path, [json.dumps({"premise": "p", "hypothesis": "h", "label": "-",
                                       "ordinal": ordinal})])
        tsv = tmp_path / "d.tsv"
        write_lines(tsv, [f"p\th\t-\t{ordinal}"])
        for data, skipped in (read_jsonl(path, NATIVE, THREE_WAY, remap_ordinal=True),
                              read_tsv(tsv, TSV_COLUMNS, THREE_WAY, remap_ordinal=True)):
            assert skipped == 0
            assert data.labels.dtype == np.int64
            assert [THREE_WAY.names[label] for label in data.labels] == [expected]
            assert data.ordinals == [ordinal]

    def test_missing_ordinal_is_skipped_and_counted(self, tmp_path):
        path = tmp_path / "d.jsonl"
        records = [{"label": "entailment", "ordinal": 3, "id": "a"},
                   {"label": "entailment", "id": "b"},
                   {"label": "neutral", "ordinal": None, "id": "c"},
                   {"label": "-", "ordinal": 5, "id": "d"}]
        write_lines(path, [json.dumps({"premise": "p", "hypothesis": "h", **record})
                           for record in records])
        data, skipped = read_jsonl(path, NATIVE, THREE_WAY, remap_ordinal=True)
        assert skipped == 2
        assert data.ids == ["a", "d"] and data.labels.tolist() == [1, 0]
        data, skipped = read_jsonl(path, NATIVE, THREE_WAY)
        assert skipped == 1 and data.ids == ["a", "b", "c"]

    def test_bad_ordinal_still_raises(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(path, [json.dumps({"premise": "p", "hypothesis": "h", "label": "-",
                                       "ordinal": 6})])
        with pytest.raises(IngestError, match="ordinal 6 outside"):
            read_jsonl(path, NATIVE, THREE_WAY, remap_ordinal=True)

    @pytest.mark.parametrize("scheme", [TWO_WAY, LabelScheme(("a", "b", "c"))])
    def test_needs_the_three_way_names_before_any_line_is_read(self, tmp_path, scheme):
        """The ordinals map onto the THREE_WAY names; another scheme raised a
        bare KeyError at the first kept record."""
        path = tmp_path / "d.jsonl"
        path.write_text("{\n", encoding="utf-8")  # any line read would fail as JSON
        with pytest.raises(ConfigError, match=rf"^{path}: 1-5 ordinals remap onto the "
                                              rf"3-way labels .*, not "
                                              rf"{re.escape(str(list(scheme.names)))}$"):
            read_jsonl(path, NATIVE, scheme, remap_ordinal=True)

    def test_idempotent(self, tmp_path):
        data = make_corpus([("h", "entailment")] * 3, ordinals=[1, 3, 5])
        write_jsonl(data, tmp_path / "a.jsonl", THREE_WAY)
        once, _ = read_jsonl(tmp_path / "a.jsonl", NATIVE, THREE_WAY, remap_ordinal=True)
        write_jsonl(once, tmp_path / "b.jsonl", THREE_WAY)
        twice, _ = read_jsonl(tmp_path / "b.jsonl", NATIVE, THREE_WAY, remap_ordinal=True)
        assert columns(once) == columns(twice)
        assert once.labels.tolist() == [2, 1, 0]


EIGHTY_TEN_TEN = (0.8, 0.1, 0.1)  # train, dev and test shares


class TestRandomSplit:
    def test_exact_ratios(self):
        data = make_corpus([(f"h{i}", "neutral") for i in range(10)])
        sizes = tuple(len(part) for part in random_split(data, ratios=EIGHTY_TEN_TEN, seed=0))
        assert sizes == (8, 1, 1)

    def test_n103_regression(self):
        # floor sizes (82, 10, 10), remainder 1 to train
        data = make_corpus([(f"h{i}", "neutral") for i in range(103)])
        sizes = tuple(len(part) for part in random_split(data, ratios=EIGHTY_TEN_TEN, seed=1))
        assert sizes == (83, 10, 10)

    def test_same_seed_identical(self):
        data = make_corpus([(f"h{i}", "neutral") for i in range(37)])
        assert ([columns(part) for part in random_split(data, ratios=EIGHTY_TEN_TEN, seed=9)]
                == [columns(part) for part in random_split(data, ratios=EIGHTY_TEN_TEN, seed=9)])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            random_split(make_corpus([]), ratios=EIGHTY_TEN_TEN, seed=0)

    def test_bad_ratios_rejected(self):
        data = make_corpus([("h", "neutral")])
        with pytest.raises(ValueError):
            random_split(data, ratios=(0.5, 0.2, 0.2), seed=0)

    @given(n=st.integers(1, 300), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_partition(self, n, seed):
        data = make_corpus([(f"h{i}", "neutral") for i in range(n)])
        ids = [i for part in random_split(data, ratios=EIGHTY_TEN_TEN, seed=seed) for i in part.ids]
        assert len(ids) == n
        assert set(ids) == {f"i{i}" for i in range(n)}

    @given(rows=st.lists(st.tuples(st.text(min_size=1, max_size=4), st.integers(0, 2),
                                   st.none() | st.text(max_size=3),
                                   st.none() | st.integers(1, 5)),
                         min_size=1, max_size=60),
           ratios=st.sampled_from([(0.8, 0.1, 0.1), (0.5, 0.3, 0.2), (1.0, 0.0, 0.0),
                                   (0.0, 0.0, 1.0), (0.25, 0.5, 0.25)]),
           seed=st.integers(0, 2**16))
    @settings(max_examples=100, deadline=None)
    def test_rows_keep_their_fields_and_parts_partition(self, rows, ratios, seed):
        n = len(rows)
        hypotheses, labels, groups, ordinals = (list(col) for col in zip(*rows))
        data = Corpus([f"p{k}" for k in range(n)], hypotheses, np.array(labels, dtype=np.int64),
                      [f"i{k}" for k in range(n)], groups, ordinals)
        parts = random_split(data, ratios=ratios, seed=seed)
        positions = [int(i[1:]) for part in parts for i in part.ids]
        assert sorted(positions) == list(range(n))
        for part in parts:
            assert part.labels.dtype == np.int64
            for premise, hyp, label, instance_id, group, ordinal in zip(*columns(part)):
                k = int(instance_id[1:])
                assert (premise, hyp, label, group, ordinal) == (f"p{k}", *rows[k])


def labels_of(data):
    return data.labels

class TestMajorityLabel:
    def test_simple(self):
        data = make_corpus([("a", "entailment"), ("b", "entailment"),
                                    ("c", "neutral")])
        assert majority_label(labels_of(data)) == THREE_WAY.index["entailment"]

    def test_tie_takes_lowest_index(self):
        data = make_corpus([("a", "entailment"), ("b", "neutral")])
        assert majority_label(labels_of(data)) == THREE_WAY.index["entailment"]
        data = make_corpus([("a", "contradiction"), ("b", "neutral")])
        assert majority_label(labels_of(data)) == THREE_WAY.index["neutral"]

    def test_counted_on_generated_prior(self):
        rng = np.random.default_rng(42)
        names = THREE_WAY.names
        draws = rng.choice(3, size=10_000, p=[0.5, 0.3, 0.2])
        data = make_corpus([(f"h{i}", names[d]) for i, d in enumerate(draws)])
        # independent count
        expected = max(range(3), key=lambda i: (np.sum(draws == i), -i))
        assert majority_label(labels_of(data)) == expected

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            majority_label([])


class TestRoundTrip:
    def test_jsonl_round_trip(self, tmp_path):
        data = Corpus(["p one", "p two", "p"], ["h one", "h two", "h été"],
                      np.array([0, 2, 1], dtype=np.int64), ["a", "b", "c"],
                      ["g1", None, None], [None, 4, None])
        path = tmp_path / "rt.jsonl"
        write_jsonl(data, path, THREE_WAY)
        back, skipped = read_jsonl(path, NATIVE, THREE_WAY)
        assert skipped == 0
        assert columns(back) == columns(data)

    # JSON keeps any text, but a hypothesis must be nonempty, and ingest
    # reads a whitespace-only premise or group as itself
    texts = st.text(min_size=1, max_size=6)

    @given(rows=st.lists(st.tuples(st.text(max_size=6), texts, st.integers(0, 2), texts,
                                   st.none() | st.text(max_size=6),
                                   st.none() | st.integers(1, 5)),
                         max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_is_column_for_column(self, tmp_path_factory, rows):
        premises, hypotheses, labels, ids, groups, ordinals = (
            list(col) for col in zip(*rows)) if rows else ([],) * 6
        data = Corpus(premises, hypotheses, np.array(labels, dtype=np.int64), ids, groups,
                      ordinals)
        path = tmp_path_factory.mktemp("rt") / "rt.jsonl"
        write_jsonl(data, path, THREE_WAY)
        back, skipped = read_jsonl(path, NATIVE, THREE_WAY)
        assert skipped == 0
        assert back.labels.dtype == np.int64
        assert columns(back) == columns(data)
