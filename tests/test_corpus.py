import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyponli import corpus
from hyponli.corpus import (
    THREE_WAY, ConfigError, IngestError, LabelScheme, NLIInstance, RoleMap,
    majority_label, random_split, read_jsonl, read_tsv, remap_joci_ordinal,
    write_jsonl,
)

from conftest import make_instances

NATIVE = corpus.FIELD_MAP_PRESETS["native"]
SNLI = corpus.FIELD_MAP_PRESETS["snli"]
MANDATORY_ONLY = RoleMap("premise", "hypothesis", "label")


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestSchemes:
    def test_by_name_and_index(self):
        assert THREE_WAY.index("neutral") == 1
        assert THREE_WAY.names[2] == "contradiction"
        with pytest.raises(KeyError, match="'-'"):
            THREE_WAY.index("-")

    def test_size_bounds(self):
        with pytest.raises(ConfigError):
            LabelScheme(("a",), "one")
        with pytest.raises(ConfigError):
            LabelScheme(tuple(f"l{i}" for i in range(4)), "four")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError):
            LabelScheme(("a", "a"), "dup")
        with pytest.raises(ConfigError):
            LabelScheme(("a", ""), "blank")

    def test_instance_validation(self):
        with pytest.raises(IngestError):
            NLIInstance("p", "", 0, "x")
        with pytest.raises(IngestError):
            NLIInstance("p", "h", 0, "x", ordinal=6)


class TestReadJsonl:
    def test_identity_map(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(path, [json.dumps({"premise": "a", "hypothesis": "b",
                                       "label": "entailment"})])
        instances, skipped = read_jsonl(path, NATIVE, THREE_WAY)
        assert skipped == 0
        assert len(instances) == 1
        assert instances[0].premise == "a"
        assert instances[0].hypothesis == "b"
        assert instances[0].label == THREE_WAY.index("entailment") == 0

    def test_no_consensus_label_skipped(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(path, [json.dumps({"sentence1": "a", "sentence2": "b",
                                       "gold_label": "-"})])
        instances, skipped = read_jsonl(path, SNLI, THREE_WAY)
        assert instances == []
        assert skipped == 1

    def test_three_lines_one_skipped(self, tmp_path):
        path = tmp_path / "d.jsonl"
        rows = [
            {"sentence1": "p1", "sentence2": "h1", "gold_label": "entailment"},
            {"sentence1": "p2", "sentence2": "h2", "gold_label": "-"},
            {"sentence1": "p3", "sentence2": "h3", "gold_label": "neutral"},
        ]
        write_lines(path, [json.dumps(r) for r in rows])
        instances, skipped = read_jsonl(path, SNLI, THREE_WAY)
        assert len(instances) == 2
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
        instances, _ = read_jsonl(path, NATIVE, THREE_WAY)
        inst = instances[0]
        assert inst.group_key == "aware"
        assert inst.ordinal == 3
        assert inst.instance_id == "ex-1"

    def test_list_premise_joined_by_space(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(path, [json.dumps({"premise": ["c1", "c2", "c3", "c4"],
                                       "hypothesis": "h", "label": "neutral"})])
        instances, _ = read_jsonl(path, NATIVE, THREE_WAY)
        assert instances[0].premise == "c1 c2 c3 c4"


class TestReadTsv:
    def test_basic_row(self, tmp_path):
        path = tmp_path / "d.tsv"
        write_lines(path, ["a\tb\tentailment"])
        instances, skipped = read_tsv(path, RoleMap(0, 1, 2), THREE_WAY)
        assert len(instances) == 1 and skipped == 0
        assert instances[0].hypothesis == "b"

    def test_short_row_names_line(self, tmp_path):
        path = tmp_path / "d.tsv"
        write_lines(path, ["a\tb\tentailment", "a\tb"])
        with pytest.raises(IngestError, match="line 2"):
            read_tsv(path, RoleMap(0, 1, 2), THREE_WAY)

    def test_hundred_rows_order_preserved(self, tmp_path):
        path = tmp_path / "d.tsv"
        names = THREE_WAY.names
        write_lines(path, [f"p{i}\th{i}\t{names[i % 3]}" for i in range(100)])
        instances, skipped = read_tsv(path, RoleMap(0, 1, 2), THREE_WAY)
        assert len(instances) == 100 and skipped == 0
        assert [inst.hypothesis for inst in instances] == [f"h{i}" for i in range(100)]


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
        columns = RoleMap(premise=5, hypothesis=3, label=1, group=4, ordinal=2, id=0)
        from_jsonl = read_jsonl(jsonl, NATIVE, THREE_WAY)
        from_tsv = read_tsv(tsv, columns, THREE_WAY)
        assert from_jsonl == from_tsv
        instances, skipped = from_tsv
        assert skipped == 1
        assert [inst.label for inst in instances] == [1, 2, 0]
        assert [inst.instance_id for inst in instances] == ["a", "c", "a"]
        assert [inst.ordinal for inst in instances] == [3, 1, 5]

    def test_unset_optional_roles_take_defaults_in_both(self, tmp_path):
        jsonl, tsv = tmp_path / "d.jsonl", tmp_path / "d.tsv"
        write_lines(jsonl, [json.dumps(r) for r in self.RECORDS])
        write_lines(tsv, ["\t".join((r["premise"], r["hypothesis"], r["label"]))
                          for r in self.RECORDS])
        from_jsonl = read_jsonl(jsonl, MANDATORY_ONLY, THREE_WAY)
        from_tsv = read_tsv(tsv, RoleMap(0, 1, 2), THREE_WAY)
        assert from_jsonl == from_tsv
        assert [inst.instance_id for inst in from_tsv[0]] == ["line-1", "line-3", "line-4"]
        assert all(inst.group_key is None and inst.ordinal is None for inst in from_tsv[0])


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
        (inst,), _ = read_either(path, kind)
        assert inst.ordinal == 4 and type(inst.ordinal) is int

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


class TestJociRemap:
    @pytest.mark.parametrize("ordinal,expected", [
        (1, "contradiction"), (2, "neutral"), (3, "neutral"),
        (4, "neutral"), (5, "entailment"),
    ])
    def test_mapping(self, ordinal, expected):
        inst = NLIInstance("p", "h", 0, "x", ordinal=ordinal)
        (out,) = remap_joci_ordinal([inst])
        assert THREE_WAY.names[out.label] == expected
        assert out.ordinal == ordinal

    def test_missing_ordinal_names_instance(self):
        inst = NLIInstance("p", "h", 0, "missing-ord")
        with pytest.raises(IngestError, match="missing-ord"):
            remap_joci_ordinal([inst])

    def test_idempotent(self):
        instances = [NLIInstance("p", "h", 0, f"i{o}", ordinal=o)
                     for o in (1, 3, 5)]
        once = remap_joci_ordinal(instances)
        twice = remap_joci_ordinal(once)
        assert once == twice


class TestRandomSplit:
    def test_exact_ratios(self):
        instances = make_instances([(f"h{i}", "neutral") for i in range(10)])
        sizes = tuple(len(part) for part in random_split(instances, seed=0))
        assert sizes == (8, 1, 1)

    def test_n103_regression(self):
        # floor sizes (82, 10, 10), remainder 1 to train
        instances = make_instances([(f"h{i}", "neutral") for i in range(103)])
        sizes = tuple(len(part) for part in random_split(instances, seed=1))
        assert sizes == (83, 10, 10)

    def test_same_seed_identical(self):
        instances = make_instances([(f"h{i}", "neutral") for i in range(37)])
        assert random_split(instances, seed=9) == random_split(instances, seed=9)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            random_split([], seed=0)

    def test_bad_ratios_rejected(self):
        instances = make_instances([("h", "neutral")])
        with pytest.raises(ValueError):
            random_split(instances, ratios=(0.5, 0.2, 0.2), seed=0)

    @given(n=st.integers(1, 300), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_partition(self, n, seed):
        instances = make_instances([(f"h{i}", "neutral") for i in range(n)])
        ids = [inst.instance_id for part in random_split(instances, seed=seed)
               for inst in part]
        assert len(ids) == n
        assert set(ids) == {f"i{i}" for i in range(n)}


def labels_of(instances):
    return [inst.label for inst in instances]


class TestMajorityLabel:
    def test_simple(self):
        instances = make_instances([("a", "entailment"), ("b", "entailment"),
                                    ("c", "neutral")])
        assert majority_label(labels_of(instances)) == THREE_WAY.index("entailment")

    def test_tie_takes_lowest_index(self):
        instances = make_instances([("a", "entailment"), ("b", "neutral")])
        assert majority_label(labels_of(instances)) == THREE_WAY.index("entailment")
        instances = make_instances([("a", "contradiction"), ("b", "neutral")])
        assert majority_label(labels_of(instances)) == THREE_WAY.index("neutral")

    def test_counted_on_generated_prior(self):
        rng = np.random.default_rng(42)
        names = THREE_WAY.names
        draws = rng.choice(3, size=10_000, p=[0.5, 0.3, 0.2])
        instances = make_instances([(f"h{i}", names[d]) for i, d in enumerate(draws)])
        # independent count
        expected = max(range(3), key=lambda i: (np.sum(draws == i), -i))
        assert majority_label(labels_of(instances)) == expected

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            majority_label([])


class TestRoundTrip:
    def test_jsonl_round_trip(self, tmp_path):
        instances = [
            NLIInstance("p one", "h one", 0, "a", group_key="g1"),
            NLIInstance("p two", "h two", 2, "b", ordinal=4),
            NLIInstance("p", "h été", 1, "c"),
        ]
        path = tmp_path / "rt.jsonl"
        write_jsonl(instances, path, THREE_WAY)
        back, skipped = read_jsonl(path, NATIVE, THREE_WAY)
        assert skipped == 0
        assert back == instances
