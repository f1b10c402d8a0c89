"""Corpus ingestion, label schemes, and split management for NLI-style data.

A corpus is a Corpus of parallel columns, one row per record: premises,
hypotheses, labels (an int64 array of label indices), ids, groups and
ordinals. A label is its index in a LabelScheme from the line it is read
on; label names appear only in the files read and written. Datasets
arrive as JSONL (one record per line, UTF-8) or TSV (tab delimited, no
quoting). Both go through one reader, which appends each record straight
to the columns: a RoleMap says where each native role (premise /
hypothesis / label / group / ordinal / id) sits in a record, as a key of
a JSONL object or a column of a TSV row, and each format adds only its
own line parse. The reader alone decides which roles a file must map
and which records are kept, by their label field or, with remap_ordinal,
by their 1-5 ordinal. Lines come from util.numbered_lines and JSONL
records from util.parse_json.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .util import ConfigError, IngestError, as_integer, atomic_open, numbered_lines, parse_json


@dataclass(frozen=True)
class LabelScheme:
    """2 or 3 distinct, nonempty class label names; label i is names[i]."""

    names: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 2 <= len(self.names) <= 3:
            raise ConfigError(f"labels {list(self.names)} are not 2 or 3 names")
        if not all(isinstance(name, str) and name for name in self.names):
            raise ConfigError(f"labels {list(self.names)} are not all nonempty strings")
        repeated = [name for i, name in enumerate(self.names) if name in self.names[:i]]
        if repeated:
            raise ConfigError(f"labels {list(self.names)} repeat {repeated[0]!r}")
        object.__setattr__(self, "_index", {name: i for i, name in enumerate(self.names)})

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        """The label index of name; KeyError when the scheme lacks it."""
        return self._index[name]


THREE_WAY = LabelScheme(("entailment", "neutral", "contradiction"))
TWO_WAY = LabelScheme(("entailed", "not-entailed"))

SCHEME_PRESETS = {"3way": THREE_WAY, "2way": TWO_WAY}

# JOCI's 1-5 likelihood ratings on the THREE_WAY names
JOCI_ORDINAL_TO_LABEL = {1: "contradiction", 2: "neutral", 3: "neutral",
                         4: "neutral", 5: "entailment"}


@dataclass(frozen=True, eq=False)
class Corpus:
    """Parallel columns with one row per record; labels holds label indices.

    The premise may span multiple sentences (it is storage only; nothing
    downstream of ingestion reads it). A group carries e.g. a proto-role
    property name and an ordinal a 1-5 likelihood rating; either is None
    where a record has none.
    """

    premises: list[str]
    hypotheses: list[str]
    labels: np.ndarray
    ids: list[str]
    groups: list[str | None]
    ordinals: list[int | None]

    def __len__(self) -> int:
        return len(self.hypotheses)

    def take(self, rows) -> Corpus:
        """The given row positions, in the given order, as a new Corpus."""
        rows = np.asarray(rows, dtype=np.int64)
        positions = rows.tolist()

        def pick(column):
            return [column[i] for i in positions]

        return Corpus(pick(self.premises), pick(self.hypotheses), self.labels[rows],
                      pick(self.ids), pick(self.groups), pick(self.ordinals))


@dataclass(frozen=True)
class RoleMap:
    """Where each role sits in a record: a key of a JSONL object or a
    column of a TSV row, or None where unset; the reader refuses a map that
    leaves a mandatory role unset."""

    premise: str | int | None = None
    hypothesis: str | int | None = None
    label: str | int | None = None
    group: str | int | None = None
    ordinal: str | int | None = None
    id: str | int | None = None


FIELD_MAP_PRESETS = {
    "native": RoleMap("premise", "hypothesis", "label",
                      group="group", ordinal="ordinal", id="id"),
    "snli": RoleMap("sentence1", "sentence2", "gold_label"),
}


def _join_premise(value, where) -> str:
    # Multi-caption premises (lists of strings) are stored joined by single spaces.
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        return " ".join(value)
    if not isinstance(value, str):
        raise IngestError(f"{where}: premise is not a string or a list of strings")
    return value


def _key_text(value, role, where) -> str:
    # str() of a list, an object, a bool or a float would invent a key
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise IngestError(f"{where}: {role} is not a string or an integer")
    return str(value)


def _read(path, roles: RoleMap, scheme: LabelScheme, parse, remap_ordinal: bool):
    """The reader behind read_jsonl and read_tsv. parse(line) turns one
    nonblank line into a mapping from the keys of roles to values, or
    raises IngestError, which the reader prefixes with the path and line;
    an optional role whose value is None, or that roles leaves unset,
    takes its default. A role map that leaves a mandatory role (the
    premise, the hypothesis, and the label unless remap_ordinal is set)
    unset, or a record that lacks one, raises ConfigError, as do, under
    remap_ordinal, a map without an ordinal and a non-THREE_WAY scheme.

    The role keys and the label-name index are looked up once per file,
    a str value skips _key_text and _join_premise, and an error location
    is formatted only for its message. The checks run in a fixed order:
    the parse, the mandatory keys, the skip, the ordinal's type, the id,
    the hypothesis, the ordinal's range, the premise and the group."""
    premises, hypotheses, labels, ids, groups, ordinals = [], [], [], [], [], []
    mandatory = ("premise", "hypothesis") + (() if remap_ordinal else ("label",))
    unset = [role for role in mandatory + (("ordinal",) if remap_ordinal else ())
             if getattr(roles, role) is None]
    if unset:
        raise ConfigError(f"{path}: the role map has no field or column for "
                          f"{', '.join(unset)}")
    if remap_ordinal and scheme.names != THREE_WAY.names:
        raise ConfigError(f"{path}: 1-5 ordinals remap onto the 3-way labels "
                          f"{list(THREE_WAY.names)}, not {list(scheme.names)}")
    required = [(role, getattr(roles, role)) for role in mandatory]
    # an unset role is None, which is never a key of a record
    premise_key, hypothesis_key, label_key = roles.premise, roles.hypothesis, roles.label
    group_key, ordinal_key, id_key = roles.group, roles.ordinal, roles.id
    label_index = scheme._index

    def where(lineno, instance_id=None):
        at = f"{path}: line {lineno}"
        return at if instance_id is None else f"{at}: instance {instance_id!r}"

    skipped = 0
    for lineno, line in numbered_lines(path):
        if not line.strip():
            continue
        try:
            record = parse(line)
        except IngestError as exc:
            raise IngestError(f"{where(lineno)}: {exc}") from exc.__cause__
        for role, key in required:
            if key not in record:
                raise ConfigError(f"{where(lineno)}: no field {key!r} for role {role!r}")
        # the label source: the ordinal with remap_ordinal, else the label field
        ordinal = record.get(ordinal_key)
        if remap_ordinal:
            if ordinal is None:
                skipped += 1
                continue
        else:
            label_field = record[label_key]
            label = label_index.get(label_field if type(label_field) is str
                                    else str(label_field))
            if label is None:
                skipped += 1
                continue
        if ordinal is not None:
            try:
                ordinal = as_integer(ordinal)
            except ValueError:
                raise IngestError(f"{where(lineno)}: bad ordinal {ordinal!r}") from None
        instance_id = record.get(id_key)
        if instance_id is None:
            instance_id = f"line-{lineno}"
        elif type(instance_id) is not str:
            instance_id = _key_text(instance_id, "id", where(lineno))
        hypothesis = record[hypothesis_key]
        if type(hypothesis) is not str:  # a TSV cell always is one
            raise IngestError(f"{where(lineno, instance_id)}: hypothesis is not a string")
        if not hypothesis:
            raise IngestError(f"{where(lineno, instance_id)}: empty hypothesis")
        if ordinal is not None and not 1 <= ordinal <= 5:
            raise IngestError(f"{where(lineno, instance_id)}: ordinal {ordinal} outside [1, 5]")
        premise = record[premise_key]
        premises.append(premise if type(premise) is str
                        else _join_premise(premise, where(lineno, instance_id)))
        hypotheses.append(hypothesis)
        labels.append(scheme.index(JOCI_ORDINAL_TO_LABEL[ordinal]) if remap_ordinal
                      else label)
        ids.append(instance_id)
        group = record.get(group_key)
        groups.append(group if group is None or type(group) is str
                      else _key_text(group, "group", where(lineno, instance_id)))
        ordinals.append(ordinal)
    return Corpus(premises, hypotheses, np.array(labels, dtype=np.int64), ids, groups,
                  ordinals), skipped


def _parse_json_line(line):
    record = parse_json(line)
    if not isinstance(record, dict):
        raise IngestError("record is not an object")
    return record


def read_jsonl(path, roles: RoleMap, scheme: LabelScheme, remap_ordinal: bool = False):
    """Read a JSONL corpus file whose roles are record keys.

    Returns (corpus, skipped) where skipped counts lines whose label is
    absent from the scheme (e.g. the "-" no-consensus marker). With
    remap_ordinal the label is the 1-5 ordinal by JOCI_ORDINAL_TO_LABEL on
    the THREE_WAY names, which the scheme must have, whatever the label
    field says or whether there is one; lines without an ordinal are
    skipped. Malformed lines raise IngestError with the line number, as
    does a kept record whose hypothesis is not a string, whose premise is
    neither a string nor a list of strings (joined by single spaces), or
    whose group or id is neither a string nor an integer; a record missing
    a mandatory mapped key raises ConfigError.
    """
    return _read(path, roles, scheme, _parse_json_line, remap_ordinal)


def read_tsv(path, roles: RoleMap, scheme: LabelScheme, remap_ordinal: bool = False):
    """Read a TSV corpus file whose roles are column indices. Tab is the
    only delimiter; no quoting.

    Returns (corpus, skipped) as read_jsonl. Rows narrower than the role
    map raise IngestError with the line number.
    """
    width = 1 + max((c for c in vars(roles).values() if c is not None), default=-1)

    def parse(line):
        cells = line.rstrip("\n").split("\t")
        if len(cells) < width:
            raise IngestError(f"{len(cells)} columns, need {width}")
        return dict(enumerate(cells))

    return _read(path, roles, scheme, parse, remap_ordinal)


def write_jsonl(data: Corpus, path, scheme: LabelScheme) -> None:
    """Write a corpus atomically using the native record keys and the
    scheme's label names (round-trips read_jsonl)."""
    with atomic_open(path) as fh:
        for premise, hypothesis, label, instance_id, group, ordinal in zip(
                data.premises, data.hypotheses, data.labels.tolist(), data.ids, data.groups,
                data.ordinals):
            record = {"premise": premise, "hypothesis": hypothesis,
                      "label": scheme.names[label]}
            if group is not None:
                record["group"] = group
            if ordinal is not None:
                record["ordinal"] = ordinal
            record["id"] = instance_id
            fh.write((json.dumps(record, ensure_ascii=False) + "\n").encode("utf-8"))


def check_ratios(ratios) -> tuple:
    """ratios, when random_split takes them; ConfigError otherwise."""
    # a comparison with nan is False, so nan fails; each ratio <= 1 also rules out inf
    if (len(ratios) != 3 or not all(0.0 <= r <= 1.0 for r in ratios)
            or abs(sum(ratios) - 1.0) > 1e-9):
        raise ConfigError(f"ratios {ratios} are not three non-negative train, dev "
                          f"and test shares that sum to 1", "ratios")
    return ratios


def random_split(data: Corpus, ratios, seed: int):
    """Partition a corpus into (train, dev, test) corpora at the given ratios.

    The ratios are three finite, non-negative numbers that sum to 1. Sizes
    are floor-based with the remainder assigned to train; the split is a
    deterministic function of the seed. For n=103 at 80:10:10 this yields
    (83, 10, 10).
    """
    if not len(data):
        raise ValueError("cannot split an empty corpus")
    check_ratios(ratios)
    n = len(data)
    n_dev, n_test = int(n * ratios[1]), int(n * ratios[2])
    n_train = n - n_dev - n_test
    order = np.random.default_rng(seed).permutation(n)
    parts = np.split(order, [n_train, n_train + n_dev])
    return tuple(data.take(part) for part in parts)


def majority_label(labels) -> int:
    """The most frequent of the given label indices; ties break to the
    lowest index."""
    if not len(labels):
        raise ValueError("majority_label needs a nonempty label list")
    return int(np.bincount(labels).argmax())
