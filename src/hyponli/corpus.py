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
own line parse. The reader alone decides which records are kept, by
their label field or, with remap_ordinal, by their 1-5 ordinal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .util import as_integer, atomic_open


class IngestError(ValueError):
    """A data line that cannot be parsed into a corpus row."""


class ConfigError(ValueError):
    """A role map or scheme that does not match the data."""


@dataclass(frozen=True)
class LabelScheme:
    """An ordered set of 2 or 3 class label names; label i is names[i]."""

    names: tuple[str, ...]
    scheme_id: str
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 2 <= len(self.names) <= 3:
            raise ConfigError(f"scheme {self.scheme_id!r} must have 2 or 3 labels")
        if not all(isinstance(name, str) and name for name in self.names):
            raise ConfigError(f"scheme {self.scheme_id!r} label names must be nonempty")
        if len(set(self.names)) != len(self.names):
            raise ConfigError(f"scheme {self.scheme_id!r} has duplicate label names")
        object.__setattr__(self, "_index", {name: i for i, name in enumerate(self.names)})

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        """The label index of name; KeyError when the scheme lacks it."""
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"label {name!r} not in scheme {self.scheme_id!r}") from None


THREE_WAY = LabelScheme(("entailment", "neutral", "contradiction"), "3way")
TWO_WAY = LabelScheme(("entailed", "not-entailed"), "2way")

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
    column of a TSV row. The last three roles are optional."""

    premise: str | int
    hypothesis: str | int
    label: str | int
    group: str | int | None = None
    ordinal: str | int | None = None
    id: str | int | None = None


FIELD_MAP_PRESETS = {
    "native": RoleMap("premise", "hypothesis", "label",
                      group="group", ordinal="ordinal", id="id"),
    "snli": RoleMap("sentence1", "sentence2", "gold_label"),
}


def _join_premise(value) -> str:
    # Multi-caption premises (lists) are stored joined by single spaces.
    if isinstance(value, list):
        return " ".join(str(v) for v in value)
    return str(value)


def _numbered_lines(fh, path):
    """(line number, line) pairs of a file opened as UTF-8 text. A byte
    sequence that is not UTF-8 raises IngestError naming its line."""
    try:
        yield from enumerate(fh, start=1)
    except UnicodeDecodeError as exc:
        # text files decode in chunks, so a second pass finds the line;
        # surrogateescape turns each undecodable byte into U+DC80..U+DCFF
        with open(path, encoding="utf-8", errors="surrogateescape") as again:
            lineno = next((n for n, line in enumerate(again, start=1)
                           if any("\udc80" <= ch <= "\udcff" for ch in line)), "?")
        raise IngestError(f"{path}: line {lineno}: not UTF-8 ({exc.reason})") from exc


def _read(path, roles: RoleMap, scheme: LabelScheme, parse, remap_ordinal: bool):
    """The reader behind read_jsonl and read_tsv. parse(line, roles, where)
    turns one nonblank line into a mapping from the keys of roles to
    values; an optional role whose value is None, or that roles leaves
    unset, takes its default. A record that lacks a mandatory role (the
    premise, the hypothesis, and the label unless remap_ordinal is set)
    raises ConfigError."""
    premises, hypotheses, labels, ids, groups, ordinals = [], [], [], [], [], []
    mandatory = ("premise", "hypothesis") + (() if remap_ordinal else ("label",))
    skipped = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in _numbered_lines(fh, path):
            if not line.strip():
                continue
            where = f"{path}: line {lineno}"
            record = parse(line, roles, where)
            for role in mandatory:
                key = getattr(roles, role)
                if key not in record:
                    raise ConfigError(f"{where}: no field {key!r} for role {role!r}")
            # an unset role is None, which is never a key of a record
            group, ordinal, instance_id = (record.get(roles.group), record.get(roles.ordinal),
                                           record.get(roles.id))
            label_field = None if remap_ordinal else str(record[roles.label])
            # the label source: the ordinal with remap_ordinal, else the label field
            if (ordinal is None) if remap_ordinal else (label_field not in scheme.names):
                skipped += 1
                continue
            if ordinal is not None:
                try:
                    ordinal = as_integer(ordinal)
                except ValueError:
                    raise IngestError(f"{where}: bad ordinal {ordinal!r}") from None
            instance_id = f"line-{lineno}" if instance_id is None else str(instance_id)
            hypothesis = str(record[roles.hypothesis])
            if not hypothesis:
                raise IngestError(f"{where}: instance {instance_id!r}: empty hypothesis")
            if ordinal is not None and not 1 <= ordinal <= 5:
                raise IngestError(f"{where}: instance {instance_id!r}: ordinal {ordinal} "
                                  f"outside [1, 5]")
            name = JOCI_ORDINAL_TO_LABEL[ordinal] if remap_ordinal else label_field
            premises.append(_join_premise(record[roles.premise]))
            hypotheses.append(hypothesis)
            labels.append(scheme.index(name))
            ids.append(instance_id)
            groups.append(None if group is None else str(group))
            ordinals.append(ordinal)
    return Corpus(premises, hypotheses, np.array(labels, dtype=np.int64), ids, groups,
                  ordinals), skipped


def _parse_json_line(line, roles, where):
    try:
        record = json.loads(line)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        reason = getattr(exc, "msg", exc)
        raise IngestError(f"{where}: invalid JSON ({reason})") from exc
    if not isinstance(record, dict):
        raise IngestError(f"{where}: record is not an object")
    return record


def _parse_tsv_line(line, roles, where):
    cells = line.rstrip("\n").split("\t")
    width = max(c for c in vars(roles).values() if c is not None) + 1
    if len(cells) < width:
        raise IngestError(f"{where}: {len(cells)} columns, need {width}")
    return dict(enumerate(cells))


def read_jsonl(path, roles: RoleMap, scheme: LabelScheme, remap_ordinal: bool = False):
    """Read a JSONL corpus file whose roles are record keys.

    Returns (corpus, skipped) where skipped counts lines whose label is
    absent from the scheme (e.g. the "-" no-consensus marker). With
    remap_ordinal the label is the 1-5 ordinal by JOCI_ORDINAL_TO_LABEL,
    whatever the label field says or whether there is one, and lines
    without an ordinal are skipped. Malformed lines raise IngestError with
    the line number; a record missing a mandatory mapped key raises
    ConfigError.
    """
    return _read(path, roles, scheme, _parse_json_line, remap_ordinal)


def read_tsv(path, roles: RoleMap, scheme: LabelScheme, remap_ordinal: bool = False):
    """Read a TSV corpus file whose roles are column indices. Tab is the
    only delimiter; no quoting.

    Returns (corpus, skipped) as read_jsonl. Rows narrower than the role
    map raise IngestError with the line number.
    """
    return _read(path, roles, scheme, _parse_tsv_line, remap_ordinal)


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


def random_split(data: Corpus, ratios=(0.8, 0.1, 0.1), seed: int = 0):
    """Partition a corpus into (train, dev, test) corpora at the given ratios.

    The ratios are three finite, non-negative numbers that sum to 1. Sizes
    are floor-based with the remainder assigned to train; the split is a
    deterministic function of the seed. For n=103 at 80:10:10 this yields
    (83, 10, 10).
    """
    if not len(data):
        raise ValueError("cannot split an empty corpus")
    # a comparison with nan is False, so nan fails; each ratio <= 1 also rules out inf
    if (len(ratios) != 3 or not all(0.0 <= r <= 1.0 for r in ratios)
            or abs(sum(ratios) - 1.0) > 1e-9):
        raise ValueError(f"ratios {ratios} are not three non-negative train, dev "
                         f"and test shares that sum to 1")
    n = len(data)
    n_train = int(n * ratios[0])
    n_dev = int(n * ratios[1])
    n_test = int(n * ratios[2])
    n_train += n - (n_train + n_dev + n_test)
    order = np.random.default_rng(seed).permutation(n)
    parts = np.split(order, [n_train, n_train + n_dev])
    return tuple(data.take(part) for part in parts)


def majority_label(labels) -> int:
    """The most frequent of the given label indices; ties break to the
    lowest index."""
    if not len(labels):
        raise ValueError("majority_label needs a nonempty label list")
    return int(np.bincount(labels).argmax())
