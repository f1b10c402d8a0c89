"""Corpus ingestion, label schemes, and split management for NLI-style data.

Datasets arrive as JSONL (one record per line, UTF-8) or TSV (tab
delimited, no quoting). Field maps translate whatever keys a file uses
into the native roles premise / hypothesis / label / group / ordinal / id.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .util import atomic_open


class IngestError(ValueError):
    """A data line that cannot be parsed into an instance."""


class ConfigError(ValueError):
    """A field map, column spec, or scheme that does not match the data."""


@dataclass(frozen=True)
class Label:
    name: str
    index: int

    def __post_init__(self):
        if not self.name:
            raise ConfigError("label name must be nonempty")
        if self.index < 0:
            raise ConfigError("label index must be nonnegative")


@dataclass(frozen=True)
class LabelScheme:
    """An ordered set of 2 or 3 class labels."""

    labels: tuple[Label, ...]
    scheme_id: str

    def __post_init__(self):
        if not 2 <= len(self.labels) <= 3:
            raise ConfigError(f"scheme {self.scheme_id!r} must have 2 or 3 labels")
        names = [lab.name for lab in self.labels]
        if len(set(names)) != len(names):
            raise ConfigError(f"scheme {self.scheme_id!r} has duplicate label names")
        if [lab.index for lab in self.labels] != list(range(len(self.labels))):
            raise ConfigError(f"scheme {self.scheme_id!r} indices must be 0..n-1 in order")

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, name: str) -> bool:
        return any(lab.name == name for lab in self.labels)

    def by_name(self, name: str) -> Label:
        for lab in self.labels:
            if lab.name == name:
                return lab
        raise KeyError(f"label {name!r} not in scheme {self.scheme_id!r}")

    def by_index(self, index: int) -> Label:
        return self.labels[index]

    @property
    def names(self) -> list[str]:
        return [lab.name for lab in self.labels]


THREE_WAY = LabelScheme(
    (Label("entailment", 0), Label("neutral", 1), Label("contradiction", 2)), "3way"
)
TWO_WAY = LabelScheme((Label("entailed", 0), Label("not-entailed", 1)), "2way")

SCHEME_PRESETS = {"3way": THREE_WAY, "2way": TWO_WAY}


@dataclass(frozen=True)
class NLIInstance:
    """One premise/hypothesis/label record.

    The premise may span multiple sentences (it is storage only; nothing
    downstream of ingestion reads it). group_key carries e.g. a proto-role
    property name; ordinal carries a 1-5 likelihood rating when present.
    """

    premise: str
    hypothesis: str
    label: Label
    instance_id: str
    group_key: str | None = None
    ordinal: int | None = None

    def __post_init__(self):
        if not self.hypothesis:
            raise IngestError(f"instance {self.instance_id!r}: empty hypothesis")
        if self.ordinal is not None and not 1 <= self.ordinal <= 5:
            raise IngestError(
                f"instance {self.instance_id!r}: ordinal {self.ordinal} outside [1, 5]"
            )


@dataclass
class Dataset:
    """Named splits over one label scheme. Treat as immutable once built."""

    name: str
    scheme: LabelScheme
    splits: dict[str, list[NLIInstance]]

    def split(self, name: str) -> list[NLIInstance]:
        return self.splits[name]


@dataclass(frozen=True)
class FieldMap:
    """Record keys holding each role in a JSONL file."""

    premise: str
    hypothesis: str
    label: str
    group: str | None = None
    ordinal: str | None = None
    id: str | None = None


@dataclass(frozen=True)
class ColumnSpec:
    """Column indices holding each role in a TSV file."""

    premise: int
    hypothesis: int
    label: int
    group: int | None = None
    ordinal: int | None = None
    id: int | None = None

    def required_width(self) -> int:
        cols = [self.premise, self.hypothesis, self.label, self.group, self.ordinal, self.id]
        return max(c for c in cols if c is not None) + 1


FIELD_MAP_PRESETS = {
    "native": FieldMap("premise", "hypothesis", "label",
                       group="group", ordinal="ordinal", id="id"),
    "snli": FieldMap("sentence1", "sentence2", "gold_label"),
}


def _join_premise(value) -> str:
    # Multi-caption premises (lists) are stored joined by single spaces.
    if isinstance(value, list):
        return " ".join(str(v) for v in value)
    return str(value)


def _build_instance(premise, hypothesis, label_name, scheme, group, ordinal, instance_id):
    return NLIInstance(
        premise=premise,
        hypothesis=hypothesis,
        label=scheme.by_name(label_name),
        instance_id=instance_id,
        group_key=group,
        ordinal=ordinal,
    )


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


def read_jsonl(path, field_map: FieldMap, scheme: LabelScheme):
    """Read a JSONL corpus file.

    Returns (instances, skipped) where skipped counts lines whose label is
    absent from the scheme (e.g. the "-" no-consensus marker). Malformed
    lines raise IngestError with the line number; a record missing a
    mandatory mapped key raises ConfigError.
    """
    instances: list[NLIInstance] = []
    skipped = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in _numbered_lines(fh, path):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
                reason = getattr(exc, "msg", exc)
                raise IngestError(f"{path}: line {lineno}: invalid JSON ({reason})") from exc
            if not isinstance(record, dict):
                raise IngestError(f"{path}: line {lineno}: record is not an object")
            for role in ("premise", "hypothesis", "label"):
                key = getattr(field_map, role)
                if key not in record:
                    raise ConfigError(
                        f"{path}: line {lineno}: no field {key!r} for role {role!r}"
                    )
            label_name = str(record[field_map.label])
            if label_name not in scheme:
                skipped += 1
                continue
            group = None
            if field_map.group is not None and record.get(field_map.group) is not None:
                group = str(record[field_map.group])
            ordinal = None
            if field_map.ordinal is not None and record.get(field_map.ordinal) is not None:
                try:
                    ordinal = int(record[field_map.ordinal])
                except (TypeError, ValueError, OverflowError) as exc:
                    raise IngestError(f"{path}: line {lineno}: bad ordinal") from exc
            if field_map.id is not None and record.get(field_map.id) is not None:
                instance_id = str(record[field_map.id])
            else:
                instance_id = f"line-{lineno}"
            try:
                instances.append(_build_instance(
                    _join_premise(record[field_map.premise]),
                    str(record[field_map.hypothesis]),
                    label_name, scheme, group, ordinal, instance_id,
                ))
            except IngestError as exc:
                raise IngestError(f"{path}: line {lineno}: {exc}") from exc
    return instances, skipped


def read_tsv(path, columns: ColumnSpec, scheme: LabelScheme):
    """Read a TSV corpus file. Tab is the only delimiter; no quoting.

    Returns (instances, skipped) as read_jsonl. Rows narrower than the
    column spec raise IngestError with the line number.
    """
    instances: list[NLIInstance] = []
    skipped = 0
    width = columns.required_width()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in _numbered_lines(fh, path):
            if not line.strip():
                continue
            cells = line.rstrip("\n").split("\t")
            if len(cells) < width:
                raise IngestError(
                    f"{path}: line {lineno}: {len(cells)} columns, need {width}"
                )
            label_name = cells[columns.label]
            if label_name not in scheme:
                skipped += 1
                continue
            group = cells[columns.group] if columns.group is not None else None
            ordinal = None
            if columns.ordinal is not None:
                try:
                    ordinal = int(cells[columns.ordinal])
                except ValueError as exc:
                    raise IngestError(f"{path}: line {lineno}: bad ordinal") from exc
            if columns.id is not None:
                instance_id = cells[columns.id]
            else:
                instance_id = f"line-{lineno}"
            try:
                instances.append(_build_instance(
                    cells[columns.premise], cells[columns.hypothesis],
                    label_name, scheme, group, ordinal, instance_id,
                ))
            except IngestError as exc:
                raise IngestError(f"{path}: line {lineno}: {exc}") from exc
    return instances, skipped


def write_jsonl(instances, path) -> None:
    """Write instances atomically using the native record keys (round-trips
    read_jsonl)."""
    with atomic_open(path) as fh:
        for inst in instances:
            record = {
                "premise": inst.premise,
                "hypothesis": inst.hypothesis,
                "label": inst.label.name,
            }
            if inst.group_key is not None:
                record["group"] = inst.group_key
            if inst.ordinal is not None:
                record["ordinal"] = inst.ordinal
            record["id"] = inst.instance_id
            fh.write((json.dumps(record, ensure_ascii=False) + "\n").encode("utf-8"))


JOCI_ORDINAL_TO_LABEL = {1: "contradiction", 2: "neutral", 3: "neutral",
                         4: "neutral", 5: "entailment"}


def remap_joci_ordinal(instances) -> list[NLIInstance]:
    """Map 1-5 ordinal ratings onto the 3-way scheme.

    1 becomes contradiction, 2-4 neutral, 5 entailment. The ordinal is
    retained, so the operation is idempotent on its own output.
    """
    out = []
    for inst in instances:
        if inst.ordinal is None:
            raise IngestError(f"instance {inst.instance_id!r}: no ordinal to remap")
        out.append(replace(inst, label=THREE_WAY.by_name(JOCI_ORDINAL_TO_LABEL[inst.ordinal])))
    return out


def random_split(instances, scheme: LabelScheme, ratios=(0.8, 0.1, 0.1),
                 seed: int = 0) -> Dataset:
    """Partition instances into train/dev/test at the given ratios.

    The ratios are three finite, non-negative numbers that sum to 1. Sizes
    are floor-based with the remainder assigned to train; the split is a
    deterministic function of the seed. For n=103 at 80:10:10 this yields
    (83, 10, 10).
    """
    if not instances:
        raise ValueError("cannot split an empty instance list")
    # a comparison with nan is False, so nan fails; each ratio <= 1 also rules out inf
    if (len(ratios) != 3 or not all(0.0 <= r <= 1.0 for r in ratios)
            or abs(sum(ratios) - 1.0) > 1e-9):
        raise ValueError(f"ratios {ratios} are not three non-negative train, dev "
                         f"and test shares that sum to 1")
    n = len(instances)
    n_train = int(n * ratios[0])
    n_dev = int(n * ratios[1])
    n_test = int(n * ratios[2])
    n_train += n - (n_train + n_dev + n_test)
    order = np.random.default_rng(seed).permutation(n)
    pick = lambda idxs: [instances[i] for i in idxs]
    return Dataset(
        name="split",
        scheme=scheme,
        splits={
            "train": pick(order[:n_train]),
            "dev": pick(order[n_train:n_train + n_dev]),
            "test": pick(order[n_train + n_dev:]),
        },
    )


def majority_label(labels) -> Label:
    """The most frequent of the given labels; ties break to the lowest index."""
    if not labels:
        raise ValueError("majority_label needs a nonempty label list")
    counts: dict[Label, int] = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    best = None
    for label in sorted(counts, key=lambda lab: lab.index):
        if best is None or counts[label] > counts[best]:
            best = label
    return best
