"""Accuracy metrics, gap reports, breakdowns, and audit sampling.

Predicted and gold labels are int arrays of label indices (gold is a
corpus's label column, and groups its group column), and reports key
their classes by index; label names are looked up in the scheme only
where text is written. Every breakdown of a report (per class, per
group, the split's mode, whether the predictions are constant) is read
off (gold, predicted) confusion tables, one per group, from one np.bincount.
Reported gaps follow the hyp-only-vs-majority convention: the absolute
delta in percentage points and the relative delta as a percentage of the
majority accuracy. Formatted values round half away from zero to two
decimals.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass

import numpy as np

from .corpus import LabelScheme
from .util import ConfigError, config_block, csv_text, markdown_table


def fmt2(value: float | None) -> str:
    """Two decimals, ties away from zero; None renders as 'n/a'."""
    if value is None:
        return "n/a"
    quantized = decimal.Decimal(repr(value)).quantize(
        decimal.Decimal("0.01"), rounding=decimal.ROUND_HALF_UP)
    return str(quantized)


def _aligned(*arrays) -> list[np.ndarray]:
    out = [np.asarray(a) for a in arrays]
    if len({len(a) for a in out}) != 1:
        raise ValueError(f"inputs have different lengths {[len(a) for a in out]}")
    return out


def accuracy(pred, gold) -> float:
    """Percentage of predicted label indices matching gold."""
    pred, gold = _aligned(pred, gold)
    if not gold.size:
        raise ValueError("cannot score empty inputs")
    return 100.0 * int(np.count_nonzero(pred == gold)) / gold.size


def delta_report(hyp_acc: float, maj_acc: float):
    """(absolute delta, relative delta %); the relative delta is None when
    the majority accuracy is zero."""
    if maj_acc < 0:
        raise ValueError("majority accuracy cannot be negative")
    abs_delta = hyp_acc - maj_acc
    pct_delta = 100.0 * abs_delta / maj_acc if maj_acc > 0 else None
    return abs_delta, pct_delta


def check_n_per_cell(n_per_cell: int) -> int:
    """n_per_cell, when confusion_sample takes it; ConfigError otherwise."""
    if n_per_cell < 1:
        raise ConfigError("n_per_cell must be >= 1", "n_per_cell")
    return n_per_cell


def confusion_sample(pred, gold, n_per_cell: int,
                     seed: int) -> dict[tuple[int, int], list[int]]:
    """Deterministic stratified sample for manual audits: the row positions
    of each (gold, predicted) label-index cell, each cell capped at
    n_per_cell and drawn without replacement. With 2 labels and
    n_per_cell=50 the total is at most 200.

    Cells are visited in (gold, predicted) index order and keep the input
    order of their rows; each over-full cell takes one rng.choice draw.
    """
    check_n_per_cell(n_per_cell)
    pred, gold = _aligned(pred, gold)
    rng = np.random.default_rng(seed)
    cells = {}
    for g, p in sorted(set(zip(gold.tolist(), pred.tolist()))):
        members = np.flatnonzero((gold == g) & (pred == p))
        if members.size > n_per_cell:
            members = members[np.sort(rng.choice(members.size, size=n_per_cell,
                                                 replace=False))]
        cells[g, p] = members.tolist()
    return cells


_FIELD_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"})


def confusion_sample_text(cells: dict[tuple[int, int], list[int]], scheme: LabelScheme,
                          instance_ids, hypotheses) -> str:
    """One tab-separated row per sampled row (id, gold, predicted,
    hypothesis), grouped by cell, for manual annotation; ids and
    hypotheses are indexed by row position. Each field writes a backslash,
    tab, LF and CR as \\\\, \\t, \\n and \\r, so a row is one line of four fields."""
    lines = []
    for (gold, pred), rows in cells.items():
        gold_name, pred_name = scheme.names[gold], scheme.names[pred]
        lines.append(f"# cell gold={gold_name} predicted={pred_name} n={len(rows)}")
        for i in rows:
            fields = (instance_ids[i], gold_name, pred_name, hypotheses[i])
            lines.append("\t".join(str(field).translate(_FIELD_ESCAPES) for field in fields))
    return "\n".join(lines) + "\n"


@dataclass
class EvalReport:
    split: str
    scheme: LabelScheme
    hyp_only_acc: float
    maj_acc: float
    abs_delta: float
    pct_delta: float | None
    per_class: dict[int, tuple[float, float]]  # label index -> (hyp-only, class share)
    constant_prediction: bool
    maj_label: int  # the train-majority label index
    per_group: dict[str, tuple[float, float, float | None]]  # key -> (hyp-only, MAJ, pct delta)
    notes: list[str]


def build_report(split_name: str, pred, gold, groups, scheme: LabelScheme,
                 train_majority: int) -> EvalReport:
    """Assemble the gap report for one split from its predicted and gold
    label indices and its group column (None where a row has no group).

    Every rate is read off (gold, predicted) confusion tables, one per
    group and one for the rows without a group, from a single np.bincount
    over (group, gold, predicted) keys; the split's table is their sum.
    MAJ defaults to the train-majority label index scored on the split;
    when the split's own most frequent class (lowest index on ties)
    differs, the note gives its rate rather than resolving the
    discrepancy. A group's MAJ scores the group's own most frequent gold
    class.
    """
    pred, gold, groups = _aligned(pred, gold, groups)
    n, n_labels = gold.size, len(scheme)
    if not n:
        raise ValueError("cannot score empty inputs")
    if min(pred.min(), gold.min()) < 0 or max(pred.max(), gold.max()) >= n_labels:
        raise ValueError(f"label indices outside the {n_labels} labels of the scheme")
    keyed = np.array([k is not None for k in groups], dtype=bool)
    keys, member = np.unique(groups[keyed], return_inverse=True)
    slot = np.full(n, keys.size)  # the rows without a group share the last slot
    slot[keyed] = member
    tables = np.bincount((slot * n_labels + gold) * n_labels + pred,
                         minlength=(keys.size + 1) * n_labels * n_labels
                         ).reshape(keys.size + 1, n_labels, n_labels)
    table = tables.sum(axis=0)
    totals = table.sum(axis=1)
    hyp = 100.0 * int(np.trace(table)) / n
    maj = 100.0 * int(totals[train_majority]) / n
    abs_delta, pct_delta = delta_report(hyp, maj)
    per_class = {c: (100.0 * int(table[c, c]) / int(totals[c]), 100.0 * int(totals[c]) / n)
                 for c in np.flatnonzero(totals).tolist()}
    per_group = {}
    for key, t in zip(keys.tolist(), tables[:-1]):
        size = int(t.sum())
        group_hyp = 100.0 * int(np.trace(t)) / size
        group_maj = 100.0 * int(t.sum(axis=1).max()) / size
        per_group[key] = (group_hyp, group_maj, delta_report(group_hyp, group_maj)[1])
    split_mode = int(totals.argmax())
    notes = []
    if split_mode != train_majority:
        notes.append(
            f"train-majority label {scheme.names[train_majority]!r} is not the split's own "
            f"most frequent class ({scheme.names[split_mode]!r}, "
            f"{fmt2(100.0 * int(totals[split_mode]) / n)}); MAJ above uses the train majority"
        )
    return EvalReport(
        split=split_name,
        scheme=scheme,
        hyp_only_acc=hyp,
        maj_acc=maj,
        abs_delta=abs_delta,
        pct_delta=pct_delta,
        per_class=per_class,
        constant_prediction=bool(np.count_nonzero(table.sum(axis=0)) == 1),
        maj_label=train_majority,
        per_group=per_group,
        notes=notes,
    )


def report_markdown(reports: list[EvalReport], config_lines: list[str] | None = None) -> str:
    """Human-readable report shaped like the accuracy table."""
    out = ["# Hypothesis-only evaluation", ""]
    out += markdown_table(["Split", "Hyp-Only", "MAJ", "abs delta", "pct delta"],
                          ([rep.split, *map(fmt2, (rep.hyp_only_acc, rep.maj_acc,
                                                   rep.abs_delta, rep.pct_delta))]
                           for rep in reports))
    for rep in reports:
        names = rep.scheme.names
        out += ["", f"## {rep.split}", "",
                f"- majority label: {names[rep.maj_label]}",
                f"- constant prediction: {rep.constant_prediction}"]
        out += [f"- note: {note}" for note in rep.notes]
        out += ["", *markdown_table(["Class", "Hyp-Only", "MAJ"],
                                    ([names[label], fmt2(h), fmt2(m)]
                                     for label, (h, m) in rep.per_class.items()))]
        if rep.per_group:
            rows = sorted(rep.per_group.items(),
                          key=lambda kv: (kv[1][2] is None, -(kv[1][2] or 0.0), kv[0]))
            out += ["", *markdown_table(["Group", "Hyp-Only", "MAJ", "pct delta"],
                                        ([key, *map(fmt2, values)] for key, values in rows))]
    if config_lines:
        out += ["", *config_block(config_lines)]
    return "\n".join(out) + "\n"


def report_csv(reports: list[EvalReport]) -> str:
    """Machine-readable rows: one per split plus one per class and group."""
    rows = []
    for rep in reports:
        rows.append([rep.split, "overall", "", fmt2(rep.hyp_only_acc), fmt2(rep.maj_acc),
                     fmt2(rep.abs_delta), fmt2(rep.pct_delta),
                     str(rep.constant_prediction).lower()])
        rows += [[rep.split, "class", rep.scheme.names[label], fmt2(h), fmt2(m), "", "", ""]
                 for label, (h, m) in rep.per_class.items()]
        for key in sorted(rep.per_group):
            h, m, pct = rep.per_group[key]
            rows.append([rep.split, "group", key, fmt2(h), fmt2(m), "", fmt2(pct), ""])
    return csv_text(["split", "scope", "key", "hyp_only", "maj", "abs_delta", "pct_delta",
                     "constant_prediction"], rows)
