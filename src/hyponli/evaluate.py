"""Accuracy metrics, gap reports, breakdowns, and audit sampling.

Predicted and gold labels are int arrays of label indices (gold is a
corpus's label column, and groups its group column), and reports key
their classes by index; label names are looked up in the scheme only
where text is written. Every breakdown of a report (per class, per
group, the split's mode, whether the predictions are constant) is read
off a (gold, predicted) confusion table counted by one np.bincount.
Reported gaps follow the hyp-only-vs-majority convention: the absolute
delta in percentage points and the relative delta as a percentage of the
majority accuracy. Formatted values round half away from zero to two
decimals.
"""

from __future__ import annotations

import csv
import decimal
import io
from dataclasses import dataclass, field

import numpy as np

from .corpus import LabelScheme


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


def confusion_sample(pred, gold, n_per_cell: int,
                     seed: int) -> dict[tuple[int, int], list[int]]:
    """Deterministic stratified sample for manual audits: the row positions
    of each (gold, predicted) label-index cell, each cell capped at
    n_per_cell and drawn without replacement. With 2 labels and
    n_per_cell=50 the total is at most 200.

    Cells are visited in (gold, predicted) index order and keep the input
    order of their rows; each over-full cell takes one rng.choice draw.
    """
    if n_per_cell < 1:
        raise ValueError("n_per_cell must be >= 1")
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


def confusion_sample_text(cells: dict[tuple[int, int], list[int]], scheme: LabelScheme,
                          instance_ids, hypotheses) -> str:
    """One tab-separated row per sampled row (id, gold, predicted,
    hypothesis), grouped by cell, for manual annotation; ids and
    hypotheses are indexed by row position."""
    lines = []
    for (gold, pred), rows in cells.items():
        gold_name, pred_name = scheme.names[gold], scheme.names[pred]
        lines.append(f"# cell gold={gold_name} predicted={pred_name} n={len(rows)}")
        for i in rows:
            lines.append(f"{instance_ids[i]}\t{gold_name}\t{pred_name}\t{hypotheses[i]}")
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
    per_group: dict[str, tuple[float, float, float | None]] | None = None
    split_mode_acc: float | None = None  # eval split's own most-frequent-class rate
    notes: list[str] = field(default_factory=list)


def build_report(split_name: str, pred, gold, groups, scheme: LabelScheme,
                 train_majority: int) -> EvalReport:
    """Assemble the gap report for one split from its predicted and gold
    label indices and its group column (None where a row has no group).

    Every rate is read off (gold, predicted) confusion tables: one for the
    split, and one per group from a single np.bincount over (group, gold,
    predicted) keys. MAJ defaults to the train-majority label index scored
    on the split; when the split's own most frequent class (lowest index
    on ties) differs, both rates are included and the discrepancy is noted
    rather than resolved. A group's MAJ scores the group's own most
    frequent gold class.
    """
    pred, gold, groups = _aligned(pred, gold, groups)
    hyp = accuracy(pred, gold)  # rejects an empty split
    n, n_labels = gold.size, len(scheme)
    if min(pred.min(), gold.min()) < 0 or max(pred.max(), gold.max()) >= n_labels:
        raise ValueError(f"label indices outside the {n_labels} labels of the scheme")
    table = np.bincount(gold * n_labels + pred,
                        minlength=n_labels * n_labels).reshape(n_labels, n_labels)
    totals = table.sum(axis=1)
    maj = 100.0 * int(totals[train_majority]) / n
    split_mode = int(totals.argmax())
    split_mode_acc = 100.0 * int(totals[split_mode]) / n
    abs_delta, pct_delta = delta_report(hyp, maj)
    per_class = {c: (100.0 * int(table[c, c]) / int(totals[c]), 100.0 * int(totals[c]) / n)
                 for c in np.flatnonzero(totals).tolist()}
    per_group = None
    keyed = np.array([k is not None for k in groups], dtype=bool)
    if keyed.any():
        keys, member = np.unique(groups[keyed], return_inverse=True)
        tables = np.bincount((member * n_labels + gold[keyed]) * n_labels + pred[keyed],
                             minlength=keys.size * n_labels * n_labels)
        per_group = {}
        for key, t in zip(keys.tolist(), tables.reshape(keys.size, n_labels, n_labels)):
            size = int(t.sum())
            group_hyp = 100.0 * int(np.trace(t)) / size
            group_maj = 100.0 * int(t.sum(axis=1).max()) / size
            per_group[key] = (group_hyp, group_maj, delta_report(group_hyp, group_maj)[1])
    notes = []
    if split_mode != train_majority:
        notes.append(
            f"train-majority label {scheme.names[train_majority]!r} is not the split's own "
            f"most frequent class ({scheme.names[split_mode]!r}, "
            f"{fmt2(split_mode_acc)}); MAJ above uses the train majority"
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
        split_mode_acc=split_mode_acc,
        notes=notes,
    )


def report_markdown(reports: list[EvalReport], config_lines: list[str] | None = None) -> str:
    """Human-readable report shaped like the accuracy table."""
    out = ["# Hypothesis-only evaluation", ""]
    out.append("| Split | Hyp-Only | MAJ | abs delta | pct delta |")
    out.append("| --- | --- | --- | --- | --- |")
    for rep in reports:
        out.append(
            f"| {rep.split} | {fmt2(rep.hyp_only_acc)} | {fmt2(rep.maj_acc)} "
            f"| {fmt2(rep.abs_delta)} | {fmt2(rep.pct_delta)} |"
        )
    for rep in reports:
        out.append("")
        out.append(f"## {rep.split}")
        out.append("")
        out.append(f"- majority label: {rep.scheme.names[rep.maj_label]}")
        out.append(f"- constant prediction: {rep.constant_prediction}")
        for note in rep.notes:
            out.append(f"- note: {note}")
        out.append("")
        out.append("| Class | Hyp-Only | MAJ |")
        out.append("| --- | --- | --- |")
        for label, (h, m) in rep.per_class.items():
            out.append(f"| {rep.scheme.names[label]} | {fmt2(h)} | {fmt2(m)} |")
        if rep.per_group:
            out.append("")
            out.append("| Group | Hyp-Only | MAJ | pct delta |")
            out.append("| --- | --- | --- | --- |")
            rows = sorted(rep.per_group.items(),
                          key=lambda kv: (kv[1][2] is None,
                                          -(kv[1][2] or 0.0), kv[0]))
            for key, (h, m, pct) in rows:
                out.append(f"| {key} | {fmt2(h)} | {fmt2(m)} | {fmt2(pct)} |")
    if config_lines:
        out.append("")
        out.append("## Run configuration")
        out.append("")
        out.extend(f"    {line}" for line in config_lines)
    return "\n".join(out) + "\n"


def report_csv(reports: list[EvalReport]) -> str:
    """Machine-readable rows: one per split plus one per class and group."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["split", "scope", "key", "hyp_only", "maj", "abs_delta",
                     "pct_delta", "constant_prediction"])
    for rep in reports:
        writer.writerow([rep.split, "overall", "", fmt2(rep.hyp_only_acc),
                         fmt2(rep.maj_acc), fmt2(rep.abs_delta),
                         fmt2(rep.pct_delta), str(rep.constant_prediction).lower()])
        for label, (h, m) in rep.per_class.items():
            writer.writerow([rep.split, "class", rep.scheme.names[label], fmt2(h), fmt2(m),
                             "", "", ""])
        if rep.per_group:
            for key in sorted(rep.per_group):
                h, m, pct = rep.per_group[key]
                writer.writerow([rep.split, "group", key, fmt2(h), fmt2(m), "",
                                 fmt2(pct), ""])
    return buf.getvalue()
