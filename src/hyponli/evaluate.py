"""Accuracy metrics, gap reports, breakdowns, and audit sampling.

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

from .corpus import Label, majority_label
from .model import Prediction


def fmt2(value: float | None) -> str:
    """Two decimals, ties away from zero; None renders as 'n/a'."""
    if value is None:
        return "n/a"
    quantized = decimal.Decimal(repr(value)).quantize(
        decimal.Decimal("0.01"), rounding=decimal.ROUND_HALF_UP)
    return str(quantized)


def _labels_of(predictions) -> list[Label]:
    return [p.label if isinstance(p, Prediction) else p for p in predictions]


def accuracy(predictions, gold) -> float:
    """Percentage of predictions matching gold labels."""
    if len(predictions) != len(gold):
        raise ValueError("predictions and gold have different lengths")
    if not gold:
        raise ValueError("cannot score empty inputs")
    labels = _labels_of(predictions)
    hits = sum(1 for p, g in zip(labels, gold) if p == g)
    return 100.0 * hits / len(gold)


def delta_report(hyp_acc: float, maj_acc: float):
    """(absolute delta, relative delta %); the relative delta is None when
    the majority accuracy is zero."""
    if maj_acc < 0:
        raise ValueError("majority accuracy cannot be negative")
    abs_delta = hyp_acc - maj_acc
    pct_delta = 100.0 * abs_delta / maj_acc if maj_acc > 0 else None
    return abs_delta, pct_delta


def per_class_accuracy(predictions, gold) -> dict[Label, float]:
    """Accuracy restricted to each gold class; absent classes omitted."""
    if len(predictions) != len(gold):
        raise ValueError("predictions and gold have different lengths")
    labels = _labels_of(predictions)
    totals: dict[Label, int] = {}
    hits: dict[Label, int] = {}
    for p, g in zip(labels, gold):
        totals[g] = totals.get(g, 0) + 1
        if p == g:
            hits[g] = hits.get(g, 0) + 1
    return {g: 100.0 * hits.get(g, 0) / totals[g]
            for g in sorted(totals, key=lambda lab: lab.index)}


def per_group_accuracy(predictions, gold, groups, mode: str = "within",
                       train_majority: Label | None = None):
    """Per-group (hyp_acc, maj_acc, pct_delta).

    The majority label defaults to each group's own gold mode ("within");
    mode="global" scores the supplied train majority inside every group.
    """
    if mode not in ("within", "global"):
        raise ValueError("mode must be 'within' or 'global'")
    if mode == "global" and train_majority is None:
        raise ValueError("global mode needs a train_majority label")
    if not len(predictions) == len(gold) == len(groups):
        raise ValueError("predictions, gold, and groups must align")
    labels = _labels_of(predictions)
    members: dict[str, list[int]] = {}
    for i, key in enumerate(groups):
        members.setdefault(key, []).append(i)
    out = {}
    for key, idxs in members.items():
        grp_gold = [gold[i] for i in idxs]
        grp_pred = [labels[i] for i in idxs]
        hyp = accuracy(grp_pred, grp_gold)
        maj_label = majority_label(grp_gold) if mode == "within" else train_majority
        maj = 100.0 * sum(1 for g in grp_gold if g == maj_label) / len(grp_gold)
        _, pct = delta_report(hyp, maj)
        out[key] = (hyp, maj, pct)
    return out


def constant_prediction_check(predictions) -> bool:
    """True iff every predicted label is identical."""
    labels = _labels_of(predictions)
    if not labels:
        raise ValueError("no predictions to check")
    return all(lab == labels[0] for lab in labels)


@dataclass
class ConfusionSample:
    """Stratified ids per (gold, predicted) cell, each cell capped at
    n_per_cell and drawn without replacement."""
    cells: dict[tuple[Label, Label], list[str]]
    n_per_cell: int
    seed: int


def confusion_sample(predictions, gold, instance_ids, n_per_cell: int,
                     seed: int) -> ConfusionSample:
    """Deterministic stratified sample for manual audits; with 2 labels and
    n_per_cell=50 the total is at most 200."""
    if n_per_cell < 1:
        raise ValueError("n_per_cell must be >= 1")
    if not len(predictions) == len(gold) == len(instance_ids):
        raise ValueError("predictions, gold, and instance_ids must align")
    labels = _labels_of(predictions)
    members: dict[tuple[Label, Label], list[str]] = {}
    for pred, g, iid in zip(labels, gold, instance_ids):
        members.setdefault((g, pred), []).append(iid)
    rng = np.random.default_rng(seed)
    cells = {}
    for key in sorted(members, key=lambda k: (k[0].index, k[1].index)):
        ids = members[key]
        if len(ids) > n_per_cell:
            chosen = rng.choice(len(ids), size=n_per_cell, replace=False)
            cells[key] = [ids[i] for i in sorted(chosen)]
        else:
            cells[key] = list(ids)
    return ConfusionSample(cells=cells, n_per_cell=n_per_cell, seed=seed)


def confusion_sample_text(sample: ConfusionSample, instances_by_id) -> str:
    """One tab-separated row per sampled id (id, gold, predicted,
    hypothesis), grouped by cell, for manual annotation."""
    lines = []
    for (gold, pred), ids in sample.cells.items():
        lines.append(f"# cell gold={gold.name} predicted={pred.name} n={len(ids)}")
        for iid in ids:
            inst = instances_by_id[iid]
            lines.append(f"{iid}\t{gold.name}\t{pred.name}\t{inst.hypothesis}")
    return "\n".join(lines) + "\n"


@dataclass
class EvalReport:
    split: str
    hyp_only_acc: float
    maj_acc: float
    abs_delta: float
    pct_delta: float | None
    per_class: dict[Label, tuple[float, float]]
    constant_prediction: bool
    per_group: dict[str, tuple[float, float, float | None]] | None = None
    maj_label: str = ""
    split_mode_acc: float | None = None  # eval split's own most-frequent-class rate
    notes: list[str] = field(default_factory=list)


def build_report(split_name: str, predictions, instances,
                 train_majority: Label) -> EvalReport:
    """Assemble the gap report for one split.

    MAJ defaults to the train-majority label scored on the split; when the
    split's own most frequent class differs, both rates are included and
    the discrepancy is noted rather than resolved.
    """
    gold = [inst.label for inst in instances]
    hyp = accuracy(predictions, gold)
    maj_hits = sum(1 for g in gold if g == train_majority)
    maj = 100.0 * maj_hits / len(gold)
    split_mode = majority_label(gold)
    split_mode_acc = 100.0 * sum(1 for g in gold if g == split_mode) / len(gold)
    abs_delta, pct_delta = delta_report(hyp, maj)
    class_hyp = per_class_accuracy(predictions, gold)
    totals: dict[Label, int] = {}
    for g in gold:
        totals[g] = totals.get(g, 0) + 1
    per_class = {lab: (class_hyp[lab], 100.0 * totals[lab] / len(gold))
                 for lab in class_hyp}
    per_group = None
    groups = [inst.group_key for inst in instances]
    if any(g is not None for g in groups):
        keyed = [(p, g, k) for p, g, k in zip(_labels_of(predictions), gold, groups)
                 if k is not None]
        per_group = per_group_accuracy([p for p, _, _ in keyed],
                                       [g for _, g, _ in keyed],
                                       [k for _, _, k in keyed])
    notes = []
    if split_mode != train_majority:
        notes.append(
            f"train-majority label {train_majority.name!r} is not the split's own "
            f"most frequent class ({split_mode.name!r}, {fmt2(split_mode_acc)}); "
            f"MAJ above uses the train majority"
        )
    return EvalReport(
        split=split_name,
        hyp_only_acc=hyp,
        maj_acc=maj,
        abs_delta=abs_delta,
        pct_delta=pct_delta,
        per_class=per_class,
        constant_prediction=constant_prediction_check(predictions),
        per_group=per_group,
        maj_label=train_majority.name,
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
        out.append(f"- majority label: {rep.maj_label}")
        out.append(f"- constant prediction: {rep.constant_prediction}")
        for note in rep.notes:
            out.append(f"- note: {note}")
        out.append("")
        out.append("| Class | Hyp-Only | MAJ |")
        out.append("| --- | --- | --- |")
        for lab, (h, m) in rep.per_class.items():
            out.append(f"| {lab.name} | {fmt2(h)} | {fmt2(m)} |")
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
        for lab, (h, m) in rep.per_class.items():
            writer.writerow([rep.split, "class", lab.name, fmt2(h), fmt2(m), "", "", ""])
        if rep.per_group:
            for key in sorted(rep.per_group):
                h, m, pct = rep.per_group[key]
                writer.writerow([rep.split, "group", key, fmt2(h), fmt2(m), "",
                                 fmt2(pct), ""])
    return buf.getvalue()
