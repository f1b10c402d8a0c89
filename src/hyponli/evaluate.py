"""Accuracy metrics, gap reports, breakdowns, and audit sampling.

Predicted and gold labels are int arrays of label indices; Label objects
appear only where a name is rendered. Reported gaps follow the
hyp-only-vs-majority convention: the absolute delta in percentage points
and the relative delta as a percentage of the majority accuracy. Formatted
values round half away from zero to two decimals.
"""

from __future__ import annotations

import csv
import decimal
import io
from dataclasses import dataclass, field

import numpy as np

from .corpus import Label, LabelScheme


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


def per_class_accuracy(pred, gold) -> dict[int, float]:
    """Accuracy restricted to each gold class index, in index order;
    absent classes omitted."""
    pred, gold = _aligned(pred, gold)
    totals = np.bincount(gold)
    hits = np.bincount(gold[pred == gold], minlength=totals.size)
    return {int(c): 100.0 * int(hits[c]) / int(totals[c]) for c in np.flatnonzero(totals)}


def per_group_accuracy(pred, gold, groups) -> dict[str, tuple[float, float, float | None]]:
    """Per-group (hyp_acc, maj_acc, pct_delta), where MAJ scores each
    group's own most frequent gold class."""
    pred, gold, groups = _aligned(pred, gold, groups)
    out = {}
    for key in dict.fromkeys(groups.tolist()):
        member = groups == key
        hyp = accuracy(pred[member], gold[member])
        maj = 100.0 * int(np.bincount(gold[member]).max()) / int(np.count_nonzero(member))
        out[key] = (hyp, maj, delta_report(hyp, maj)[1])
    return out


def constant_prediction_check(pred) -> bool:
    """True iff every predicted label index is identical."""
    pred = np.asarray(pred)
    if not pred.size:
        raise ValueError("no predictions to check")
    return bool((pred == pred[0]).all())


@dataclass
class ConfusionSample:
    """Stratified ids per (gold, predicted) label-index cell, each cell
    capped at n_per_cell and drawn without replacement."""
    cells: dict[tuple[int, int], list[str]]
    n_per_cell: int
    seed: int


def confusion_sample(pred, gold, instance_ids, n_per_cell: int,
                     seed: int) -> ConfusionSample:
    """Deterministic stratified sample for manual audits; with 2 labels and
    n_per_cell=50 the total is at most 200.

    Cells are visited in (gold, predicted) index order and keep the input
    order of their ids; each over-full cell takes one rng.choice draw.
    """
    if n_per_cell < 1:
        raise ValueError("n_per_cell must be >= 1")
    pred, gold = _aligned(pred, gold)
    if len(instance_ids) != gold.size:
        raise ValueError("predictions, gold, and instance_ids must align")
    rng = np.random.default_rng(seed)
    cells = {}
    for g, p in sorted(set(zip(gold.tolist(), pred.tolist()))):
        members = np.flatnonzero((gold == g) & (pred == p))
        if members.size > n_per_cell:
            members = members[np.sort(rng.choice(members.size, size=n_per_cell,
                                                 replace=False))]
        cells[g, p] = [instance_ids[i] for i in members]
    return ConfusionSample(cells=cells, n_per_cell=n_per_cell, seed=seed)


def confusion_sample_text(sample: ConfusionSample, scheme: LabelScheme,
                          instances_by_id) -> str:
    """One tab-separated row per sampled id (id, gold, predicted,
    hypothesis), grouped by cell, for manual annotation."""
    lines = []
    for (gold, pred), ids in sample.cells.items():
        gold_name, pred_name = scheme.by_index(gold).name, scheme.by_index(pred).name
        lines.append(f"# cell gold={gold_name} predicted={pred_name} n={len(ids)}")
        for iid in ids:
            inst = instances_by_id[iid]
            lines.append(f"{iid}\t{gold_name}\t{pred_name}\t{inst.hypothesis}")
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


def build_report(split_name: str, pred, instances, scheme: LabelScheme,
                 train_majority: int) -> EvalReport:
    """Assemble the gap report for one split from its predicted label
    indices.

    MAJ defaults to the train-majority label index scored on the split;
    when the split's own most frequent class (lowest index on ties)
    differs, both rates are included and the discrepancy is noted rather
    than resolved.
    """
    gold = np.array([inst.label.index for inst in instances], dtype=np.int64)
    pred, gold = _aligned(pred, gold)
    n = gold.size
    totals = np.bincount(gold, minlength=len(scheme))
    hyp = accuracy(pred, gold)
    maj = 100.0 * int(totals[train_majority]) / n
    split_mode = int(totals.argmax())
    split_mode_acc = 100.0 * int(totals[split_mode]) / n
    abs_delta, pct_delta = delta_report(hyp, maj)
    per_class = {scheme.by_index(c): (acc, 100.0 * int(totals[c]) / n)
                 for c, acc in per_class_accuracy(pred, gold).items()}
    per_group = None
    groups = [inst.group_key for inst in instances]
    keyed = np.array([k is not None for k in groups], dtype=bool)
    if keyed.any():
        per_group = per_group_accuracy(pred[keyed], gold[keyed],
                                       [k for k in groups if k is not None])
    maj_name = scheme.by_index(train_majority).name
    notes = []
    if split_mode != train_majority:
        notes.append(
            f"train-majority label {maj_name!r} is not the split's own "
            f"most frequent class ({scheme.by_index(split_mode).name!r}, "
            f"{fmt2(split_mode_acc)}); MAJ above uses the train majority"
        )
    return EvalReport(
        split=split_name,
        hyp_only_acc=hyp,
        maj_acc=maj,
        abs_delta=abs_delta,
        pct_delta=pct_delta,
        per_class=per_class,
        constant_prediction=constant_prediction_check(pred),
        per_group=per_group,
        maj_label=maj_name,
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
