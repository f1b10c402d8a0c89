"""Output checks for the benchmark's hyponli invocations.

Every expected value is computed here from the generator's token ids with
numpy, never by calling hyponli. Each check function returns a list of
problems; an empty list means the outputs are correct.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from gen import LABELS, Split

# train-eval must beat the majority class by this many points on dev and test.
MARGIN_OVER_MAJ = 15.0
# Allowed excess over the Bayes ceiling, in binomial standard errors.
CEILING_Z = 4.0
# Formatted report values carry two decimals.
FMT2_TOL = 0.005 + 1e-9


def _rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


# --- stats -----------------------------------------------------------------

def label_word_counts(split: Split, n_types: int) -> np.ndarray:
    """occ[w, l]: occurrences of token id w in hypotheses of label l."""
    L = len(LABELS)
    label_of_token = np.repeat(split.labels, np.diff(split.indptr))
    flat = np.bincount(split.ids * L + label_of_token, minlength=n_types * L)
    return flat.reshape(n_types, L)


def threshold_grid(step: float) -> list[float]:
    """{0, step, 2*step, ...} below 1, then 1.0, as the stats docs define."""
    grid, k = [], 0
    while k * step < 1.0 - 1e-12:
        grid.append(k * step)
        k += 1
    return grid + [1.0]


def expected_stats(split: Split, strings: list[str], min_freq: int, top_k: int,
                   grid_step: float) -> dict:
    """The four stats outputs as the documented rules define them."""
    L = len(LABELS)
    occ = label_word_counts(split, len(strings))
    cw = occ.sum(axis=1)
    seen = cw > 0
    per_label = np.bincount(split.labels, minlength=L)

    summary = [["label", "sentences", "token_occurrences", "distinct_tokens"]]
    for l, name in enumerate(LABELS):
        summary.append([name, str(per_label[l]), str(occ[:, l].sum()),
                        str(np.count_nonzero(occ[:, l]))])
    summary.append(["TOTAL", str(len(split)), str(occ.sum()), str(np.count_nonzero(seen))])

    # A token is a give-away candidate for its argmax label (lowest index on
    # ties) when count_w >= min_freq; lists sort by frequency, score, token.
    arg = occ.argmax(axis=1)
    score = occ[np.arange(len(strings)), arg] / np.maximum(cw, 1)
    giveaways = [["label", "token", "score", "freq"]]
    for l, name in enumerate(LABELS):
        cand = np.flatnonzero((cw >= min_freq) & (arg == l))
        ranked = sorted(cand.tolist(), key=lambda w: (-cw[w], -score[w], strings[w]))
        giveaways += [[name, strings[w], f"{score[w]:.6f}", str(cw[w])]
                      for w in ranked[:top_k]]

    # Coverage: a sentence's best token score max_l p(l|w); y(x) counts the
    # label's sentences whose best score is >= x.
    best = np.maximum.reduceat(score[split.ids], split.indptr[:-1])
    grid = threshold_grid(grid_step)
    coverage = [["label", "x", "y"]]
    digest = []
    for l, name in enumerate(LABELS):
        maxima = best[split.labels == l]
        ys = [int(np.count_nonzero(maxima >= x)) for x in grid]
        coverage += [[name, f"{x:.4f}", str(y)] for x, y in zip(grid, ys)]
        digest.append(f"| {name} | " + " | ".join(
            str(int(np.count_nonzero(maxima >= x))) for x in (0.5, 0.75, 1.0)) + " |")
    return {"counts_summary.csv": summary, "giveaways.csv": giveaways,
            "coverage.csv": coverage, "digest": digest,
            "sentences": len(split), "per_label": per_label.tolist()}


def check_stats(out_dir, expected: dict) -> list[str]:
    problems = []
    for name in ("counts_summary.csv", "giveaways.csv", "coverage.csv"):
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            problems.append(f"{name} missing")
            continue
        got = _rows(path)
        if name == "coverage.csv":
            problems += _coverage_invariants(got, expected["per_label"])
        if got != expected[name]:
            bad = next((i for i, (a, b) in enumerate(zip(got, expected[name])) if a != b),
                       min(len(got), len(expected[name])))
            problems.append(f"{name} row {bad}: got "
                            f"{got[bad] if bad < len(got) else None}, expected "
                            f"{expected[name][bad] if bad < len(expected[name]) else None}")
    path = os.path.join(out_dir, "stats_digest.md")
    if not os.path.exists(path):
        return problems + ["stats_digest.md missing"]
    with open(path, encoding="utf-8") as fh:
        digest = fh.read().splitlines()
    if f"- sentences: {expected['sentences']} (skipped at ingest: 0)" not in digest:
        problems.append("stats_digest.md: wrong sentence count")
    rows = [line for line in digest if line.startswith("| ")
            and line.split(" | ")[0][2:] in LABELS and line.count("|") == 5]
    if rows != expected["digest"]:
        problems.append(f"stats_digest.md coverage table: got {rows}, "
                        f"expected {expected['digest']}")
    return problems


def _coverage_invariants(rows, per_label) -> list[str]:
    """Each curve starts at the label's sentence count and never rises."""
    problems = []
    for l, name in enumerate(LABELS):
        try:
            ys = [int(r[2]) for r in rows[1:] if r[0] == name]
        except (IndexError, ValueError):
            return ["coverage.csv: malformed row"]
        if not ys or ys[0] != per_label[l] or any(a < b for a, b in zip(ys, ys[1:])):
            problems.append(f"coverage.csv: the {name} curve breaks y(0) = count "
                            "or monotonicity")
    return problems


# --- train-eval ------------------------------------------------------------

def read_checkpoint(path):
    """Parse the documented layout: a JSON header line, then each manifest
    array as little-endian float64, with no trailing bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    end = data.index(b"\n")
    header = json.loads(data[:end].decode("utf-8"))
    if header.get("format") != "hyponli-checkpoint":
        raise ValueError("not a hyponli checkpoint")
    arrays, pos = {}, end + 1
    for spec in header["arrays"]:
        shape = tuple(spec["shape"])
        n = math.prod(shape)
        if pos + 8 * n > len(data):
            raise ValueError(f"checkpoint truncated in array {spec['name']!r}")
        arrays[spec["name"]] = np.frombuffer(data, "<f8", n, pos).reshape(shape)
        pos += 8 * n
    if pos != len(data):
        raise ValueError(f"checkpoint has {len(data) - pos} trailing bytes")
    return header, arrays


def _lstm_max(seqs, wx, wh, b) -> np.ndarray:
    """Max over time of the hidden states of a zero-initialised LSTM run
    over each sequence; gates stacked [input, forget, candidate, output]."""
    H = wh.shape[1]
    lengths = np.array([len(s) for s in seqs])
    T, B = lengths.max(), len(seqs)
    x = np.zeros((T, B, wx.shape[1]))
    for k, s in enumerate(seqs):
        x[:len(s), k] = s
    z_in = x @ wx.T + b
    h, c = np.zeros((B, H)), np.zeros((B, H))
    best = np.full((B, H), -np.inf)
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    for t in range(T):
        z = z_in[t] + h @ wh.T
        c = sig(z[:, H:2 * H]) * c + sig(z[:, :H]) * np.tanh(z[:, 2 * H:3 * H])
        h = sig(z[:, 3 * H:]) * np.tanh(c)
        valid = (t < lengths)[:, None]
        best = np.where(valid, np.maximum(best, h), best)
    return best


def predict_labels(header, arrays, split: Split, strings: list[str]) -> np.ndarray:
    """Hypothesis-only predictions of the checkpointed model, recomputed."""
    index = {tok: i for i, tok in enumerate(header["vocab"])}
    oov = len(header["vocab"])
    rows = np.array([index.get(strings[i], oov) for i in split.ids.tolist()])
    emb = arrays["emb"]
    if header["config"]["encoder_kind"] == "bag":
        sums = np.add.reduceat(emb[rows], split.indptr[:-1], axis=0)
        enc = sums / np.diff(split.indptr)[:, None]
    else:
        seqs = [emb[rows[a:b]] for a, b in zip(split.indptr[:-1], split.indptr[1:])]
        fwd = _lstm_max(seqs, arrays["wf_x"], arrays["wf_h"], arrays["wf_b"])
        bwd = _lstm_max([s[::-1] for s in seqs], arrays["wb_x"], arrays["wb_h"],
                        arrays["wb_b"])
        enc = np.concatenate([fwd, bwd], axis=1)
    h1 = np.tanh(enc @ arrays["mlp_w1"].T + arrays["mlp_b1"])
    return (h1 @ arrays["mlp_w2"].T + arrays["mlp_b2"]).argmax(axis=1)


def majority_label(train: Split) -> int:
    return int(np.bincount(train.labels, minlength=len(LABELS)).argmax())


def check_lr_schedule(log, lr0, decay, divide, floor, max_epochs) -> list[str]:
    """lr(1) = lr0; lr(e+1) = lr(e) * decay, further divided when dev
    accuracy at e fell below that at e-1. The reference for epoch 1 is the
    untrained model, which the log does not hold, so both branches are
    allowed there. Training stops at max_epochs or once lr < floor."""
    problems = []
    epochs = [int(r[0]) for r in log]
    lrs = [float(r[1]) for r in log]
    accs = [float(r[3]) for r in log]
    if epochs != list(range(1, len(log) + 1)) or not log:
        return [f"train_log epochs {epochs} are not 1..E"]
    close = lambda a, b: abs(a - b) <= 1e-8 * max(abs(b), 1e-30)
    if not close(lrs[0], lr0):
        problems.append(f"train_log epoch 1 lr {lrs[0]} != lr0 {lr0}")
    for e in range(1, len(log)):
        kept, cut = lrs[e - 1] * decay, lrs[e - 1] * decay / divide
        if e == 1:
            ok = close(lrs[e], kept) or close(lrs[e], cut)
        else:
            ok = close(lrs[e], cut if accs[e - 1] < accs[e - 2] else kept)
        if not ok:
            problems.append(f"train_log epoch {e + 1} lr {lrs[e]} breaks the decay rule")
    if len(log) < max_epochs:
        nxt = lrs[-1] * decay / (divide if len(log) > 1 and accs[-1] < accs[-2] else 1)
        if len(log) > 1 and nxt >= floor:
            problems.append("training stopped early with lr above the floor")
    return problems


def check_train_eval(out_dir, splits: dict, strings: list[str], flags: dict,
                     bayes: float) -> list[str]:
    problems = []
    for name in ("train_log.csv", "model.ckpt", "report.md", "report.csv"):
        if not os.path.exists(os.path.join(out_dir, name)):
            problems.append(f"{name} missing")
    if problems:
        return problems
    try:
        header, arrays = read_checkpoint(os.path.join(out_dir, "model.ckpt"))
    except (ValueError, KeyError) as exc:
        return [f"model.ckpt: {exc}"]

    log = _rows(os.path.join(out_dir, "train_log.csv"))[1:]
    problems += check_lr_schedule(log, flags["lr0"], flags["decay"], flags["divide"],
                                  flags["floor"], flags["epochs"])
    report = {(r[0], r[1], r[2]): r for r in _rows(os.path.join(out_dir, "report.csv"))[1:]}
    maj = majority_label(splits["train"])
    for name in ("dev", "test"):
        split = splits[name]
        n = len(split)
        pred = predict_labels(header, arrays, split, strings)
        acc = 100.0 * np.count_nonzero(pred == split.labels) / n
        maj_acc = 100.0 * np.count_nonzero(split.labels == maj) / n
        row = report.get((name, "overall", ""))
        if row is None:
            problems.append(f"report.csv: no overall row for {name}")
            continue
        if abs(float(row[3]) - acc) > FMT2_TOL:
            problems.append(f"report.csv {name} hyp_only {row[3]}, recomputed {acc:.4f}")
        if abs(float(row[4]) - maj_acc) > FMT2_TOL:
            problems.append(f"report.csv {name} maj {row[4]}, recomputed {maj_acc:.4f}")
        for l, label in enumerate(LABELS):
            share = 100.0 * np.count_nonzero(split.labels == l) / n
            crow = report.get((name, "class", label))
            if crow is None or abs(float(crow[4]) - share) > FMT2_TOL:
                problems.append(f"report.csv {name} class {label}: wrong share")
        if acc < maj_acc + MARGIN_OVER_MAJ:
            problems.append(f"{name} accuracy {acc:.2f} does not beat MAJ {maj_acc:.2f} "
                            f"by {MARGIN_OVER_MAJ} points")
        c = bayes / 100.0
        ceiling = bayes + CEILING_Z * 100.0 * math.sqrt(c * (1 - c) / n)
        if acc > ceiling:
            problems.append(f"{name} accuracy {acc:.2f} exceeds the hypothesis-only "
                            f"Bayes ceiling {bayes:.2f} (tolerance to {ceiling:.2f})")
        if name == "dev" and log and abs(max(float(r[3]) for r in log) - acc) > 1e-6:
            problems.append(f"checkpoint dev accuracy {acc:.6f} is not the best logged "
                            "dev accuracy")
    return problems
