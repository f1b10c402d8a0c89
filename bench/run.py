"""The hyponli benchmark: three CLI workloads on seeded synthetic corpora.

    python3 bench/run.py --workload stats --seed 1 --seconds 40 --trace 0

Run from the repository root. The inputs are generated from --seed before
timing starts. The workload's hyponli command then runs again and again,
one process at a time, for about --seconds. Each invocation is one
operation; it fails on a non-zero exit or on any failed output check (see
checks.py). The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, as medians over the
invocations: wall_s (spawn to exit), setup_s (spawn to the first call into
corpus.read_jsonl) and peak_rss_mb. --trace 1 alternates untraced and
traced invocations and reports per-layer metrics, as means over the traced
ones; see README.md. Without --workload, every workload runs in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

import checks
import gen
import launch

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCH = os.path.join(HERE, "launch.py")
WORK = os.path.join(HERE, "work")
OP_TIMEOUT_S = 120  # a run must end within 180 s
MIN_OPS = 3  # invocations of each kind, whatever --seconds says


@dataclass(frozen=True)
class Workload:
    corpus: gen.CorpusSpec
    sizes: dict          # split name -> sentences; each is a --<split> input
    command: str         # hyponli subcommand
    flags: dict          # the subcommand's settings; the checks read them too


def _stats_args(f):
    return ["--min-freq", str(f["min_freq"]), "--top-k", str(f["top_k"]),
            "--grid-step", str(f["grid_step"])]


def _train_eval_args(f):
    return ["--encoder", f["encoder"], "--finetune-embeddings", "--lr0", str(f["lr0"]),
            "--decay", str(f["decay"]), "--divide-on-decline", str(f["divide"]),
            "--lr-floor", str(f["floor"]), "--max-epochs", str(f["epochs"]),
            "--batch-size", str(f["batch"])]


WORKLOADS = {
    "stats": Workload(
        gen.CorpusSpec(vocab=30000, zipf=1.05, length=(6, 14)), {"data": 40000},
        "stats", {"min_freq": 5, "top_k": 10, "grid_step": 0.01}),
    "bag-finetune": Workload(
        gen.CorpusSpec(vocab=20000, zipf=1.05, length=(6, 14)),
        {"train": 8000, "dev": 1000, "test": 1000}, "train-eval",
        {"encoder": "bag", "lr0": 0.5, "decay": 0.99, "divide": 5.0, "floor": 1e-5,
         "epochs": 3, "batch": 64}),
    # Fine-tuned embeddings at batch 8 and lr0 1.0 learn within 3 epochs. A
    # first epoch that scores below the untrained model divides the rate;
    # by 5 that left some seeds at the majority class, by 2 none of 70.
    "birnn-finetune": Workload(
        gen.CorpusSpec(vocab=400, zipf=1.05, length=(2, 5)),
        {"train": 600, "dev": 200, "test": 200}, "train-eval",
        {"encoder": "birnn-maxpool", "lr0": 1.0, "decay": 0.99, "divide": 2.0,
         "floor": 1e-5, "epochs": 3, "batch": 8}),
}


@dataclass
class Op:
    wall: float
    setup: float | None
    rss_mb: float
    cpu: float
    layers: dict | None
    problems: list


def invoke(argv, out_dir, trace: bool) -> Op:
    """Run one hyponli command in a fresh process and measure it."""
    os.makedirs(out_dir)
    stamp = os.path.join(out_dir, "stamp.json")
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, LAUNCH, stamp, "1" if trace else "0", "--", *argv]
    with open(os.path.join(out_dir, "stderr.txt"), "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err,
                                cwd=ROOT)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    op = Op(wall, None, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime,
            None, [])
    if proc.returncode != 0:
        with open(os.path.join(out_dir, "stderr.txt"), encoding="utf-8",
                  errors="replace") as fh:
            tail = fh.read().strip().splitlines()[-1:]
        op.problems.append(f"exit code {proc.returncode}: {' '.join(tail)}")
        return op
    try:
        with open(stamp, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        op.problems.append(f"the launcher wrote no stamp: {exc}")
        return op
    if data["first_read"] is None:
        op.problems.append("the command never called corpus.read_jsonl")
    else:
        op.setup = data["first_read"] - start
    op.layers = data.get("layers")
    return op


class Bench:
    def __init__(self, name: str, seed: int, work_dir: str):
        self.name = name
        self.spec = WORKLOADS[name]
        self.work_dir = work_dir
        index = list(WORKLOADS).index(name)
        rng = np.random.default_rng([seed, index])
        self.strings = gen.token_strings(self.spec.corpus)
        self.splits, self.paths = {}, {}
        for split, n in self.spec.sizes.items():
            self.splits[split] = gen.generate(self.spec.corpus, n, rng, split)
            self.paths[split] = os.path.join(work_dir, f"{split}.jsonl")
            gen.write_jsonl(self.splits[split], self.strings, self.paths[split])
        self.seed = seed
        if name == "stats":
            self.expected = checks.expected_stats(self.splits["data"], self.strings,
                                                  **self.spec.flags)
        self.n_ops = 0

    def argv(self, out_dir):
        inputs = []
        for split, path in self.paths.items():
            inputs += [f"--{split}", path]
        extra = (_stats_args if self.spec.command == "stats" else _train_eval_args)
        return [self.spec.command, *inputs, "--out-dir", out_dir, "--seed", str(self.seed),
                *extra(self.spec.flags)]

    def run_op(self, trace: bool) -> Op:
        out_dir = os.path.join(self.work_dir, f"op{self.n_ops}")
        self.n_ops += 1
        op = invoke(self.argv(out_dir), out_dir, trace)
        try:
            if not op.problems and self.name == "stats":
                op.problems += checks.check_stats(out_dir, self.expected)
            elif not op.problems:
                op.problems += checks.check_train_eval(
                    out_dir, self.splits, self.strings, self.spec.flags,
                    gen.bayes_accuracy())
        except (ValueError, IndexError, KeyError) as exc:  # malformed output files
            op.problems.append(f"unreadable output: {exc!r}")
        if trace and not op.problems:
            op.problems += self.check_trace_counts(op.layers, out_dir)
        shutil.rmtree(out_dir)
        return op

    def check_trace_counts(self, layers, out_dir) -> list[str]:
        """Counts the traced run must show, computed from the inputs."""
        count = lambda layer, i=2: layers.get(layer, [0, 0, 0, 0])[i]
        want = {}
        if self.name == "stats":
            want["text.tokenize.calls"] = (count("text.tokenize"), len(self.splits["data"]))
            want["stats.coverage.calls"] = (count("stats.coverage"), 4 * len(gen.LABELS))
        else:
            with open(os.path.join(out_dir, "train_log.csv"), encoding="utf-8") as fh:
                epochs = len(fh.read().splitlines()) - 1
            examples = epochs * len(self.splits["train"])
            want["model.loss_and_gradients.examples"] = (
                count("model.loss_and_gradients", 3), examples)
            if self.name == "birnn-finetune":
                # every generated sentence is non-empty, so each encoding is
                # one forward and one backward-direction LSTM pass
                encoded = examples + count("model.predict")
                want["kernels.lstm_forward.calls"] = (count("kernels.lstm_forward"),
                                                      2 * encoded)
                want["kernels.lstm_backward.calls"] = (count("kernels.lstm_backward"),
                                                       2 * examples)
        return [f"trace {metric} = {got}, expected {exp}"
                for metric, (got, exp) in want.items() if got != exp]


def per_layer(traced: list[Op], untraced: list[Op]) -> dict:
    """Means over the traced invocations, so self times plus cli.other.s
    add up to trace.wall_s."""
    names = dict.fromkeys(name for name, *_ in launch.LAYERS)
    mean = lambda values: sum(values) / len(values)
    field = lambda name, i: mean([op.layers.get(name, [0.0, 0.0, 0, 0])[i] for op in traced])
    out = {}
    for name in names:
        out[f"{name}.s"] = (field(name, 0), "s")
    counts = {"text.tokenize.calls": ("text.tokenize", 2, "count"),
              "stats.coverage.calls": ("stats.coverage", 2, "count"),
              "model.loss_and_gradients.examples": ("model.loss_and_gradients", 3, "count"),
              "model.predict.calls": ("model.predict", 2, "count"),
              "model.save_checkpoint.bytes": ("model.save_checkpoint", 3, "B"),
              "kernels.lstm_forward.calls": ("kernels.lstm_forward", 2, "count"),
              "kernels.lstm_forward.steps": ("kernels.lstm_forward", 3, "count"),
              "kernels.lstm_backward.calls": ("kernels.lstm_backward", 2, "count"),
              "train.sgd_step.elements": ("train.sgd_step", 3, "count"),
              "util.atomic_write.bytes": ("util.atomic_write", 3, "B")}
    for metric, (name, i, unit) in counts.items():
        value = field(name, i)  # the same in every traced run, so a whole number
        out[metric] = (int(value) if value == int(value) else value, unit)
    for name in ("train.fit", "evaluate.premise_invariance_audit"):
        out[f"{name}.total_s"] = (field(name, 1), "s")
    traced_wall = mean([op.wall for op in traced])
    layer_self = mean([sum(v[0] for v in op.layers.values()) for op in traced])
    out["cli.other.s"] = (traced_wall - layer_self, "s")
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - mean([op.wall for op in untraced]), "s")
    out["process.cpu_s"] = (mean([op.cpu for op in untraced]), "s")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work_dir = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        bench = Bench(name, seed, work_dir)
        # Compile and page in hyponli and numpy once, untimed.
        subprocess.run([sys.executable, "-m", "hyponli.cli", "--help"], cwd=ROOT,
                       env=dict(os.environ, PYTHONPATH=SRC), stdout=subprocess.DEVNULL,
                       timeout=OP_TIMEOUT_S, check=True)
        untraced, traced, failed = [], [], 0
        start = time.monotonic()
        longest = 0.0
        while True:
            round_start = time.monotonic()
            ops = [(bench.run_op(False), untraced)]
            if trace:
                ops.append((bench.run_op(True), traced))
            for op, bucket in ops:
                if op.problems:
                    failed += 1
                    print(f"{name}: operation failed: {'; '.join(op.problems)}",
                          file=sys.stderr)
                if op.setup is not None:  # ran to its end, so its timings stand
                    bucket.append(op)
            longest = max(longest, time.monotonic() - round_start)
            rounds = bench.n_ops // len(ops)
            if rounds >= MIN_OPS and time.monotonic() - start + longest > seconds:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    attempted = bench.n_ops
    if not untraced or (trace and not traced):
        raise SystemExit(f"{name}: no operation ran to its end")
    if trace:
        metrics = per_layer(traced, untraced)
    else:
        metrics = {"wall_s": (statistics.median(op.wall for op in untraced), "s"),
                   "setup_s": (statistics.median(op.setup for op in untraced), "s"),
                   "peak_rss_mb": (statistics.median(op.rss_mb for op in untraced), "MB")}
    for metric, (value, unit) in metrics.items():
        print(f"{name}: {metric} = {value:.6g} {unit}", file=sys.stderr)
    print(f"{name}: wall_s, peak_rss_mb of each untraced operation: "
          + " ".join(f"{op.wall:.3f},{op.rss_mb:.1f}" for op in untraced), file=sys.stderr)
    print(f"{name}: {attempted} operations attempted, {failed} failed", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="one workload (default: each in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "hyponli", "cli.py")):
        print(f"error: no hyponli sources at {SRC}", file=sys.stderr)
        return 2
    for name in [args.workload] if args.workload else list(WORKLOADS):
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
