"""Run one hyponli command in this process and record when it reached ingest.

    python3 launch.py STAMP_FILE TRACE -- <hyponli arguments>

The command runs through hyponli.cli.main exactly as the console script
would. After it returns, STAMP_FILE receives a JSON object holding
"first_read", the time.monotonic() value at the first call into
corpus.read_jsonl (a system-wide clock on Linux, so the parent can subtract
its spawn time), and, when TRACE is 1, "layers": for each layer name,
[self seconds, total seconds, calls, work units].

Tracing wraps each public function under every name its callers look it up
by: the module attribute, copies imported by name into other hyponli
modules, and default arguments bound at definition time (tokenize is one in
stats.count_corpus, text.Vocabulary.from_texts, text.build_vocabulary,
train.fit and evaluate.premise_invariance_audit). A layer's self time is its
span minus the time of spans that ran inside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

# layer name, module, attribute ("Class.method" for methods), work units of one call
LAYERS = [
    ("corpus.read_jsonl", "corpus", "read_jsonl", None),
    ("text.tokenize", "text", "tokenize", None),
    ("text.build_vocabulary", "text", "build_vocabulary", None),
    ("text.embeddings", "text", "seeded_random_embeddings", None),
    ("text.embeddings", "text", "EmbeddingTable.matrix_for", None),
    ("stats.count_corpus", "stats", "count_corpus", None),
    ("stats.coverage", "stats", "coverage_curve", None),
    ("stats.coverage", "stats", "coverage_count", None),
    ("stats.giveaway_words", "stats", "giveaway_words", None),
    ("stats.csv", "stats", "giveaways_to_csv", None),
    ("stats.csv", "stats", "curves_to_csv", None),
    ("stats.csv", "stats", "counts_summary_csv", None),
    ("model.loss_and_gradients", "model", "loss_and_gradients",
     lambda a, k: len(a[0])),
    ("model.predict", "model", "predict", None),
    ("model.save_checkpoint", "model", "save_checkpoint",
     lambda a, k: os.path.getsize(a[1])),
    ("kernels.lstm_forward", "kernels", "lstm_forward", lambda a, k: a[0].shape[0]),
    ("kernels.lstm_backward", "kernels", "lstm_backward", None),
    ("train.sgd_step", "train", "sgd_step",
     lambda a, k: sum(g.size for g in a[1].values())),
    ("train.fit", "train", "fit", None),
    ("evaluate.premise_invariance_audit", "evaluate", "premise_invariance_audit", None),
    ("evaluate.build_report", "evaluate", "build_report", None),
    ("util.atomic_write", "util", "atomic_write_bytes", lambda a, k: len(a[1])),
]


class Tracer:
    def __init__(self):
        self.layers: dict[str, list] = {}
        self._stack: list[float] = []  # child-span seconds of each open span

    def wrap(self, layer, fn, work):
        rec = self.layers.setdefault(layer, [0.0, 0.0, 0, 0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                rec[0] += span - stack.pop()
                rec[1] += span
                rec[2] += 1
                if stack:
                    stack[-1] += span
                if work is not None:
                    rec[3] += work(args, kwargs)
        return traced


def _functions(modules):
    """Every plain function and method defined in the given modules."""
    for mod in modules:
        for value in vars(mod).values():
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                for member in vars(value).values():
                    member = getattr(member, "__func__", member)
                    if inspect.isfunction(member):
                        yield member
            elif inspect.isfunction(value) and value.__module__ == mod.__name__:
                yield value


def install(tracer, modules):
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    functions = list(_functions(modules))  # before any is replaced by a wrapper
    for layer, mod_name, attr, work in LAYERS:
        owner = by_name[mod_name]
        cls_name, _, name = attr.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
        original = getattr(owner, name, None) if owner is not None else None
        if original is None:
            continue
        traced = tracer.wrap(layer, original, work)
        setattr(owner, name, traced)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
        for fn in functions:
            if fn.__defaults__ and any(d is original for d in fn.__defaults__):
                fn.__defaults__ = tuple(traced if d is original else d
                                        for d in fn.__defaults__)
            if fn.__kwdefaults__:
                for key, value in fn.__kwdefaults__.items():
                    if value is original:
                        fn.__kwdefaults__[key] = traced


def main() -> int:
    stamp_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launch.py STAMP_FILE TRACE -- ARGS...")
    from hyponli import cli, corpus

    first_read = []
    read_jsonl = corpus.read_jsonl

    def stamped_read_jsonl(*args, **kwargs):
        if not first_read:
            first_read.append(time.monotonic())
        return read_jsonl(*args, **kwargs)

    corpus.read_jsonl = stamped_read_jsonl
    tracer = None
    if trace == "1":
        tracer = Tracer()
        names = ("cli", "corpus", "text", "stats", "model", "kernels", "train",
                 "evaluate", "util")
        install(tracer, [importlib.import_module(f"hyponli.{n}") for n in names])
    code = cli.main(argv)
    stamp = {"first_read": first_read[0] if first_read else None}
    if tracer is not None:
        stamp["layers"] = tracer.layers
    with open(stamp_path, "w", encoding="utf-8") as fh:
        json.dump(stamp, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
