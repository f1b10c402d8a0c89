"""Command-line entry point: stats, train-eval, synth, audit-sample, split.

Every run is deterministic under its --seed: all randomness flows from it
through fixed offsets (embeddings seed+1, model init seed+2, epoch shuffling
seed+3); synth takes its seed from the spec file. Each input file is read
once into a corpus.Corpus, and outputs are promoted atomically from temp files.

train-eval keeps the best epoch on disk, not in memory: train.fit writes it to a checkpoint in a
temporary directory under Python's TMPDIR (on a tmpfs its pages count as shared memory, not RSS).
The dev report is the best epoch's own dev evaluation in fit; the test report and model.ckpt
come from that file, loaded once fit returns.

Each option is one row of _OPTIONS, which builds the argparse subparsers, reads a key=value
--config file and gives the "Run configuration" block; the model and schedule options are the
fields of model.ModelConfig and train.TrainConfig, defaults, types and helps included. Each
--help line ends in its row's default, unless the option is required, a switch or has none.
argparse only splits argv (switches, --help, unknown flags); the row's from_text turns a flag's
or a --config line's text into its value, and a path option refuses empty text. A flag wins over a
--config line, which wins over the row's default (a non-empty HYPONLI_OUT_DIR, read per run,
for --out-dir); a row without one must be given. Before any input is read, checkpoint and spec
included, a command resolves one frozen Run: --format to a reader and RoleMap, --scheme to a
LabelScheme (audit-sample takes the checkpoint's), --ratios to numbers, the model and schedule
options to their two configs, and each other value through the library's own check. A refused
value is one ConfigError line that names the option, and the --config file when that set it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile

import numpy as np

from . import corpus, evaluate, model, stats, synth, text, train
from .util import atomic_write_text, config_block, markdown_table, numbered_lines


def _resolve_scheme(value: str) -> corpus.LabelScheme:
    """The --scheme preset, or a scheme of the comma-separated names."""
    if value in corpus.SCHEME_PRESETS:
        return corpus.SCHEME_PRESETS[value]
    try:
        return corpus.LabelScheme(tuple(n.strip() for n in value.split(",") if n.strip()))
    except corpus.ConfigError as exc:
        raise corpus.ConfigError(f"--scheme {value!r}: schemes are "
                                 f"{', '.join(corpus.SCHEME_PRESETS)} or 2-3 distinct label "
                                 f"names; {exc}", "scheme") from None


def _resolve_format(value: str):
    """(reader, role map) of --format: a FIELD_MAP_PRESETS name (JSONL), a _TSV_PRESETS name or
    role=column pairs (TSV); the reader is looked up per run, so a patched one is called."""
    if value in corpus.FIELD_MAP_PRESETS:
        return corpus.read_jsonl, corpus.FIELD_MAP_PRESETS[value]
    roles, kwargs = [f.name for f in dataclasses.fields(corpus.RoleMap)], {}
    pairs = _TSV_PRESETS.get(value, value)
    # blank pairs are skipped, but a value with no pair at all is refused
    for part in [part.strip() for part in pairs.split(",") if part.strip()] or [value]:
        key, _, column = (s.strip() for s in part.partition("="))
        if key not in roles or key in kwargs or not column.isdecimal():  # int() takes any digit
            presets = ", ".join([*corpus.FIELD_MAP_PRESETS, *_TSV_PRESETS])
            raise corpus.ConfigError(f"--format {value!r}: {part!r} is not {presets} or "
                                     f"role=column, with each role among {', '.join(roles)} "
                                     f"once and a non-negative integer column", "format")
        kwargs[key] = int(column)
    return corpus.read_tsv, corpus.RoleMap(**kwargs)


def _resolve_ratios(value: str) -> tuple:
    """--ratios as numbers, checked as corpus.random_split checks them."""
    try:
        ratios = tuple(float(r) for r in value.split(","))
    except ValueError:
        raise corpus.ConfigError(f"--ratios {value!r} is not a comma-separated "
                                 f"list of numbers", "ratios") from None
    return corpus.check_ratios(ratios)


def _resolve_out_dir(path):
    """path (by default a non-empty HYPONLI_OUT_DIR, else ".") if its nearest existing ancestor,
    itself included, is a directory; nothing is created, so a failed run leaves no directory.
    A refusal names HYPONLI_OUT_DIR when that gave the path."""
    name = "--out-dir" if path is not None else "HYPONLI_OUT_DIR"
    path = (os.environ.get("HYPONLI_OUT_DIR") or ".") if path is None else path
    if not path:
        raise corpus.ConfigError("--out-dir '' names no directory", "out_dir")
    probe = os.path.abspath(path)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise corpus.ConfigError(f"{name} {path}: {probe} is not a directory", "out_dir")
    return path


def path(text: str) -> str:
    """The type of a file option: any text but the empty one, which names no file."""
    if not text:
        raise ValueError("an empty path")
    return text


@dataclasses.dataclass(frozen=True)
class _Option:
    """A row of the option table: type turns text into the value (bool: a switch, path: a
    file), a value below low is refused, resolve checks it or makes what the command uses."""

    dest: str
    commands: str
    default: object = None
    type: object = str
    help: str | None = None
    resolve: object = None
    low: int | None = None
    SWITCH = {"1": True, "0": False, "true": True, "false": False,
              "yes": True, "no": False, "on": True, "off": False}

    def from_text(self, text: str, where: str = ""):
        """A flag's or --config line's text as a value, else a ConfigError prefixed by where."""
        switch = self.type is bool
        try:
            return self.SWITCH[text.lower()] if switch else self.type(text)
        except (KeyError, ValueError):
            refusal = (f"{text.lower()!r} is not one of {', '.join(self.SWITCH)}" if switch
                       else f"{text!r} is not of type {self.type.__name__}")
            raise corpus.ConfigError(f"{where}{self.dest}={refusal}", self.dest) from None


_CORPUS = "stats train-eval audit-sample split"  # the subcommands that read a corpus
_ALL = _CORPUS + " synth"
_REQUIRED = object()  # the default of an option that a flag or a --config line must give
_TSV_PRESETS = {"tsv": "premise=0,hypothesis=1,label=2"}  # --format names of role=column pairs
# one row per option, in the order of each subcommand's options
_OPTIONS = (
    _Option("data", "stats audit-sample split", _REQUIRED, path, "data corpus file"),
    _Option("train", "train-eval", _REQUIRED, path, "train corpus file"),
    _Option("dev", "train-eval", _REQUIRED, path, "dev corpus file"),
    _Option("format", _CORPUS, "native", resolve=_resolve_format,
            help=f"{' or '.join(corpus.FIELD_MAP_PRESETS)} (JSONL); "
                 + "".join(f"{name} ({pairs}) or " for name, pairs in _TSV_PRESETS.items())
                 + "role=column pairs (TSV)"),
    _Option("scheme", "stats train-eval split", "3way", resolve=_resolve_scheme,
            help=f"{', '.join(corpus.SCHEME_PRESETS)} or 2-3 comma-separated label names"),
    _Option("remap_ordinal", _CORPUS, False, bool, "map 1-5 ordinal ratings onto the 3-way labels"),
    _Option("test", "train-eval", None, path, "optional test corpus file"),
    _Option("seed", _CORPUS, 0, int, "global seed", low=0),
    _Option("out_dir", _ALL, None, str, "output directory (env HYPONLI_OUT_DIR)", _resolve_out_dir),
    _Option("config", _ALL, None, path, "key=value file presetting flags of this subcommand"),
    _Option("split_name", "stats", "dev", help="label for the digest"),
    _Option("min_freq", "stats", 5, int, "candidate frequency floor", stats.check_min_freq),
    _Option("top_k", "stats", 10, int, "list length per label", stats.check_top_k),
    _Option("grid_step", "stats", 0.01, float, "coverage grid step", stats.check_grid_step),
    _Option("per_label_threshold", "stats", False, bool,
            "threshold p(label|w) instead of max over labels"),
    _Option("encoder", "train-eval", "bag", help=" or ".join(model.ENCODER_KINDS)),
    _Option("embeddings", "train-eval", None, path,
            "word-vector text file (default: seeded random vectors)"),
    # the configs' fields, but those that --encoder and --seed set; __post_init__ checks them
    *(_Option(f.name, "train-eval", f.default, type(f.default), f.metadata["help"])
      for config in (model.ModelConfig, train.TrainConfig) for f in dataclasses.fields(config)
      if f.name not in ("encoder_kind", "seed")),
    _Option("spec_file", "synth", _REQUIRED, path, "JSON generator spec"),
    _Option("n", "synth", _REQUIRED, int, "number of instances", low=1),
    _Option("checkpoint", "audit-sample", _REQUIRED, path, "model.ckpt file of train-eval"),
    _Option("n_per_cell", "audit-sample", 50, int, "rows drawn per (gold, predicted) cell, "
            "at most", evaluate.check_n_per_cell),
    _Option("ratios", "split", "0.8,0.1,0.1", str, "train,dev,test ratios", _resolve_ratios),
)


class Run:
    """A command's options, resolved before any input is read: one attribute per dest, plus
    model_config and train_config for train-eval and lines, the run configuration. Frozen."""

    def __init__(self, **values):
        self.__dict__.update(values)

    def __setattr__(self, name, value):
        raise AttributeError(f"a Run is frozen: cannot set {name!r}")


def _resolve(command: str, given: dict) -> Run:
    """The command's Run: each value given, else its default, converted and checked in order."""
    values, run = {"command": command}, {}
    for option in (option for option in _OPTIONS if command in option.commands.split()):
        value = given.get(option.dest, option.default)
        if value is _REQUIRED:
            raise corpus.ConfigError(f"--{option.dest.replace('_', '-')} is required", option.dest)
        value = values[option.dest] = option.from_text(value) if isinstance(value, str) else value
        if option.low is not None and value < option.low:
            raise corpus.ConfigError(f"--{option.dest} {value} is below {option.low}", option.dest)
        run[option.dest] = option.resolve(value) if option.resolve else value
    if command == "train-eval":
        def config(cls, **fixed):  # every other field is the option of its name
            return cls(**fixed, **{f.name: run[f.name] for f in dataclasses.fields(cls)
                                   if f.name not in fixed})
        run["model_config"] = config(model.ModelConfig, encoder_kind=run["encoder"],
                                     seed=run["seed"] + 2)
        run["train_config"] = config(train.TrainConfig, seed=run["seed"] + 3)
    # out_dir left out, so that artifacts do not depend on where they are written
    lines = [f"{k}={v}" for k, v in sorted(values.items()) if k not in ("config", "out_dir")]
    return Run(lines=lines, **run)


def _read_config(text: str, command: str) -> dict:
    """{dest: value} of the key=value lines of the --config file for command, each converted;
    its path converts first, so an empty --config is refused, not skipped."""
    options = {o.dest: o for o in _OPTIONS if command in o.commands.split()}
    path, values = options.pop("config").from_text(text), {}
    for _, line in numbered_lines(path):
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, value = (part.strip() for part in line.partition("="))
            key = key.replace("-", "_")
            if key not in options:
                raise corpus.ConfigError(f"{path}: unknown option {key!r}")
            values[key] = options[key].from_text(value, f"{path}: ")
    return values


def _read_corpus(path, read_format, scheme, remap_ordinal, split):
    """(corpus, records skipped) of one file; an empty one is an error naming its split."""
    read, roles = read_format
    data, skipped = read(path, roles, scheme, remap_ordinal)
    if not len(data):
        raise corpus.IngestError(f"{path}: the {split} split is empty "
                                 f"({skipped} records skipped at ingest)")
    return data, skipped


def _predict(rows, tokens, params, what):
    """model.predict_batch; an overflow, which finite weights can still give, is one error."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return model.predict_batch(rows, tokens, params)
    except FloatingPointError as exc:
        raise ValueError(f"{what} overflows ({exc})") from None


def cmd_stats(run: Run) -> int:
    scheme = run.scheme
    data, skipped = _read_corpus(run.data, run.format, scheme, run.remap_ordinal, "data")
    counts = stats.count_corpus(data.hypotheses, data.labels, scheme, run.per_label_threshold)
    giveaways = stats.giveaway_words(counts, min_freq=run.min_freq, top_k=run.top_k)
    labels = range(len(scheme))
    curves = [stats.coverage_curve(counts, label, grid_step=run.grid_step) for label in labels]
    digest = ["# Word statistics digest", "",
              f"- source: {run.data} (split label: {run.split_name})",
              f"- sentences: {counts.n_sentences} (skipped at ingest: {skipped})"]
    digest += [f"- {name}: {count} sentences"
               for name, count in zip(scheme.names, counts.label_sentences.tolist())]
    for label in labels:
        digest += ["", f"## Top give-away words: {scheme.names[label]}", ""]
        digest += markdown_table(["Word", "Score", "Freq"],
                                 ([entry.token, evaluate.fmt2(entry.score), entry.frequency]
                                  for entry in giveaways[label]))
    digest += ["", "## Coverage at selected thresholds", ""]
    thresholds = (0.5, 0.75, 1.0)
    digest += markdown_table(
        ["Label", *(f"y({x})" for x in thresholds)],
        ([scheme.names[label], *(stats.coverage_count(counts, label, x) for x in thresholds)]
         for label in labels))
    digest += ["", *config_block(run.lines)]

    out = run.out_dir
    atomic_write_text(os.path.join(out, "giveaways.csv"),
                      stats.giveaways_to_csv(giveaways, scheme))
    atomic_write_text(os.path.join(out, "coverage.csv"), stats.curves_to_csv(curves, scheme))
    atomic_write_text(os.path.join(out, "counts_summary.csv"),
                      stats.counts_summary_csv(counts))
    atomic_write_text(os.path.join(out, "stats_digest.md"), "\n".join(digest) + "\n")
    print(f"stats: {counts.n_sentences} sentences -> {out}")
    return 0


def _build_model(run: Run, vocab):
    config = run.model_config
    try:
        if run.embeddings:
            emb = text.load_embeddings(run.embeddings, vocab, config.embedding_dim)
        else:
            emb = text.seeded_random_embeddings(vocab, config.embedding_dim, run.seed + 1)
        return model.ModelParameters.init(config, emb, vocab, run.scheme)
    except (MemoryError, ValueError) as exc:
        if isinstance(exc, corpus.IngestError):  # a line of the --embeddings file
            raise
        # numpy: ValueError for a shape past its size limit, else MemoryError
        dims = ("embedding_dim", "hidden_dim", "mlp_hidden")
        flags = ", ".join(f"--{dim.replace('_', '-')} {getattr(config, dim)}" for dim in dims)
        raise corpus.ConfigError(f"{flags}: the model's arrays cannot be allocated "
                                 f"({str(exc) or type(exc).__name__})", *dims) from None


def cmd_train_eval(run: Run) -> int:
    read = {name: _read_corpus(path, run.format, run.scheme, run.remap_ordinal, name)
            for name, path in (("train", run.train), ("dev", run.dev), ("test", run.test))
            if path}  # only --test is optional
    splits = {name: data for name, (data, _) in read.items()}
    # one CSR token corpus of every hypothesis, train first, then dev, then
    # test; each split is its range of rows
    vocab, ids, indptr = text.intern([h for data in splits.values() for h in data.hypotheses])
    tokens = (ids, indptr)
    ends = np.cumsum([len(data) for data in splits.values()])
    examples = {name: (np.arange(end - len(data), end), data.labels)
                for (name, data), end in zip(splits.items(), ends)}
    out, preds = run.out_dir, {}  # the predictions of dev, then of test if given
    with tempfile.TemporaryDirectory() as tmp:  # the best epoch, until the run succeeds
        best = os.path.join(tmp, "model.ckpt")

        def on_best(params, dev_pred):  # raw float64: model.ckpt gives dev_pred back exactly
            model.save_checkpoint(params, best)
            preds["dev"] = dev_pred
        try:  # no name holds the trained parameters, so they go once fit returns
            state = train.fit(examples["train"], examples["dev"], tokens,
                              _build_model(run, vocab), run.train_config, on_best)
        except train.TrainAbort as exc:
            dump = os.path.join(out, "train_abort.csv")
            atomic_write_text(dump, exc.state.log_csv())
            print(f"training aborted: {exc}; state dump at {dump}", file=sys.stderr)
            return 1
        best_params = model.load_checkpoint(best)

    if run.test:
        preds["test"] = _predict(examples["test"][0], tokens, best_params,
                                 f"{run.test}: predicting the test split")
    maj = corpus.majority_label(examples["train"][1])
    reports = [evaluate.build_report(name, pred, splits[name].labels, splits[name].groups,
                                     run.scheme, maj) for name, pred in preds.items()]

    atomic_write_text(os.path.join(out, "train_log.csv"), state.log_csv())
    model.save_checkpoint(best_params, os.path.join(out, "model.ckpt"))
    atomic_write_text(os.path.join(out, "report.md"),
                      evaluate.report_markdown(reports, run.lines, [
                          f"- {name}: {len(data)} records (skipped at ingest: {skipped})"
                          for name, (data, skipped) in read.items()]))
    atomic_write_text(os.path.join(out, "report.csv"), evaluate.report_csv(reports))
    dev_rep = reports[0]
    print(f"train-eval: dev hyp-only {evaluate.fmt2(dev_rep.hyp_only_acc)} "
          f"vs maj {evaluate.fmt2(dev_rep.maj_acc)} -> {out}")
    if not (run.embeddings or run.finetune_embeddings):
        print("note: trained on frozen, seeded random word vectors, which no run of the paper "
              "used; give --embeddings or --finetune-embeddings", file=sys.stderr)
    return 0


def cmd_synth(run: Run) -> int:
    spec = synth.read_spec(run.spec_file)
    try:
        data = synth.generate(spec, run.n)
    except MemoryError:
        raise ValueError(f"{run.spec_file}: {run.n} instances do not fit in memory") from None
    bayes = synth.bayes_accuracy(spec)
    out = run.out_dir
    corpus.write_jsonl(data, os.path.join(out, "corpus.jsonl"), spec.scheme)
    meta = {"spec": dataclasses.asdict(spec), "n": run.n, "bayes_accuracy": bayes}
    atomic_write_text(os.path.join(out, "corpus.meta.json"),
                      json.dumps(meta, indent=2) + "\n")
    print(f"synth: {run.n} instances, bayes accuracy {evaluate.fmt2(bayes)} -> {out}")
    return 0


def cmd_audit_sample(run: Run) -> int:
    params = model.load_checkpoint(run.checkpoint)
    data, _ = _read_corpus(run.data, run.format, params.scheme, run.remap_ordinal, "data")
    pred = _predict(np.arange(len(data)), params.vocab.encode(data.hypotheses), params,
                    f"{run.checkpoint}: predicting {run.data}")
    cells = evaluate.confusion_sample(pred, data.labels, run.n_per_cell, run.seed)
    text_out = evaluate.confusion_sample_text(cells, params.scheme, data.ids, data.hypotheses)
    atomic_write_text(os.path.join(run.out_dir, "audit_sample.txt"), text_out)
    total = sum(len(v) for v in cells.values())
    print(f"audit-sample: {total} rows across {len(cells)} cells -> {run.out_dir}")
    return 0


def cmd_split(run: Run) -> int:
    data, _ = _read_corpus(run.data, run.format, run.scheme, run.remap_ordinal, "data")
    parts = dict(zip(("train", "dev", "test"),
                     corpus.random_split(data, ratios=run.ratios, seed=run.seed)))
    for name, part in parts.items():
        corpus.write_jsonl(part, os.path.join(run.out_dir, f"{name}.jsonl"), run.scheme)
    sizes = ", ".join(f"{name}={len(part)}" for name, part in parts.items())
    print(f"split: {sizes} -> {run.out_dir}")
    return 0


_COMMANDS = {
    "stats": (cmd_stats, "give-away words, coverage curves, counts"),
    "train-eval": (cmd_train_eval, "train a hypothesis-only model and report gaps"),
    "synth": (cmd_synth, "generate a synthetic biased corpus"),
    "audit-sample": (cmd_audit_sample, "stratified confusion-cell sample"),
    "split": (cmd_split, "random train, dev and test split of one corpus file"),
}


def build_parser():
    """(the parser, {subcommand: its parser}), built from the option table."""
    parser = argparse.ArgumentParser(prog="hyponli",
                                     description="Hypothesis-only diagnostics for NLI datasets")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        subparsers.add_parser(name, help=help_text)
    for option in _OPTIONS:
        kind = {bool: {"action": "store_true"}, path: {"metavar": "PATH"}}.get(option.type, {})
        help_text = option.help
        if option.default not in (_REQUIRED, None) and option.type is not bool:
            help_text += f" (default: {option.default})"
        for name in option.commands.split():  # SUPPRESS: args hold only the flags given
            subparsers.choices[name].add_argument(f"--{option.dest.replace('_', '-')}", **kind,
                                                  default=argparse.SUPPRESS, help=help_text)
    return parser, subparsers.choices


def main(argv=None) -> int:
    parser, _ = build_parser()
    given = vars(parser.parse_args(argv))
    command, path, from_file = given.pop("command"), given.get("config"), {}
    try:
        from_file = _read_config(path, command) if path is not None else {}
        return _COMMANDS[command][0](_resolve(command, {**from_file, **given}))
    except (ValueError, OSError) as exc:  # ingest, config and embedding errors included
        # a refused value that the config file set, and no flag replaced, is the file's error
        set_by_file = from_file.keys() - given.keys()
        where = f"{path}: " if set_by_file.intersection(getattr(exc, "options", ())) else ""
        print(f"error: {where}{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
