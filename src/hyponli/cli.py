"""Command-line entry point.

Subcommands: stats, train-eval, synth, audit-sample, split. Every run is
deterministic under its --seed: all randomness flows from that one value
through fixed per-component offsets (embeddings seed+1, model init seed+2,
epoch shuffling seed+3), so repeated invocations produce byte-identical
artifacts; synth has no --seed, as it takes its seed from the spec file.
Each input file is read once into a corpus.Corpus, and each
command passes on only the columns it uses: hypotheses and labels to the
statistics and the model, ids to the audit sample, groups to the report;
premises are only ever written back out (synth, split). train-eval
interns all its hypotheses once into one CSR token corpus, each split a
range of its rows from training to prediction; audit-sample encodes into
the same form with the checkpoint vocabulary. Outputs are
written to a temp file and promoted atomically. A key=value config file
can preset any flag of a subcommand; explicit flags win. HYPONLI_OUT_DIR
sets the default output directory. audit-sample takes its label scheme
from the checkpoint.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import corpus, evaluate, model, stats, synth, text, train
from .util import atomic_write_text, config_block, markdown_table, numbered_lines


def _resolve_scheme(args) -> corpus.LabelScheme:
    if args.labels:
        names = tuple(n.strip() for n in args.labels.split(",") if n.strip())
        return corpus.LabelScheme(names, "custom")
    return corpus.SCHEME_PRESETS[args.scheme]


def _parse_tsv_columns(spec: str) -> corpus.RoleMap:
    roles = [f.name for f in dataclasses.fields(corpus.RoleMap)]
    kwargs = {}
    for part in filter(str.strip, spec.split(",")):
        key, _, value = (s.strip() for s in part.partition("="))
        if key not in roles or not value.isdecimal():  # int() takes every decimal digit
            raise corpus.ConfigError(f"--tsv-columns: {part.strip()!r} is not role=column, "
                                     f"with a role among {', '.join(roles)} and a "
                                     f"non-negative integer column")
        kwargs[key] = int(value)
    return corpus.RoleMap(**kwargs)


def _read_corpus(path, args, scheme, split=None):
    """(corpus, records skipped, scheme) of one file; naming the split
    makes an empty one an error."""
    if args.remap_ordinal:
        scheme = corpus.THREE_WAY
    if args.format == "tsv":
        columns = _parse_tsv_columns(args.tsv_columns)
        data, skipped = corpus.read_tsv(path, columns, scheme, args.remap_ordinal)
    else:
        field_map = corpus.FIELD_MAP_PRESETS[args.format]
        data, skipped = corpus.read_jsonl(path, field_map, scheme, args.remap_ordinal)
    if split and not len(data):
        raise corpus.IngestError(f"{path}: the {split} split is empty "
                                 f"({skipped} records skipped at ingest)")
    return data, skipped, scheme


def _config_lines(args) -> list[str]:
    # out_dir excluded so artifacts do not depend on where they are written
    skip = {"func", "config", "out_dir"}
    return [f"{key}={getattr(args, key)}" for key in sorted(vars(args)) if key not in skip]


def _add_data_flags(parser, roles, scheme_flags=True):
    for role in roles:
        parser.add_argument(f"--{role}", required=True, metavar="PATH",
                            help=f"{role} corpus file")
    parser.add_argument("--format", choices=["native", "snli", "tsv"], default="native",
                        help="input format preset")
    parser.add_argument("--tsv-columns", default="premise=0,hypothesis=1,label=2",
                        help="role=column pairs for --format tsv")
    if scheme_flags:
        parser.add_argument("--scheme", choices=sorted(corpus.SCHEME_PRESETS),
                            default="3way", help="label scheme preset")
        parser.add_argument("--labels", default=None,
                            help="comma-separated label names overriding --scheme")
    parser.add_argument("--remap-ordinal", action="store_true",
                        help="map 1-5 ordinal ratings onto the 3-way scheme")


def _add_common_flags(parser, seed=True):
    if seed:
        parser.add_argument("--seed", type=int, default=0, help="global seed")
    parser.add_argument("--out-dir", default=os.environ.get("HYPONLI_OUT_DIR", "."),
                        help="output directory (env HYPONLI_OUT_DIR)")
    parser.add_argument("--config", default=None, metavar="PATH",
                        help="key=value file presetting flags of this subcommand")


def cmd_stats(args) -> int:
    data, skipped, scheme = _read_corpus(args.data, args, _resolve_scheme(args), "data")
    counts = stats.count_corpus(data.hypotheses, data.labels, scheme)
    giveaways = stats.giveaway_words(counts, min_freq=args.min_freq, top_k=args.top_k)
    labels = range(len(scheme))
    curves = [stats.coverage_curve(counts, label, grid_step=args.grid_step,
                                   per_label=args.per_label_threshold)
              for label in labels]
    digest = ["# Word statistics digest", "",
              f"- source: {args.data} (split label: {args.split_name})",
              f"- sentences: {counts.n_sentences} (skipped at ingest: {skipped})"]
    digest += [f"- {scheme.names[label]}: {counts.count_l(label)} sentences" for label in labels]
    for label in labels:
        digest += ["", f"## Top give-away words: {scheme.names[label]}", ""]
        digest += markdown_table(["Word", "Score", "Freq"],
                                 ([entry.token, f"{entry.score:.2f}", entry.frequency]
                                  for entry in giveaways[label]))
    digest += ["", "## Coverage at selected thresholds", ""]
    thresholds = (0.5, 0.75, 1.0)
    digest += markdown_table(
        ["Label", *(f"y({x})" for x in thresholds)],
        ([scheme.names[label], *(stats.coverage_count(counts, label, x, args.per_label_threshold)
                                 for x in thresholds)] for label in labels))
    digest += ["", *config_block(_config_lines(args))]

    out = args.out_dir
    atomic_write_text(os.path.join(out, "giveaways.csv"),
                      stats.giveaways_to_csv(giveaways, scheme))
    atomic_write_text(os.path.join(out, "coverage.csv"), stats.curves_to_csv(curves, scheme))
    atomic_write_text(os.path.join(out, "counts_summary.csv"),
                      stats.counts_summary_csv(counts))
    atomic_write_text(os.path.join(out, "stats_digest.md"), "\n".join(digest) + "\n")
    print(f"stats: {counts.n_sentences} sentences -> {out}")
    return 0


def _build_model(args, scheme, vocab, seed):
    if args.embeddings:
        emb = text.load_embeddings(args.embeddings, vocab, args.embedding_dim)
    else:
        emb = text.seeded_random_embeddings(vocab, args.embedding_dim, seed + 1)
    config = model.ModelConfig(
        encoder_kind=args.encoder,
        embedding_dim=args.embedding_dim,
        hidden_dim=args.hidden_dim,
        mlp_hidden=args.mlp_hidden,
        n_labels=len(scheme),
        seed=seed + 2,
        finetune_embeddings=args.finetune_embeddings,
    )
    return model.ModelParameters.init(config, emb, vocab, scheme)


def cmd_train_eval(args) -> int:
    splits, scheme = {}, _resolve_scheme(args)
    for name, path in (("train", args.train), ("dev", args.dev), ("test", args.test)):
        if not path:  # only --test is optional
            continue
        splits[name], skipped, scheme = _read_corpus(path, args, scheme, name)
    # one CSR token corpus of every hypothesis, train first, then dev, then
    # test; each split is its range of rows
    vocab, ids, indptr = text.intern([h for data in splits.values() for h in data.hypotheses])
    tokens = (ids, indptr)
    ends = np.cumsum([len(data) for data in splits.values()])
    examples = {name: (np.arange(end - len(data), end), data.labels)
                for (name, data), end in zip(splits.items(), ends)}
    params = _build_model(args, scheme, vocab, args.seed)
    train_config = train.TrainConfig(
        lr0=args.lr0, decay=args.decay, divide_on_decline=args.divide_on_decline,
        lr_floor=args.lr_floor, max_epochs=args.max_epochs,
        batch_size=args.batch_size, seed=args.seed + 3,
    )
    out = args.out_dir
    try:
        best_params, state = train.fit(examples["train"], examples["dev"], tokens, params,
                                       train_config)
    except train.TrainAbort as exc:
        dump = os.path.join(out, "train_abort.csv")
        atomic_write_text(dump, exc.state.log_csv())
        print(f"training aborted: {exc}; state dump at {dump}", file=sys.stderr)
        return 1

    maj = corpus.majority_label(examples["train"][1])
    reports = []
    for name in list(splits)[1:]:  # dev, then test if given
        pred = model.predict_batch(examples[name][0], tokens, best_params)
        reports.append(evaluate.build_report(name, pred, splits[name].labels,
                                             splits[name].groups, scheme, maj))

    atomic_write_text(os.path.join(out, "train_log.csv"), state.log_csv())
    model.save_checkpoint(best_params, os.path.join(out, "model.ckpt"))
    atomic_write_text(os.path.join(out, "report.md"),
                      evaluate.report_markdown(reports, _config_lines(args)))
    atomic_write_text(os.path.join(out, "report.csv"), evaluate.report_csv(reports))
    dev_rep = reports[0]
    print(f"train-eval: dev hyp-only {evaluate.fmt2(dev_rep.hyp_only_acc)} "
          f"vs maj {evaluate.fmt2(dev_rep.maj_acc)} -> {out}")
    return 0


def cmd_synth(args) -> int:
    if args.n < 1:
        raise corpus.ConfigError(f"--n {args.n} is below 1")
    spec = synth.read_spec(args.spec_file)
    data = synth.generate(spec, args.n)
    bayes = synth.bayes_accuracy(spec)
    out = args.out_dir
    corpus.write_jsonl(data, os.path.join(out, "corpus.jsonl"), spec.scheme)
    meta = {"spec": dataclasses.asdict(spec), "n": args.n, "bayes_accuracy": bayes}
    atomic_write_text(os.path.join(out, "corpus.meta.json"),
                      json.dumps(meta, indent=2) + "\n")
    print(f"synth: {args.n} instances, bayes accuracy {bayes:.2f} -> {out}")
    return 0


def cmd_audit_sample(args) -> int:
    params = model.load_checkpoint(args.checkpoint)
    if args.remap_ordinal and params.scheme.names != corpus.THREE_WAY.names:
        raise corpus.ConfigError(f"--remap-ordinal needs a checkpoint with the 3-way labels "
                                 f"{', '.join(corpus.THREE_WAY.names)}; {args.checkpoint} "
                                 f"has {', '.join(params.scheme.names)}")
    data, _, _ = _read_corpus(args.data, args, params.scheme)
    pred = model.predict_batch(np.arange(len(data)), params.vocab.encode(data.hypotheses),
                               params)
    cells = evaluate.confusion_sample(pred, data.labels, args.n_per_cell, args.seed)
    text_out = evaluate.confusion_sample_text(cells, params.scheme, data.ids, data.hypotheses)
    atomic_write_text(os.path.join(args.out_dir, "audit_sample.txt"), text_out)
    total = sum(len(v) for v in cells.values())
    print(f"audit-sample: {total} rows across {len(cells)} cells -> {args.out_dir}")
    return 0


def cmd_split(args) -> int:
    try:
        ratios = tuple(float(r) for r in args.ratios.split(","))
    except ValueError:
        raise corpus.ConfigError(f"--ratios {args.ratios!r} is not a comma-separated "
                                 f"list of numbers") from None
    data, _, scheme = _read_corpus(args.data, args, _resolve_scheme(args))
    parts = dict(zip(("train", "dev", "test"),
                     corpus.random_split(data, ratios=ratios, seed=args.seed)))
    for name, part in parts.items():
        corpus.write_jsonl(part, os.path.join(args.out_dir, f"{name}.jsonl"), scheme)
    sizes = ", ".join(f"{name}={len(part)}" for name, part in parts.items())
    print(f"split: {sizes} -> {args.out_dir}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hyponli",
        description="Hypothesis-only diagnostics for NLI datasets",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser("stats", help="give-away words, coverage curves, counts")
    _add_data_flags(p, ["data"])
    _add_common_flags(p)
    p.add_argument("--split-name", default="dev", help="label for the digest")
    p.add_argument("--min-freq", type=int, default=5, help="candidate frequency floor")
    p.add_argument("--top-k", type=int, default=10, help="list length per label")
    p.add_argument("--grid-step", type=float, default=0.01, help="coverage grid step")
    p.add_argument("--per-label-threshold", action="store_true",
                   help="threshold p(label|w) instead of max over labels")
    p.set_defaults(func=cmd_stats)

    p = subparsers.add_parser("train-eval", help="train a hypothesis-only model and report gaps")
    _add_data_flags(p, ["train", "dev"])
    p.add_argument("--test", default=None, metavar="PATH", help="optional test corpus file")
    _add_common_flags(p)
    p.add_argument("--encoder", choices=list(model.ENCODER_KINDS), default="bag")
    p.add_argument("--embeddings", default=None, metavar="PATH",
                   help="word-vector text file (default: seeded random vectors)")
    p.add_argument("--embedding-dim", type=int, default=50)
    p.add_argument("--hidden-dim", type=int, default=64)
    p.add_argument("--mlp-hidden", type=int, default=64)
    p.add_argument("--finetune-embeddings", action="store_true")
    p.add_argument("--lr0", type=float, default=0.1)
    p.add_argument("--decay", type=float, default=0.99)
    p.add_argument("--divide-on-decline", type=float, default=5.0)
    p.add_argument("--lr-floor", type=float, default=1e-5)
    p.add_argument("--max-epochs", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=64)
    p.set_defaults(func=cmd_train_eval)

    p = subparsers.add_parser("synth", help="generate a synthetic biased corpus")
    _add_common_flags(p, seed=False)  # the spec's "seed" governs
    p.add_argument("--spec-file", required=True, metavar="PATH", help="JSON generator spec")
    p.add_argument("--n", type=int, required=True, help="number of instances")
    p.set_defaults(func=cmd_synth)

    p = subparsers.add_parser("audit-sample", help="stratified confusion-cell sample")
    _add_data_flags(p, ["data"], scheme_flags=False)
    _add_common_flags(p)
    p.add_argument("--checkpoint", required=True, metavar="PATH")
    p.add_argument("--n-per-cell", type=int, default=50)
    p.set_defaults(func=cmd_audit_sample)

    p = subparsers.add_parser("split", help="random 80:10:10 split of one corpus file")
    _add_data_flags(p, ["data"])
    _add_common_flags(p)
    p.add_argument("--ratios", default="0.8,0.1,0.1", help="train,dev,test ratios")
    p.set_defaults(func=cmd_split)

    return parser, subparsers.choices


_BOOLEAN_WORDS = {"1": True, "0": False, "true": True, "false": False,
                  "yes": True, "no": False, "on": True, "off": False}


def _apply_config_file(parser, subcommands, argv):
    args = parser.parse_args(argv)
    if not getattr(args, "config", None):
        return args
    sub = subcommands[args.command]
    defaults = {}
    for _, line in numbered_lines(args.config):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        defaults[key.strip().replace("-", "_")] = value.strip()
    actions = {action.dest: action for action in sub._actions}
    coerced = {}
    for key, value in defaults.items():
        action = actions.get(key)
        if action is None:
            raise corpus.ConfigError(f"{args.config}: unknown option {key!r}")
        flag = isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction))
        if flag:
            value = value.lower()
        elif action.type is not None:
            try:
                value = action.type(value)
            except ValueError:
                raise corpus.ConfigError(f"{args.config}: {key}={value!r} is not "
                                         f"of type {action.type.__name__}") from None
        choices = _BOOLEAN_WORDS if flag else action.choices
        if choices is not None and value not in choices:
            raise corpus.ConfigError(f"{args.config}: {key}={value!r} is not one of "
                                     f"{', '.join(map(str, choices))}")
        coerced[key] = _BOOLEAN_WORDS[value] if flag else value
    sub.set_defaults(**coerced)
    return parser.parse_args(argv)


def _check_out_dir(path) -> None:
    """Raise ConfigError unless path is a directory or could be made one:
    its nearest existing ancestor, itself included, must be a directory.
    Nothing is created, so a run that fails later leaves no directory."""
    probe = os.path.abspath(path)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise corpus.ConfigError(f"--out-dir {path}: {probe} is not a directory")


def main(argv=None) -> int:
    parser, subcommands = build_parser()
    try:
        args = _apply_config_file(parser, subcommands, argv)
        _check_out_dir(args.out_dir)  # before any input is read
        return args.func(args)
    except (ValueError, OSError) as exc:  # ingest, config and embedding errors included
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
