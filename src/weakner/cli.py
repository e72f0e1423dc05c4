"""Command-line entry point.

Subcommands wire the library into reproducible pipelines:

    weakner synthetic  generate a gold corpus + gazetteer + dictionary
                       (optionally run the full experiment grid)
    weakner split      seed/corpus/hidden-gold split of a labeled file
    weakner match      gazetteer search (the paper's C1 or C2) over a corpus file
    weakner bootstrap  the iterative training loop, with checkpoints
    weakner predict    Viterbi-decode a file with a saved model
    weakner eval       entity-level P/R/F1 of a model on a gold file

Options can also come from a flat config file, given after the command as
--config PATH: each key=value line is read as the option --key=value (with _
read as -), placed before the command line's own options, so those win.
Blank and # lines are skipped. Flags take yes/no values (--grid, --grid=no);
abbreviated options are rejected. --entity-type names one type, and all
randomness flows from --rng-seed. Exit codes: 0 ok, 1 usage error, 2 data
error, 3 internal error; a bad setting's message starts with its option.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from .bootstrap import BootstrapConfig, finalize, iterative_train
from .corpus import TagSet, gold_spans, read_conll, split_seed, text_lines, write_conll, write_lines
from .errors import EmptyDataset, SpecInvalid, WeaknerError
from .experiments import GridConfig, run_experiment_grid, format_grid_table, write_grid_tsv
from .metrics import evaluate_model, write_tsv
from .refset import (
    audit_matcher,
    exact_policy,
    filtered_policy,
    find_matches,
    load_dictionary,
    load_reference_set,
)
from .synthetic import SyntheticSpec, generate_synthetic
from .tagger import TaggerModel, predict_dataset_hard


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def option(self, dest):
        """The option that stores into dest, or None."""
        for action in self._actions:
            if action.dest == dest and action.option_strings:
                return action.option_strings[0]
        return None


def _yes_no(raw):
    low = raw.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected yes or no, not {raw!r}")


def _opt(parser, name, help_text, type=str, default=None, field=None, **kw):
    """--name, stored under `field`, the config field or parameter it fills
    (else under name); an error about that field names --name (see _named)."""
    parser.add_argument("--" + name.replace("_", "-"), dest=field or name, type=type,
                        default=default, help=help_text, metavar=name.upper(), **kw)


def _flag(parser, name, help_text):
    parser.add_argument("--" + name.replace("_", "-"), dest=name, type=_yes_no, nargs="?",
                        const=True, default=False, help=help_text, metavar="yes|no")


def _named(error, ns):
    """error's message, led by the options that fill the fields it names
    (error.field is an option's dest or a tuple of them), when the command
    has them all."""
    parser, field = getattr(ns, "parser", None), getattr(error, "field", None)
    dests = field if isinstance(field, tuple) else (field,)
    options = [parser and parser.option(dest) for dest in dests]
    return f"{'/'.join(options)}: {error}" if all(options) else str(error)


def _config(cls, ns):
    """A BootstrapConfig, GridConfig or SyntheticSpec from the options whose
    dest is one of its fields; the others keep the class default."""
    given = vars(ns)
    return cls(**{f.name: given[f.name] for f in fields(cls) if f.name in given})


def _with_config(argv):
    """argv with the key=value lines of each --config file spliced in as
    --key=value options right after the command; argparse keeps the last
    value, so the command line's own options win."""
    head, rest, from_files = argv[:1], [], []
    args = iter(argv[1:])
    for arg in args:
        if arg == "--config":
            arg += "=" + next(args, "")
        if not arg.startswith("--config="):
            rest.append(arg)
            continue
        path = arg[len("--config="):]
        try:
            lines = list(text_lines(path))
        except OSError as e:
            raise UsageError(f"cannot read config file: {e}") from None
        for line_no, line in enumerate(lines, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            if not eq:
                raise UsageError(f"{path}:{line_no}: expected key=value")
            from_files.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return head + from_files + rest


def _tags(ns) -> TagSet:
    """The tag set of the one type --entity-type names; strips ns.entity_type for SyntheticSpec."""
    name = ns.entity_type = ns.entity_type.strip()
    if "," in name:
        raise UsageError(f"--entity-type: one type name, not the list {name!r}")
    try:
        return TagSet((name,))
    except WeaknerError as e:
        raise UsageError(f"--entity-type: {e}") from None


def _read_gold(path, tags: TagSet):
    """A labeled file to score against, checked by corpus.gold_spans before
    any matching or training; its error names the file."""
    gold = read_conll(path, tags)
    try:
        gold_spans(gold, tags)
    except EmptyDataset as e:
        raise EmptyDataset(f"{path}: {e}") from None
    return gold


def _build_policy(ns):
    """The paper's C1, exact_policy(), for --policy c1 (the default), or its C2,
    filtered_policy over the --dictionary words, for c2. Other policies are
    built from refset.MatchPolicy in Python."""
    if ns.policy == "c2" and not ns.dictionary:
        raise UsageError("--policy c2 needs --dictionary")
    if ns.policy != "c2" and ns.dictionary:
        raise UsageError("--dictionary needs --policy c2")
    return filtered_policy(load_dictionary(ns.dictionary)) if ns.dictionary else exact_policy()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_split(ns) -> int:
    tags = _tags(ns)
    dataset = read_conll(ns.input, tags)
    seed, corpus, gold = split_seed(dataset, ns.fraction, ns.rng_seed)
    os.makedirs(ns.out_dir, exist_ok=True)
    write_conll(seed, os.path.join(ns.out_dir, "seed.conll"), tags)
    write_conll(corpus, os.path.join(ns.out_dir, "corpus.conll"), tags)
    write_conll(gold, os.path.join(ns.out_dir, "gold.conll"), tags)
    print(f"seed: {len(seed)} sentences, corpus: {len(corpus)} sentences")
    return 0


def cmd_match(ns) -> int:
    tags = _tags(ns)
    if ns.criterion and not ns.gold:
        raise UsageError("--criterion needs --gold")
    policy = _build_policy(ns)
    refset = load_reference_set(ns.refset, *tags.entity_types)
    corpus = read_conll(ns.corpus, tags)
    gold = _read_gold(ns.gold, tags) if ns.gold else None
    if gold is not None and gold.sentences != corpus.sentences:
        raise WeaknerError(f"{ns.gold}: its sentences are not those of {ns.corpus}")
    matches = find_matches(corpus, refset, policy)
    os.makedirs(ns.out_dir, exist_ok=True)
    out_path = os.path.join(ns.out_dir, "matches.tsv")
    write_tsv(out_path, ("sentence", "first", "last", "name"),
              ((m.sentence, m.first, m.last, m.name) for m in matches))
    print(f"{len(matches)} matches -> {out_path}")
    if gold is not None:
        p, r = audit_matcher(matches, gold, tags, criterion=ns.criterion or "exact")
        print(f"matcher P={100 * p:.2f} R={100 * r:.2f}")
    return 0


def cmd_bootstrap(ns) -> int:
    tags = _tags(ns)
    seed = read_conll(ns.seed, tags)
    corpus = read_conll(ns.corpus, tags)
    policy = _build_policy(ns)
    refset = load_reference_set(ns.refset, *tags.entity_types)
    heldout = _read_gold(ns.heldout, tags) if ns.heldout else None

    cfg = _config(BootstrapConfig, ns)
    pins = find_matches(corpus, refset, policy)
    model, trace = iterative_train(
        seed, corpus, tags, cfg, pins, heldout=heldout, checkpoint_dir=ns.out_dir
    )
    model.save(os.path.join(ns.out_dir, "final_soft.model"))
    if not ns.no_final:
        crf_model = finalize(model, seed, corpus, cfg, pins)
        crf_model.save(os.path.join(ns.out_dir, "final_crf.model"))
    last = trace[-1]
    print(f"done: {len(trace)} checkpoints, {last.pinned_tokens} pinned tokens/round")
    if last.report is not None:
        print(f"held-out {last.report}")
    return 0


def cmd_predict(ns) -> int:
    model = TaggerModel.load(ns.model)
    data = read_conll(ns.input, model.tags)
    pred = predict_dataset_hard(model, data)
    write_conll(pred, ns.out, model.tags)
    print(f"{len(pred)} sentences -> {ns.out}")
    return 0


def cmd_eval(ns) -> int:
    model = TaggerModel.load(ns.model)
    gold = _read_gold(ns.data, model.tags)
    report = evaluate_model(model, gold, mode=ns.mode)
    print(report)
    return 0


def cmd_synthetic(ns) -> int:
    tags = _tags(ns)
    try:
        spec = _config(SyntheticSpec, ns)
    except SpecInvalid as e:
        raise UsageError(_named(e, ns)) from None
    grid_cfg = _config(GridConfig, ns) if ns.grid else None    # checked before any file is written
    gold, refset, dictionary = generate_synthetic(spec)
    os.makedirs(ns.out_dir, exist_ok=True)
    write_conll(gold, os.path.join(ns.out_dir, "gold.conll"), tags)
    write_lines(os.path.join(ns.out_dir, "refset.txt"), sorted(refset.names))
    write_lines(os.path.join(ns.out_dir, "dictionary.txt"), sorted(dictionary))
    print(f"{len(gold)} sentences, {len(refset)} names -> {ns.out_dir}")

    if grid_cfg is not None:
        rows = run_experiment_grid(gold, tags, refset, dictionary, cfg=grid_cfg)
        write_grid_tsv(rows, os.path.join(ns.out_dir, "report.tsv"))
        table = format_grid_table(rows)
        write_lines(os.path.join(ns.out_dir, "report.txt"), [table])
        models_dir = os.path.join(ns.out_dir, "models")
        os.makedirs(models_dir, exist_ok=True)
        for row in rows:
            row.model.save(os.path.join(models_dir, f"{row.condition.cid}.model"))
        print(table)
    return 0


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def _policy_opts(p):
    _opt(p, "policy", "matching policy: c1 exact, c2 filtered", choices=["c1", "c2"])
    _opt(p, "dictionary", "dictionary word list for c2 (one word per line)")


def _train_opts(p):
    _opt(p, "epochs", "training epochs per round", int, BootstrapConfig.round_epochs,
         field="round_epochs")
    _opt(p, "seed_epochs", "epochs for the initial seed model", int, BootstrapConfig.seed_epochs)
    _opt(p, "final_epochs", "epochs for the final sequence-mode retrain", int,
         BootstrapConfig.final_epochs)
    _opt(p, "learning_rate", "initial SGD learning rate", float, BootstrapConfig.learning_rate)
    _opt(p, "decay", "inverse-time learning-rate decay", float, BootstrapConfig.decay)
    _opt(p, "l2", "L2 regularization strength", float, BootstrapConfig.l2)


_UNUSED_TAGS = "token and tag columns as in a label file; tags unused but must be in the tag set"


def build_parser():
    parser = _Parser(prog="weakner", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)

    def add_parser(name, help_text, run):
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.set_defaults(run=run, parser=p)
        return p

    p = add_parser("split", "split a labeled file into seed/corpus/gold", cmd_split)
    _opt(p, "input", "labeled input file", required=True)
    _opt(p, "seed_frac", "fraction of sentences kept as seed", float, GridConfig.seed_fraction,
         field="fraction")
    _opt(p, "rng_seed", "random seed", int, 0)
    _opt(p, "entity_type", "the one entity type of the tags", default=SyntheticSpec.entity_type)
    _opt(p, "out_dir", "output directory", required=True)

    p = add_parser("match", "find gazetteer mentions in a corpus", cmd_match)
    _opt(p, "corpus", f"corpus file, {_UNUSED_TAGS}", required=True)
    _opt(p, "refset", "reference set, one name per line", required=True)
    _opt(p, "entity_type", "one type, of tags and refset names", default=SyntheticSpec.entity_type)
    _opt(p, "gold", "gold file for a matcher audit")
    _opt(p, "criterion", "audit criterion, with --gold (default exact)",
         choices=["exact", "overlap"])
    _opt(p, "out_dir", "output directory", required=True)
    _policy_opts(p)

    p = add_parser("bootstrap", "iterative weakly-supervised training", cmd_bootstrap)
    _opt(p, "seed", "labeled seed file", required=True)
    _opt(p, "corpus", f"unlabeled corpus file, {_UNUSED_TAGS}", required=True)
    _opt(p, "refset", "reference set file", required=True)
    _opt(p, "entity_type", "one type, of tags and refset names", default=SyntheticSpec.entity_type)
    _opt(p, "heldout", "labeled file for per-round evaluation")
    _opt(p, "iterations", "number of refinement rounds", int, BootstrapConfig.iterations)
    _opt(p, "rng_seed", "random seed", int, BootstrapConfig.rng_seed)
    _flag(p, "no_final", "skip the final sequence-mode retrain")
    _opt(p, "out_dir", "output directory", required=True)
    _policy_opts(p)
    _train_opts(p)

    p = add_parser("predict", "decode a file with a saved model", cmd_predict)
    _opt(p, "model", "model file", required=True)
    _opt(p, "input", f"input file, {_UNUSED_TAGS}", required=True)
    _opt(p, "out", "output file", required=True)

    p = add_parser("eval", "score a model on a gold file", cmd_eval)
    _opt(p, "model", "model file", required=True)
    _opt(p, "data", "gold labeled file", required=True)
    _opt(p, "mode", "decoding mode", default="hard", choices=["hard", "soft"])

    p = add_parser("synthetic", "generate a synthetic corpus (and optionally run the grid)",
                   cmd_synthetic)
    spec = SyntheticSpec    # the corpus options default to the spec's fields
    _opt(p, "sentences", "number of sentences", int, spec.n_sentences, field="n_sentences")
    _opt(p, "entity_names", "entity vocabulary size", int, spec.n_entity_names,
         field="n_entity_names")
    _opt(p, "context_words", "context vocabulary size", int, spec.n_context_words,
         field="n_context_words")
    _opt(p, "distractors", "name-shaped non-entity vocabulary size", int, spec.n_distractors,
         field="n_distractors")
    _opt(p, "ambiguity", "fraction of names that are dictionary words", float,
         spec.ambiguity_rate, field="ambiguity_rate")
    _opt(p, "hyphenation", "fraction of mentions inside compounds", float,
         spec.hyphenation_rate, field="hyphenation_rate")
    _opt(p, "short_rate", "fraction of names shorter than 4 chars", float,
         spec.short_name_rate, field="short_name_rate")
    _opt(p, "multiword_rate", "fraction of two-word names", float, spec.multiword_name_rate,
         field="multiword_name_rate")
    _opt(p, "entity_type", "one entity type, of tags and reference names", default=spec.entity_type)
    _opt(p, "rng_seed", "random seed", int, spec.rng_seed)
    _opt(p, "out_dir", "output directory", required=True)
    _flag(p, "grid", "run the E1-E9 experiment grid")
    _opt(p, "seed_frac", "seed fraction for the grid", float, GridConfig.seed_fraction,
         field="seed_fraction")
    _opt(p, "test_frac", "held-out test fraction for the grid", float, GridConfig.test_fraction,
         field="test_fraction")
    _opt(p, "iterations", "refinement rounds for the grid", int, BootstrapConfig.iterations)
    _opt(p, "full_epochs", "epochs for the fully-supervised rows", int, GridConfig.full_epochs)
    _train_opts(p)

    return parser


def main(argv=None) -> int:
    parser, args = build_parser(), None
    try:
        args = parser.parse_args(_with_config(sys.argv[1:] if argv is None else list(argv)))
        if args.command is None:
            raise UsageError("no command given (see --help)")
        return args.run(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (WeaknerError, OSError) as e:
        print(f"data error: {_named(e, args)}", file=sys.stderr)
        return 2
    except Exception as e:  # any other error is a bug: exit 3
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
