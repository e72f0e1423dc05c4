"""Command-line entry point.

Subcommands wire the library into reproducible pipelines:

    weakner synthetic  generate a gold corpus + gazetteer + dictionary
                       (optionally run the full experiment grid)
    weakner split      seed/corpus/hidden-gold split of a labeled file
    weakner match      gazetteer search over a corpus file
    weakner bootstrap  the iterative training loop, with checkpoints
    weakner predict    Viterbi-decode a file with a saved model
    weakner eval       entity-level P/R/F1 of a model on a gold file

Every option can also come from a flat key=value config file (--config);
command-line flags win. All randomness flows from --rng-seed. Exit codes:
0 ok, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .bootstrap import BootstrapConfig, finalize, iterative_train
from .corpus import DatasetKind, TagSet, read_conll, split_seed, write_conll
from .errors import SpecInvalid, WeaknerError
from .experiments import GridConfig, run_experiment_grid, format_grid_table, write_grid_tsv
from .metrics import evaluate_model
from .refset import (
    MatchPolicy,
    audit_matcher,
    filtered_policy,
    find_matches,
    load_dictionary,
    load_reference_set,
)
from .synthetic import SyntheticSpec, generate_synthetic
from .tagger import Objective, TaggerModel, TrainConfig, predict_dataset_hard, train

_REQUIRED = object()


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _opt(parser, spec, name, typ, default, help_text, choices=None, flag=False):
    """Register an option that can come from the CLI or the config file."""
    spec[name] = (typ, default)
    arg = "--" + name.replace("_", "-")
    if flag:
        parser.add_argument(arg, dest=name, action="store_const", const=True,
                            default=None, help=help_text)
    else:
        parser.add_argument(arg, dest=name, type=str, default=None,
                            choices=choices, help=help_text, metavar=name.upper())


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _convert(raw, typ, key):
    try:
        if typ is bool:
            low = raw.lower()
            if low in _TRUE:
                return True
            if low in _FALSE:
                return False
            raise ValueError(raw)
        return typ(raw)
    except ValueError:
        raise UsageError(f"bad value for {key}: {raw!r}") from None


def _read_config(path):
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{line_no}: expected key=value")
                key, _, val = line.partition("=")
                values[key.strip().replace("-", "_")] = val.strip()
    except OSError as e:
        raise UsageError(f"cannot read config file: {e}") from None
    return values


def _resolve(args, spec):
    """Merge defaults < config file < command-line flags; reject unknown keys."""
    cfg = _read_config(args.config) if args.config else {}
    unknown = sorted(set(cfg) - set(spec))
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    out = argparse.Namespace()
    for key, (typ, default) in spec.items():
        cli = getattr(args, key, None)
        if cli is not None:
            value = cli if isinstance(cli, bool) else _convert(cli, typ, key)
        elif key in cfg:
            value = _convert(cfg[key], typ, key)
        else:
            value = default
        if value is _REQUIRED:
            raise UsageError(f"missing required option --{key.replace('_', '-')}")
        setattr(out, key, value)
    return out


def _tags(entity_types: str) -> TagSet:
    types = tuple(t.strip() for t in entity_types.split(",") if t.strip())
    if not types:
        raise UsageError("empty --entity-type")
    return TagSet(types)


def _check_fraction(name, value):
    if not 0.0 < value < 1.0:
        raise UsageError(f"--{name} must be strictly between 0 and 1, got {value}")


def _build_policy(ns):
    """Policy from --policy preset plus explicit flag overrides."""
    dictionary = load_dictionary(ns.dictionary) if ns.dictionary else None
    if ns.policy == "c2":
        if dictionary is None:
            raise UsageError("--policy c2 needs --dictionary")
        base = filtered_policy(dictionary)
    else:
        base = MatchPolicy(dictionary_filter=dictionary)
    changes = {}
    if ns.min_name_len is not None:
        changes["min_name_length"] = ns.min_name_len
    if ns.case_insensitive:
        changes["case_sensitive"] = False
    if ns.partial:
        changes["allow_partial"] = True
    return replace(base, **changes) if changes else base


def _train_cfg(ns, epochs, objective):
    return TrainConfig(
        epochs=epochs,
        learning_rate=ns.learning_rate,
        decay=ns.decay,
        l2=ns.l2,
        rng_seed=ns.rng_seed,
        objective=objective,
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_split(ns) -> int:
    _check_fraction("seed-frac", ns.seed_frac)
    tags = _tags(ns.entity_type)
    dataset = read_conll(ns.input, tags)
    seed, corpus, gold = split_seed(dataset, ns.seed_frac, ns.rng_seed)
    os.makedirs(ns.out_dir, exist_ok=True)
    write_conll(seed, os.path.join(ns.out_dir, "seed.conll"), tags)
    write_conll(corpus, os.path.join(ns.out_dir, "corpus.conll"), tags)
    write_conll(gold, os.path.join(ns.out_dir, "gold.conll"), tags)
    print(f"seed: {len(seed)} sentences, corpus: {len(corpus)} sentences")
    return 0


def cmd_match(ns) -> int:
    tags = _tags(ns.entity_type)
    policy = _build_policy(ns)
    refset = load_reference_set(ns.refset, tags.entity_types[0])
    corpus = read_conll(ns.corpus, tags, DatasetKind.CORPUS)
    matches = find_matches(corpus, refset, policy)
    os.makedirs(ns.out_dir, exist_ok=True)
    out_path = os.path.join(ns.out_dir, "matches.tsv")
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("sentence\tfirst\tlast\tname\n")
        for m in matches:
            fh.write(f"{m.sentence}\t{m.first}\t{m.last}\t{m.name}\n")
    print(f"{len(matches)} matches -> {out_path}")
    if ns.gold:
        gold = read_conll(ns.gold, tags)
        p, r = audit_matcher(matches, gold, tags, criterion=ns.criterion)
        print(f"matcher P={100 * p:.2f} R={100 * r:.2f}")
    return 0


def cmd_bootstrap(ns) -> int:
    tags = _tags(ns.entity_type)
    seed = read_conll(ns.seed, tags)
    corpus = read_conll(ns.corpus, tags, DatasetKind.CORPUS)
    policy = _build_policy(ns)
    refset = load_reference_set(ns.refset, tags.entity_types[0])
    heldout = read_conll(ns.heldout, tags) if ns.heldout else None

    seed_epochs = ns.seed_epochs if ns.seed_epochs is not None else ns.epochs
    cfg = BootstrapConfig(
        iterations=ns.iterations,
        round_train=_train_cfg(ns, ns.epochs, Objective.MARGINAL),
        seed_train=_train_cfg(ns, seed_epochs, Objective.MARGINAL),
        final_train=_train_cfg(ns, ns.final_epochs, Objective.SEQUENCE),
    )
    os.makedirs(ns.out_dir, exist_ok=True)
    pins = find_matches(corpus, refset, policy)
    model, trace = iterative_train(
        seed, corpus, tags, cfg, pins, heldout=heldout, checkpoint_dir=ns.out_dir
    )
    model.save(os.path.join(ns.out_dir, "final_soft.model"))
    if not ns.no_final:
        crf_model = finalize(model, seed, corpus, tags, cfg, pins)
        crf_model.save(os.path.join(ns.out_dir, "final_crf.model"))
    last = trace.rows[-1]
    print(f"done: {len(trace)} checkpoints, {last.pinned_tokens} pinned tokens/round")
    if last.report is not None:
        print(f"held-out {last.report}")
    return 0


def cmd_predict(ns) -> int:
    model = TaggerModel.load(ns.model)
    data = read_conll(ns.input, model.tags, DatasetKind.CORPUS)
    pred = predict_dataset_hard(model, data)
    write_conll(pred, ns.out, model.tags)
    print(f"{len(pred)} sentences -> {ns.out}")
    return 0


def cmd_eval(ns) -> int:
    model = TaggerModel.load(ns.model)
    gold = read_conll(ns.data, model.tags)
    report = evaluate_model(model, gold, mode=ns.mode)
    print(report)
    return 0


def cmd_synthetic(ns) -> int:
    try:
        spec = SyntheticSpec(
            n_sentences=ns.sentences,
            n_entity_names=ns.entity_names,
            n_context_words=ns.context_words,
            n_distractors=ns.distractors,
            ambiguity_rate=ns.ambiguity,
            hyphenation_rate=ns.hyphenation,
            short_name_rate=ns.short_rate,
            multiword_name_rate=ns.multiword_rate,
            entity_type=ns.entity_type,
            rng_seed=ns.rng_seed,
        )
    except SpecInvalid as e:
        raise UsageError(str(e)) from None
    gold, refset, dictionary = generate_synthetic(spec)
    tags = TagSet((spec.entity_type,))
    os.makedirs(ns.out_dir, exist_ok=True)
    write_conll(gold, os.path.join(ns.out_dir, "gold.conll"), tags)
    with open(os.path.join(ns.out_dir, "refset.txt"), "w", encoding="utf-8", newline="\n") as fh:
        for name in sorted(refset.names):
            fh.write(name + "\n")
    with open(os.path.join(ns.out_dir, "dictionary.txt"), "w", encoding="utf-8", newline="\n") as fh:
        for word in sorted(dictionary):
            fh.write(word + "\n")
    print(f"{len(gold)} sentences, {len(refset)} names -> {ns.out_dir}")

    if ns.grid:
        grid_cfg = GridConfig(
            seed_fraction=ns.seed_frac,
            test_fraction=ns.test_frac,
            iterations=ns.iterations,
            seed_epochs=ns.seed_epochs if ns.seed_epochs is not None else 12,
            round_epochs=ns.epochs,
            full_epochs=ns.full_epochs,
            final_epochs=ns.final_epochs,
            learning_rate=ns.learning_rate,
            decay=ns.decay,
            l2=ns.l2,
            min_name_length=ns.min_name_len if ns.min_name_len is not None else 4,
            rng_seed=ns.rng_seed,
        )
        rows = run_experiment_grid(gold, tags, refset, dictionary, cfg=grid_cfg)
        write_grid_tsv(rows, os.path.join(ns.out_dir, "report.tsv"))
        table = format_grid_table(rows)
        with open(os.path.join(ns.out_dir, "report.txt"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(table + "\n")
        models_dir = os.path.join(ns.out_dir, "models")
        os.makedirs(models_dir, exist_ok=True)
        for row in rows:
            row.model.save(os.path.join(models_dir, f"{row.condition.cid}.model"))
        print(table)
    return 0


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def _policy_opts(p, spec):
    _opt(p, spec, "policy", str, None, "matching policy preset", choices=["c1", "c2"])
    _opt(p, spec, "dictionary", str, None, "dictionary word list (one word per line)")
    _opt(p, spec, "min_name_len", int, None, "minimum name length in characters")
    _opt(p, spec, "case_insensitive", bool, False, "case-insensitive matching", flag=True)
    _opt(p, spec, "partial", bool, False, "allow hyphen/slash component matches", flag=True)


def _train_opts(p, spec):
    _opt(p, spec, "epochs", int, 3, "training epochs per round")
    _opt(p, spec, "seed_epochs", int, None, "epochs for the initial seed model")
    _opt(p, spec, "final_epochs", int, 6, "epochs for the final sequence-mode retrain")
    _opt(p, spec, "learning_rate", float, 0.25, "initial SGD learning rate")
    _opt(p, spec, "decay", float, 0.08, "inverse-time learning-rate decay")
    _opt(p, spec, "l2", float, 1e-4, "L2 regularization strength")


def build_parser():
    parser = _Parser(prog="weakner", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)
    specs = {}

    def add_parser(name, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--config", default=None, help="flat key=value config file")
        return p

    p = add_parser("split", help="split a labeled file into seed/corpus/gold")
    s = specs["split"] = {}
    _opt(p, s, "input", str, _REQUIRED, "labeled input file")
    _opt(p, s, "seed_frac", float, 0.03, "fraction of sentences kept as seed")
    _opt(p, s, "rng_seed", int, 0, "random seed")
    _opt(p, s, "entity_type", str, "PROT", "comma-separated entity type names")
    _opt(p, s, "out_dir", str, _REQUIRED, "output directory")

    p = add_parser("match", help="find gazetteer mentions in a corpus")
    s = specs["match"] = {}
    _opt(p, s, "corpus", str, _REQUIRED, "corpus file (tags ignored)")
    _opt(p, s, "refset", str, _REQUIRED, "reference set, one name per line")
    _opt(p, s, "entity_type", str, "PROT", "entity type of the reference set")
    _opt(p, s, "gold", str, None, "gold file for a matcher audit")
    _opt(p, s, "criterion", str, "exact", "audit criterion", choices=["exact", "overlap"])
    _opt(p, s, "out_dir", str, _REQUIRED, "output directory")
    _policy_opts(p, s)

    p = add_parser("bootstrap", help="iterative weakly-supervised training")
    s = specs["bootstrap"] = {}
    _opt(p, s, "seed", str, _REQUIRED, "labeled seed file")
    _opt(p, s, "corpus", str, _REQUIRED, "unlabeled corpus file")
    _opt(p, s, "refset", str, _REQUIRED, "reference set file")
    _opt(p, s, "entity_type", str, "PROT", "comma-separated entity type names")
    _opt(p, s, "heldout", str, None, "labeled file for per-round evaluation")
    _opt(p, s, "iterations", int, 10, "number of refinement rounds")
    _opt(p, s, "rng_seed", int, 0, "random seed")
    _opt(p, s, "no_final", bool, False, "skip the final sequence-mode retrain", flag=True)
    _opt(p, s, "out_dir", str, _REQUIRED, "output directory")
    _policy_opts(p, s)
    _train_opts(p, s)

    p = add_parser("predict", help="decode a file with a saved model")
    s = specs["predict"] = {}
    _opt(p, s, "model", str, _REQUIRED, "model file")
    _opt(p, s, "input", str, _REQUIRED, "input file (tags ignored)")
    _opt(p, s, "out", str, _REQUIRED, "output file")

    p = add_parser("eval", help="score a model on a gold file")
    s = specs["eval"] = {}
    _opt(p, s, "model", str, _REQUIRED, "model file")
    _opt(p, s, "data", str, _REQUIRED, "gold labeled file")
    _opt(p, s, "mode", str, "hard", "decoding mode", choices=["hard", "soft"])

    p = add_parser("synthetic", help="generate a synthetic corpus (and optionally run the grid)")
    s = specs["synthetic"] = {}
    _opt(p, s, "sentences", int, 2000, "number of sentences")
    _opt(p, s, "entity_names", int, 300, "entity vocabulary size")
    _opt(p, s, "context_words", int, 400, "context vocabulary size")
    _opt(p, s, "distractors", int, 60, "name-shaped non-entity vocabulary size")
    _opt(p, s, "ambiguity", float, 0.3, "fraction of names that are dictionary words")
    _opt(p, s, "hyphenation", float, 0.2, "fraction of mentions inside compounds")
    _opt(p, s, "short_rate", float, 0.05, "fraction of names shorter than 4 chars")
    _opt(p, s, "multiword_rate", float, 0.05, "fraction of two-word names")
    _opt(p, s, "entity_type", str, "PROT", "entity type name")
    _opt(p, s, "rng_seed", int, 0, "random seed")
    _opt(p, s, "out_dir", str, _REQUIRED, "output directory")
    _opt(p, s, "grid", bool, False, "run the E1-E9 experiment grid", flag=True)
    _opt(p, s, "seed_frac", float, 0.03, "seed fraction for the grid")
    _opt(p, s, "test_frac", float, 0.2, "held-out test fraction for the grid")
    _opt(p, s, "iterations", int, 10, "refinement rounds for the grid")
    _opt(p, s, "full_epochs", int, 6, "epochs for the fully-supervised rows")
    _opt(p, s, "min_name_len", int, None, "minimum name length for the C2 rows")
    _train_opts(p, s)

    return parser, specs


_DISPATCH = {
    "split": cmd_split,
    "match": cmd_match,
    "bootstrap": cmd_bootstrap,
    "predict": cmd_predict,
    "eval": cmd_eval,
    "synthetic": cmd_synthetic,
}


def main(argv=None) -> int:
    parser, specs = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("no command given (see --help)")
        ns = _resolve(args, specs[args.command])
        return _DISPATCH[args.command](ns)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (WeaknerError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except SystemExit:
        raise
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
