"""Experiment grid: the ablation conditions E1-E9 over a labeled corpus.

Each condition controls three things: how many true labels are available
(all, one entity per sentence, or only a small seed), which gazetteer
policy provides pins (none, exact C1, filtered C2, or "gold" partial
labels; seed conditions only), and the output mode (softmax-style marginal
argmax vs CRF-style Viterbi after a sequence-mode retrain). The seed
conditions, and only they, run the bootstrap loop, so they use model
predictions and iterative refinement. Seed conditions with the same pin
source share one loop, run before any row; their heads only read its model.

Rows E1/E2 are the fully-supervised upper bound, E3/E4 the partial-label
baseline, E5/E6 iterative refinement with perfect-precision partial pins,
and E7/E8/E9 the realistic gazetteer pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bootstrap import BootstrapConfig, _combine, finalize, iterative_train
from .corpus import Dataset, TagSet, bio_decode, bio_encode, gold_spans, split_seed
from .errors import WeaknerError, check_fraction, check_int
from .metrics import EvalReport, evaluate_model, prf, write_tsv
from .refset import ReferenceSet, audit_matcher, exact_policy, filtered_policy, find_matches
from .tagger import Objective, train


@dataclass(frozen=True)
class Condition:
    cid: str
    true_labels: str          # "100%" | "one_per_sentence" | "seed"
    ref_policy: str | None    # None | "gold" | "c1" | "c2"
    output: str               # "softmax" | "crf"

    def __post_init__(self):
        if (self.true_labels not in ("100%", "one_per_sentence", "seed")
                or self.ref_policy not in (None, "gold", "c1", "c2")
                or self.output not in ("softmax", "crf")):
            raise WeaknerError(f"condition {self.cid} has a setting outside the documented sets")
        if self.true_labels != "seed" and self.ref_policy:
            raise WeaknerError(f"full-label condition {self.cid} sets ref_policy, "
                               "which only seed conditions use")


def default_conditions():
    return [
        Condition("E1", "100%", None, "softmax"),
        Condition("E2", "100%", None, "crf"),
        Condition("E3", "one_per_sentence", None, "softmax"),
        Condition("E4", "one_per_sentence", None, "crf"),
        Condition("E5", "seed", "gold", "softmax"),
        Condition("E6", "seed", "gold", "crf"),
        Condition("E7", "seed", "c1", "softmax"),
        Condition("E8", "seed", "c2", "softmax"),
        Condition("E9", "seed", "c2", "crf"),
    ]


@dataclass
class GridConfig(BootstrapConfig):
    """The loop settings of the seed conditions, plus the data split and the
    epochs of the full-label conditions (C2 rows run filtered_policy as is)."""

    seed_fraction: float = 0.03
    test_fraction: float = 0.2
    full_epochs: int = 6

    def __post_init__(self):
        super().__post_init__()
        check_fraction("seed_fraction", self.seed_fraction)
        check_fraction("test_fraction", self.test_fraction)
        check_int("full_epochs", self.full_epochs, 1)


@dataclass
class GridRow:
    """On every seed row, crf rows too, `seed_report` scores the seed model's soft output."""

    condition: Condition
    seed_report: EvalReport | None
    aug_report: EvalReport
    matcher_precision: float | None = None
    matcher_recall: float | None = None
    model: object = None


def mask_to_one_entity(gold_corpus: Dataset, tags: TagSet, rng_seed: int):
    """Keep exactly one randomly chosen gold entity per sentence, masking
    every other token to O. Returns (masked dataset, kept spans)."""
    rng = np.random.default_rng(rng_seed)
    labels, kept = [], []
    for s, hard in enumerate(gold_corpus.labels):
        spans = bio_decode(hard, tags, sentence=s)
        if spans:
            choice = spans[int(rng.integers(len(spans)))]
            kept.append(choice)
            labels.append(bio_encode([choice], len(hard), tags, sentence=s))
        else:
            labels.append([0] * len(hard))
    return Dataset(list(gold_corpus.sentences), labels), kept


def _pins_for(policy, corpus, kept, refset, dictionary):
    """The pins a seed-mode reference policy puts on the corpus: the kept
    gold spans for "gold", the matcher's RefMatch list for C1 and C2."""
    if policy == "gold":
        return kept
    if policy == "c1":
        return find_matches(corpus, refset, exact_policy())
    if policy == "c2":
        return find_matches(corpus, refset, filtered_policy(dictionary))
    return []


def run_experiment_grid(
    gold: Dataset,
    tags: TagSet,
    refset: ReferenceSet,
    dictionary,
    conditions=None,
    cfg: GridConfig | None = None,
):
    """Split gold into train/test and seed/corpus, run one loop per seed-row pin
    source, then return every condition's row, in order. A test split that
    corpus.gold_spans rejects raises EmptyDataset before any training."""
    cfg = cfg or GridConfig()
    conditions = conditions if conditions is not None else default_conditions()
    train_gold, _, test = split_seed(gold, 1.0 - cfg.test_fraction, cfg.rng_seed)
    gold_spans(test, tags)
    seed_ds, corpus, corpus_gold = split_seed(train_gold, cfg.seed_fraction, cfg.rng_seed + 1)
    masked, kept = mask_to_one_entity(corpus_gold, tags, cfg.rng_seed + 17)
    loops = {}  # ref_policy -> (pins, matcher P, matcher R, loop model, trace)
    for policy in dict.fromkeys(c.ref_policy for c in conditions if c.true_labels == "seed"):
        pins = _pins_for(policy, corpus, kept, refset, dictionary)
        audit = audit_matcher(pins, corpus_gold, tags) if pins else (None, None)
        model, trace = iterative_train(seed_ds, corpus, tags, cfg, pins=pins, heldout=test)
        loops[policy] = (pins, *audit, model, trace)
    rows = []
    for cond in conditions:
        if cond.true_labels != "seed":
            data = train_gold if cond.true_labels == "100%" else _combine(seed_ds, masked)
            objective = Objective.MARGINAL if cond.output == "softmax" else Objective.SEQUENCE
            model = train(data, tags, cfg.train_cfg(cfg.full_epochs, objective))
            seed_report = match_p = match_r = None
        else:
            pins, match_p, match_r, model, trace = loops[cond.ref_policy]
            seed_report = trace[0].report
            if cond.output == "crf":
                model = finalize(model, seed_ds, corpus, cfg, pins=pins)
        eval_mode = "soft" if cond.output == "softmax" else "hard"
        rows.append(GridRow(cond, seed_report, evaluate_model(model, test, mode=eval_mode),
                            match_p, match_r, model))
    return rows


# ---------------------------------------------------------------------------
# Report output
# ---------------------------------------------------------------------------

def _fmt_pct(x):
    return "" if x is None else f"{100.0 * x:.2f}"


def _scores(row):
    """The row's score cells, in report order: matcher P and R, then the
    seed and the augmented model's P, R and F1; None where not measured."""
    return (row.matcher_precision, row.matcher_recall, *prf(row.seed_report),
            *prf(row.aug_report))


def write_grid_tsv(rows, path):
    """Machine-readable grid report; floats written exactly."""
    header = [
        "condition", "true_labels", "ref_policy", "predicted", "iterative",
        "output", "matcher_precision", "matcher_recall",
        "seed_precision", "seed_recall", "seed_f1",
        "aug_precision", "aug_recall", "aug_f1",
    ]

    def cells(row):
        c = row.condition
        # seed conditions, and only they, use predictions and iterate
        bootstrapped = "yes" if c.true_labels == "seed" else "no"
        return (c.cid, c.true_labels, c.ref_policy or "none", bootstrapped, bootstrapped,
                c.output, *_scores(row))

    write_tsv(path, header, map(cells, rows))


def format_grid_table(rows) -> str:
    """Human-readable table with percentage scores."""
    widths = (8, 8, 7, 7, 8, 7, 7, 8)
    header = (
        f"{'cond':<5} {'labels':<16} {'policy':<6} {'out':<8} "
        + " ".join(f"{h:>{w}}" for h, w in zip(
            ("match P", "match R", "seed P", "seed R", "seed F1", "aug P", "aug R", "aug F1"),
            widths))
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        c = row.condition
        lines.append(
            f"{c.cid:<5} {c.true_labels:<16} {c.ref_policy or '-':<6} {c.output:<8} "
            + " ".join(f"{_fmt_pct(v):>{w}}" for v, w in zip(_scores(row), widths))
        )
    return "\n".join(lines)
