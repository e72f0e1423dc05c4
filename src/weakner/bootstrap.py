"""Iterative weakly-supervised training with gazetteer-pinned soft labels.

The loop: train a first model on the labeled seed, then repeatedly
(1) soft-label the unlabeled corpus with the current model, (2) overwrite
the rows of every token covered by a reference match with a one-hot pin
(score 1 on the B-/I- tag of the match), and (3) fine-tune the model on
seed + relabeled corpus, resuming from the previous weights.

A pin is any span with ``sentence``, ``first``, ``last`` (inclusive token
range) and ``entity_type`` fields: a ``refset.RefMatch`` or a gold
``corpus.EntitySpan``. Pins do not depend on the model, so the caller finds
them once and passes the same list to every function here; this module
never searches a reference set. Every pass of a model over a dataset goes
through ``predict_dataset_soft`` / ``predict_dataset_hard``.

An optional final step relabels the corpus once more and retrains a fresh
sequence-likelihood (CRF-style) model from scratch on it; sequence training
hardens the soft labels.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .corpus import Dataset, Provenance, TagSet, check_spans_in, gold_spans
from .errors import ModelTagSetMismatch, check_int
from .metrics import EvalReport, evaluate_model, prf, write_tsv
from .tagger import Objective, TaggerModel, TrainConfig, predict_dataset_soft, train


@dataclass
class BootstrapConfig:
    """Settings of the iterative loop: one SGD schedule (rate, decay, L2,
    shuffle seed) shared by its three kinds of training call, each with its
    own epoch count: the seed model and every fine-tuning round (MARGINAL
    objective), and the optional from-scratch retrain of ``finalize``
    (SEQUENCE objective). The seed is small, so it gets more epochs. The
    schedule's defaults are TrainConfig's.
    """

    iterations: int = 10
    seed_epochs: int = 12
    round_epochs: int = 3
    final_epochs: int = 6
    learning_rate: float = TrainConfig.learning_rate
    decay: float = TrainConfig.decay
    l2: float = TrainConfig.l2
    rng_seed: int = TrainConfig.rng_seed

    def __post_init__(self):
        # check each epoch count under its own name and the shared schedule,
        # so bad settings fail here
        check_int("iterations", self.iterations, 0)
        for name in ("round_epochs", "seed_epochs", "final_epochs"):
            check_int(name, getattr(self, name), 1)
        self.train_cfg(self.round_epochs)

    def train_cfg(self, epochs: int, objective: Objective = Objective.MARGINAL) -> TrainConfig:
        return TrainConfig(epochs, self.learning_rate, self.decay, self.l2, self.rng_seed, objective)


@dataclass
class IterationRow:
    """Model M_i's trace entry: the pinned tokens and mean entropy of the
    labeling it was fine-tuned on (0 and nan for M_0), its held-out report."""

    iteration: int
    pinned_tokens: int
    mean_entropy: float
    report: EvalReport | None = None


def _checkpoint_id(iteration: int) -> str:
    """The name of round `iteration`'s model file (without .model) and trace entry."""
    return f"model_iter_{iteration:02d}"


def relabel(corpus: Dataset, model: TaggerModel, matches) -> Dataset:
    """Soft-label every corpus token with the model's marginals, then
    overwrite match-covered tokens with one-hot pins.

    The first token of a match span gets probability 1 on B-type, the rest
    on I-type; provenance flips to REFERENCE. Pins replace the predicted
    row outright (no blending), so they are idempotent across iterations;
    where two matches overlap, the later one in `matches` wins. Every
    match is checked against `corpus` before the model runs.
    """
    tags = model.tags
    for m in matches:
        if m.entity_type not in tags.entity_types:
            raise ModelTagSetMismatch(
                f"match type {m.entity_type!r} not in model tags {tags.entity_types}"
            )
    check_spans_in(matches, corpus)
    labeled = predict_dataset_soft(model, corpus)
    for m in matches:
        soft = labeled.labels[m.sentence]
        span = slice(m.first, m.last + 1)
        soft.dist[span] = 0.0
        soft.dist[m.first, tags.b_index(m.entity_type)] = 1.0
        soft.dist[m.first + 1:m.last + 1, tags.i_index(m.entity_type)] = 1.0
        soft.provenance[span] = Provenance.REFERENCE
    return labeled


def _labeling_stats(labeled: Dataset):
    """(pinned token count, mean entropy in nats of the PREDICTED rows),
    from the rows of all sentences at once."""
    if not labeled.labels:
        return 0, math.nan
    prov = np.concatenate([soft.provenance for soft in labeled.labels])
    rows = np.concatenate([soft.dist for soft in labeled.labels])[prov == Provenance.PREDICTED]
    entropy_sum = float(-(rows * np.log(np.clip(rows, 1e-300, None))).sum())
    pinned = int((prov == Provenance.REFERENCE).sum())
    return pinned, (entropy_sum / len(rows) if len(rows) else math.nan)


def _combine(seed: Dataset, labeled: Dataset) -> Dataset:
    return Dataset([*seed.sentences, *labeled.sentences], [*seed.labels, *labeled.labels])


def iterative_train(
    seed: Dataset,
    corpus: Dataset,
    tags: TagSet,
    cfg: BootstrapConfig,
    pins,
    heldout: Dataset | None = None,
    checkpoint_dir=None,
):
    """Run the full iterative loop; returns (final model, trace), the trace
    a list of one IterationRow per model M_0 .. M_K.

    pins: the spans to pin on `corpus`, reference matches or gold spans (an
    empty list gives classic self-training). heldout, when given, adds
    per-round P/R/F1 (softmax-argmax output) to the trace; one that
    corpus.gold_spans rejects raises EmptyDataset before any training.
    checkpoint_dir, when given, receives one model file per round plus
    trace.tsv; it is created once the seed model is trained, so a seed that
    cannot be trained leaves none.
    """
    if heldout is not None:
        gold_spans(heldout, tags)
    model = train(seed, tags, cfg.train_cfg(cfg.seed_epochs), init=None)
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
    trace = []
    pinned, entropy = 0, math.nan      # round 0, the seed model, saw no corpus labeling
    for i in range(cfg.iterations + 1):
        if i:
            labeled = relabel(corpus, model, pins)
            pinned, entropy = _labeling_stats(labeled)
            model = train(_combine(seed, labeled), tags, cfg.train_cfg(cfg.round_epochs),
                          init=model)
        if checkpoint_dir is not None:
            model.save(os.path.join(checkpoint_dir, _checkpoint_id(i) + ".model"))
        report = evaluate_model(model, heldout, mode="soft") if heldout is not None else None
        trace.append(IterationRow(i, pinned, entropy, report))

    if checkpoint_dir is not None:
        write_tsv(os.path.join(checkpoint_dir, "trace.tsv"),
                  "iteration checkpoint pinned_tokens mean_entropy precision recall f1".split(),
                  ((r.iteration, _checkpoint_id(r.iteration), r.pinned_tokens, r.mean_entropy,
                    *prf(r.report)) for r in trace))
    return model, trace


def finalize(model: TaggerModel, seed: Dataset, corpus: Dataset, cfg: BootstrapConfig,
             pins) -> TaggerModel:
    """Relabel the corpus with the loop's last model and the same pins, and
    train a fresh sequence-mode model on seed + that labeling (the CRF-style
    finishing step). The result carries the model's tag set; SEQUENCE
    training hardens the soft labels itself (corpus.harden)."""
    sequence = cfg.train_cfg(cfg.final_epochs, Objective.SEQUENCE)
    return train(_combine(seed, relabel(corpus, model, pins)), model.tags, sequence)
