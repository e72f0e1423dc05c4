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

An optional final step hardens the last corpus labeling and retrains a
fresh sequence-likelihood (CRF-style) model from scratch on it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .corpus import Dataset, Provenance, TagSet, gold_spans
from .errors import ModelTagSetMismatch, WeaknerError, check_int
from .metrics import EvalReport, evaluate_model, prf, tsv_cell
from .tagger import Objective, TaggerModel, TrainConfig, harden, predict_dataset_soft, train


@dataclass
class BootstrapConfig:
    """Settings of the iterative loop: one SGD schedule (rate, decay, L2,
    shuffle seed) shared by its three kinds of training call, each with its
    own epoch count: the seed model and every fine-tuning round (MARGINAL
    objective), and the optional from-scratch retrain of ``finalize``
    (SEQUENCE objective). The seed is small, so it gets more epochs.
    """

    iterations: int = 10
    seed_epochs: int = 12
    round_epochs: int = 3
    final_epochs: int = 6
    learning_rate: float = 0.25
    decay: float = 0.08
    l2: float = 1e-4
    rng_seed: int = 0

    def __post_init__(self):
        # build every config the loop will use, so bad settings fail here
        check_int("iterations", self.iterations, 0)
        for epochs in (self.seed_epochs, self.round_epochs, self.final_epochs):
            self.train_cfg(epochs)

    def train_cfg(self, epochs: int, objective: Objective = Objective.MARGINAL) -> TrainConfig:
        return TrainConfig(epochs, self.learning_rate, self.decay, self.l2, self.rng_seed, objective)


@dataclass
class IterationRow:
    iteration: int
    pinned_tokens: int
    mean_entropy: float
    report: EvalReport | None = None


def _checkpoint_id(iteration: int) -> str:
    """The name of round `iteration`'s model file (without .model) and trace entry."""
    return f"model_iter_{iteration:02d}"


@dataclass
class IterationTrace:
    """One row per model M_0 .. M_K."""

    rows: list = field(default_factory=list)

    def __len__(self):
        return len(self.rows)

    def write_tsv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("iteration\tcheckpoint\tpinned_tokens\tmean_entropy\tprecision\trecall\tf1\n")
            for row in self.rows:
                cols = (row.iteration, _checkpoint_id(row.iteration), row.pinned_tokens,
                        row.mean_entropy, *prf(row.report))
                fh.write("\t".join(map(tsv_cell, cols)) + "\n")


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
        if not (0 <= m.sentence < len(corpus)
                and 0 <= m.first <= m.last < len(corpus.sentences[m.sentence])):
            raise WeaknerError(f"match {m} out of bounds")
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
    """(pinned token count, mean entropy in nats of the PREDICTED rows)."""
    pinned = 0
    entropy_sum = 0.0
    n_pred = 0
    for soft in labeled.labels:
        prov = soft.provenance
        pinned += int((prov == Provenance.REFERENCE).sum())
        pred_rows = soft.dist[prov == Provenance.PREDICTED]
        if len(pred_rows):
            p = np.clip(pred_rows, 1e-300, None)
            entropy_sum += float(-(pred_rows * np.log(p)).sum())
            n_pred += len(pred_rows)
    return pinned, (entropy_sum / n_pred if n_pred else math.nan)


def _combine(seed: Dataset, labeled: Dataset) -> Dataset:
    return Dataset(
        list(seed.sentences) + list(labeled.sentences),
        list(seed.labels) + list(labeled.labels),
        seed.kind,
    )


def iterative_train(
    seed: Dataset,
    corpus: Dataset,
    tags: TagSet,
    cfg: BootstrapConfig,
    pins,
    heldout: Dataset | None = None,
    checkpoint_dir=None,
):
    """Run the full iterative loop; returns (final model, trace).

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
    trace = IterationTrace()
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
        trace.rows.append(IterationRow(i, pinned, entropy, report))

    if checkpoint_dir is not None:
        trace.write_tsv(os.path.join(checkpoint_dir, "trace.tsv"))
    return model, trace


def finalize(
    model: TaggerModel,
    seed: Dataset,
    corpus: Dataset,
    tags: TagSet,
    cfg: BootstrapConfig,
    pins,
) -> TaggerModel:
    """Harden the final corpus labeling (with the same pins the loop used)
    and train a fresh sequence-mode model on seed + hardened corpus (the
    CRF-style finishing step)."""
    labeled = relabel(corpus, model, pins)
    hardened = Dataset(
        list(labeled.sentences),
        [harden(soft, tags) for soft in labeled.labels],
        labeled.kind,
    )
    sequence = cfg.train_cfg(cfg.final_epochs, Objective.SEQUENCE)
    return train(_combine(seed, hardened), tags, sequence, init=None)
