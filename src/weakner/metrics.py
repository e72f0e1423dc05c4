"""Entity-level scoring: exact span + type match against gold spans."""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Dataset, SoftLabeling, TagSet, bio_decode, gold_spans
from .errors import WeaknerError
from .tagger import TaggerModel, predict_dataset_hard, predict_dataset_soft


@dataclass(frozen=True)
class EvalReport:
    """Precision/recall/F1 over exactly-matched (span, type) pairs.

    Ratios are stored in [0, 1]; use percent() for report-style numbers.
    """

    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "EvalReport":
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        return cls(tp, fp, fn, p, r, f1)

    def percent(self):
        """(P, R, F1) as percentages, Table-style."""
        return 100.0 * self.precision, 100.0 * self.recall, 100.0 * self.f1

    def __str__(self):
        p, r, f1 = self.percent()
        return f"P={p:.2f} R={r:.2f} F1={f1:.2f}"


def prf(report: EvalReport | None) -> tuple:
    """(precision, recall, F1) of a report, or three Nones without one."""
    return (None,) * 3 if report is None else (report.precision, report.recall, report.f1)


def tsv_cell(value) -> str:
    """One report TSV cell: empty for None, a float's exact repr, else str."""
    if value is None:
        return ""
    return repr(float(value)) if isinstance(value, float) else str(value)


def score_entities(pred, gold) -> EvalReport:
    """Exact-match entity scoring of two span lists."""
    pred_set, gold_set = set(pred), set(gold)
    tp = len(pred_set & gold_set)
    return EvalReport.from_counts(tp, len(pred_set) - tp, len(gold_set) - tp)


def score_datasets(pred: Dataset, gold: Dataset, tags: TagSet) -> EvalReport:
    """Entity P/R/F1 of a predicted labeling vs gold, which must pass
    corpus.gold_spans. A soft prediction is hardened by argmax; decoding
    repairs a BIO-invalid one."""
    if len(pred) != len(gold):
        raise WeaknerError("datasets differ in sentence count")
    gold_set = gold_spans(gold, tags)
    pred_spans = []
    for s, (labels, sent) in enumerate(zip(pred.labels, gold.sentences)):
        if labels is None:
            raise WeaknerError("evaluation needs a predicted labeling on every sentence")
        if isinstance(labels, SoftLabeling):
            labels = labels.dist.argmax(axis=1).tolist()
        if len(labels) != len(sent):
            raise WeaknerError(f"sentence {s}: labelings differ in length")
        pred_spans.extend(bio_decode(labels, tags, sentence=s))
    return score_entities(pred_spans, gold_set)


def evaluate_model(model: TaggerModel, gold: Dataset, mode: str = "hard") -> EvalReport:
    """Score a model on a gold dataset (which score_datasets checks).

    mode "hard" decodes with Viterbi; mode "soft" takes the argmax of the
    posterior marginals (the softmax-style output path).
    """
    if mode == "hard":
        pred = predict_dataset_hard(model, gold)
    elif mode == "soft":
        pred = predict_dataset_soft(model, gold)
    else:
        raise WeaknerError(f"unknown evaluation mode {mode!r}")
    return score_datasets(pred, gold, model.tags)
