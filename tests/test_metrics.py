"""Entity-level scoring against a set-comparison oracle."""

import numpy as np
import pytest

from weakner.corpus import (
    Dataset,
    EntitySpan,
    Sentence,
    TagSet,
    bio_encode,
)
from weakner.errors import EmptyDataset, ModelTagSetMismatch, UnknownTag, WeaknerError
from weakner.metrics import (
    EvalReport,
    evaluate_model,
    prf,
    score_datasets,
    score_entities,
    tsv_cell,
    write_tsv,
)
from weakner.tagger import TrainConfig, train

from test_corpus import one_hot

PROT = TagSet(("PROT",))
TWO = TagSet(("PROT", "CELL"))


def random_spans(rng, n_sentences=4, max_spans=5, tags=TWO):
    spans = set()
    for _ in range(int(rng.integers(0, max_spans + 1))):
        s = int(rng.integers(n_sentences))
        first = int(rng.integers(0, 8))
        last = first + int(rng.integers(0, 3))
        ty = tags.entity_types[int(rng.integers(len(tags.entity_types)))]
        spans.add(EntitySpan(s, first, last, ty))
    return list(spans)


class TestScoreEntities:
    def test_perfect(self):
        spans = [EntitySpan(0, i, i, "PROT") for i in range(5)]
        report = score_entities(spans, list(spans))
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)
        assert (report.tp, report.fp, report.fn) == (5, 0, 0)

    def test_half_recall(self):
        gold = [EntitySpan(0, 0, 0, "PROT"), EntitySpan(0, 2, 2, "PROT")]
        pred = [EntitySpan(0, 0, 0, "PROT")]
        report = score_entities(pred, gold)
        assert report.precision == 1.0
        assert report.recall == 0.5
        assert report.f1 == pytest.approx(2 / 3)

    def test_type_must_match(self):
        gold = [EntitySpan(0, 0, 1, "PROT")]
        pred = [EntitySpan(0, 0, 1, "CELL")]
        report = score_entities(pred, gold)
        assert report.tp == 0 and report.fp == 1 and report.fn == 1

    def test_empty_both(self):
        report = score_entities([], [])
        assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)

    def test_matches_set_comparison_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            pred = random_spans(rng)
            gold = random_spans(rng)
            report = score_entities(pred, gold)
            tp = len(set(pred) & set(gold))
            assert report.tp == tp
            assert report.fp == len(set(pred)) - tp
            assert report.fn == len(set(gold)) - tp
            if tp + report.fp:
                assert report.precision == pytest.approx(tp / (tp + report.fp))
            if tp + report.fn:
                assert report.recall == pytest.approx(tp / (tp + report.fn))
            p, r = report.precision, report.recall
            assert report.f1 == pytest.approx(2 * p * r / (p + r) if p + r else 0.0)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            pred = random_spans(rng)
            gold = random_spans(rng)
            a = score_entities(pred, gold)
            b = score_entities(gold, pred)
            assert a.f1 == pytest.approx(b.f1)
            assert a.precision == pytest.approx(b.recall)
            assert a.recall == pytest.approx(b.precision)

    def test_percent_formatting(self):
        report = EvalReport.from_counts(3, 1, 2)
        p, r, f1 = report.percent()
        assert p == pytest.approx(75.0)
        assert r == pytest.approx(60.0)
        assert str(report) == "P=75.00 R=60.00 F1=66.67"


class TestScoreDatasets:
    def test_spurious_span_is_false_positive(self):
        sents = [Sentence(["a", "b", "c", "d"])]
        gold = Dataset(sents, [[1, 2, 0, 0]])
        pred = Dataset(sents, [[1, 2, 0, 1]])
        report = score_datasets(pred, gold, PROT)
        assert report.tp == 1  # the [0,1] span survives, the spurious one is FP
        assert report.fp == 1

    def test_invalid_pred_repaired_before_scoring(self):
        sents = [Sentence(["a", "b"])]
        gold = Dataset(sents, [[1, 0]])
        pred = Dataset(sents, [[2, 0]])  # leading I-PROT
        report = score_datasets(pred, gold, PROT)
        assert report.tp == 1 and report.fp == 0 and report.fn == 0

    def test_tag_outside_tag_set_rejected(self):
        # a predicted -1 used to decode as PROT, and this pair scored F1 100
        sents = [Sentence(["a", "b"])]
        gold = Dataset(sents, [[0, 1]])
        pred = Dataset(sents, [[0, -1]])
        with pytest.raises(UnknownTag):
            score_datasets(pred, gold, PROT)

    def test_non_integer_tag_rejected(self):
        # a predicted 1.5 used to decode to no span, and this pair scored
        # F1 0.00 with no error
        sents = [Sentence(["a", "b"])]
        gold = Dataset(sents, [[1, 0]])
        pred = Dataset(sents, [[1.5, 0]])
        with pytest.raises(UnknownTag, match="1.5"):
            score_datasets(pred, gold, PROT)

    def test_soft_pred_hardened_by_argmax_then_repaired(self):
        sents = [Sentence(["a", "b", "c"])]
        gold = Dataset(sents, [[1, 0, 1]])
        pred = Dataset(sents, [one_hot([2, 0, 1])])     # leading I-PROT
        report = score_datasets(pred, gold, PROT)
        assert (report.tp, report.fp, report.fn) == (2, 0, 0)

    @pytest.mark.parametrize("tags", [TagSet(("CELL",)), TagSet(("PROT", "CELL", "GENE"))],
                             ids=["narrow", "wide"])
    def test_soft_pred_of_another_tag_set_rejected(self, tags):
        # the narrow CELL rows used to read as B-PROT, and this pair scored F1 100
        sents = [Sentence(["a", "b"])]
        gold = Dataset(sents, [[1, 0]])
        pred = Dataset(sents, [one_hot([1, 0], tags)])
        with pytest.raises(ModelTagSetMismatch, match="width"):
            score_datasets(pred, gold, TWO)

    def test_gold_without_entities_rejected(self):
        # both used to score P = R = F1 = 0.00, as if the prediction had failed
        sents = [Sentence(["a", "b"])]
        gold = Dataset(sents, [[0, 0]])
        with pytest.raises(EmptyDataset, match="no gold entities"):
            score_datasets(Dataset(sents, [[1, 0]]), gold, PROT)
        model = train(Dataset(sents, [[1, 0]]), PROT, TrainConfig(epochs=1))
        for mode in ("hard", "soft"):
            with pytest.raises(EmptyDataset, match="no gold entities"):
                evaluate_model(model, gold, mode=mode)

    @pytest.mark.parametrize("pred_texts, pred_labels, message", [
        ([["a", "b"]] * 2, [[1, 0]] * 2, "differ in sentence count"),
        ([["a", "b"]], [None], "a predicted labeling on every sentence"),
        ([["a", "b", "c"]], [[1, 0, 0]], "sentence 0: labelings differ in length"),
    ], ids=["count", "missing", "length"])
    def test_pred_that_does_not_fit_gold_rejected(self, pred_texts, pred_labels, message):
        pred = Dataset([Sentence(texts) for texts in pred_texts], pred_labels)
        gold = Dataset([Sentence(["a", "b"])], [[1, 0]])
        with pytest.raises(WeaknerError, match=message):
            score_datasets(pred, gold, PROT)

    def test_unknown_evaluation_mode_rejected(self):
        sents = [Sentence(["a", "b"])]
        gold = Dataset(sents, [[1, 0]])
        model = train(gold, PROT, TrainConfig(epochs=1))
        with pytest.raises(WeaknerError, match="unknown evaluation mode 'viterbi'"):
            evaluate_model(model, gold, mode="viterbi")

    @pytest.mark.parametrize("gold_labels", [one_hot([1, 0]), None], ids=["soft", "none"])
    def test_gold_without_hard_labels_rejected(self, gold_labels):
        # soft gold used to be hardened by argmax and scored
        sents = [Sentence(["a", "b"])]
        with pytest.raises(EmptyDataset, match="hard gold labels"):
            score_datasets(Dataset(sents, [[1, 0]]), Dataset(sents, [gold_labels]), PROT)


class TestReportCells:
    @pytest.mark.parametrize("value, cell", [
        (None, ""),
        (0.1, "0.1"),
        (1 / 3, "0.3333333333333333"),
        (0.0, "0.0"),
        (float("nan"), "nan"),
        (np.float64(0.25), "0.25"),
        (0, "0"),
        (205, "205"),
        ("model_iter_03", "model_iter_03"),
    ])
    def test_tsv_cell(self, value, cell):
        assert tsv_cell(value) == cell

    def test_write_tsv(self, tmp_path):
        path = tmp_path / "t.tsv"
        write_tsv(path, ["a", "b", "c"], [(1, "x", 0.5), (None, 2, float("nan"))])
        assert path.read_bytes() == b"a\tb\tc\n1\tx\t0.5\n\t2\tnan\n"

    def test_prf(self):
        report = EvalReport.from_counts(3, 1, 2)
        assert prf(report) == (report.precision, report.recall, report.f1)
        assert prf(None) == (None, None, None)
