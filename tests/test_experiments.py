"""The ablation grid: condition mechanics, report output, and the
directional orderings the conditions are designed to exhibit."""

import numpy as np
import pytest

from weakner import bootstrap, experiments
from weakner.bootstrap import BootstrapConfig, finalize, iterative_train
from weakner.corpus import Dataset, TagSet, bio_decode, sentence_from_texts, split_seed
from weakner.errors import EmptyDataset, WeaknerError
from weakner.experiments import (
    Condition,
    GridConfig,
    default_conditions,
    format_grid_table,
    mask_to_one_entity,
    run_experiment_grid,
    write_grid_tsv,
)
from weakner.metrics import evaluate_model
from weakner.refset import ReferenceSet, filter_names, filtered_policy, find_matches
from weakner.synthetic import SyntheticSpec, generate_synthetic

PROT = TagSet(("PROT",))



@pytest.mark.parametrize("setting", [
    {"l2": float("nan")}, {"learning_rate": float("nan")}, {"decay": float("nan")},
    {"round_epochs": 2.5}, {"seed_epochs": 0},
    {"iterations": -1}, {"iterations": 2.5}, {"iterations": True}, {"min_name_length": 0},
    {"round_epochs": True}, {"rng_seed": True}, {"min_name_length": 2.5},
    {"min_name_length": "3"}, {"seed_fraction": 1.5}, {"seed_fraction": float("nan")},
    {"test_fraction": 0.0}, {"test_fraction": 1.0},
])
def test_grid_config_rejects_bad_training_settings(setting):
    # these used to pass and surface mid-grid (2.5 iterations as a bare TypeError),
    # or never (a NaN l2 trains with no L2, round_epochs=True trains one epoch);
    # min_name_length="3" was a bare TypeError; a test_fraction of 0 failed
    # in split_seed as "got 1.0"
    with pytest.raises(WeaknerError):
        GridConfig(**setting)


@pytest.mark.parametrize("field", ["seed_epochs", "round_epochs", "final_epochs", "full_epochs"])
def test_grid_config_bad_epoch_count_names_its_field(field):
    # all four used to read "epochs must be an integer >= 1"
    with pytest.raises(WeaknerError, match=f"^{field} must be an integer >= 1, not 0$"):
        GridConfig(**{field: 0})


@pytest.mark.parametrize("settings", [
    ("all", None, "softmax"),        # ran as a seed row, with self-training
    ("seed", "c2", "CRF"),           # trained SEQUENCE but was scored as softmax
    ("seed", "c3", "crf"),
    ("100%", "c2", "softmax"),       # full-label rows ignored the policy
    ("one_per_sentence", "gold", "crf"),
])
def test_condition_outside_its_documented_settings_rejected(settings):
    with pytest.raises(WeaknerError):
        Condition("X", *settings)

@pytest.fixture(scope="module")
def bundle():
    spec = SyntheticSpec(
        n_sentences=500,
        n_entity_names=100,
        n_context_words=180,
        n_distractors=40,
        rng_seed=5,
    )
    gold, refset, dictionary = generate_synthetic(spec)
    return gold, refset, dictionary


@pytest.fixture(scope="module")
def grid_rows(bundle):
    gold, refset, dictionary = bundle
    cfg = GridConfig(
        seed_fraction=0.05,
        iterations=3,
        seed_epochs=8,
        round_epochs=2,
        full_epochs=4,
        final_epochs=4,
        rng_seed=5,
    )
    conditions = [c for c in default_conditions() if c.cid in ("E1", "E3", "E7", "E8")]
    return run_experiment_grid(gold, PROT, refset, dictionary, conditions, cfg)


class TestMaskToOneEntity:
    def test_at_most_one_span_kept(self, bundle):
        gold, _, _ = bundle
        masked, kept = mask_to_one_entity(gold, PROT, 3)
        for s, labels in enumerate(masked.labels):
            spans = bio_decode(labels, PROT, sentence=s)
            assert len(spans) <= 1
            gold_spans = bio_decode(gold.labels[s], PROT, sentence=s)
            assert len(spans) == (1 if gold_spans else 0)
            if spans:
                assert spans[0] in gold_spans
        assert len(kept) == sum(1 for lab in masked.labels if any(lab))

    def test_deterministic(self, bundle):
        gold, _, _ = bundle
        a, _ = mask_to_one_entity(gold, PROT, 3)
        b, _ = mask_to_one_entity(gold, PROT, 3)
        assert a.labels == b.labels


class TestGridOrderings:
    def test_full_supervision_is_the_upper_bound(self, grid_rows):
        by_cid = {r.condition.cid: r for r in grid_rows}
        assert by_cid["E1"].aug_report.f1 == max(r.aug_report.f1 for r in grid_rows)

    def test_partial_labels_below_full(self, grid_rows):
        by_cid = {r.condition.cid: r for r in grid_rows}
        assert by_cid["E3"].aug_report.f1 < by_cid["E1"].aug_report.f1

    def test_filtered_gazetteer_beats_seed_only_and_exact(self, grid_rows):
        by_cid = {r.condition.cid: r for r in grid_rows}
        e8 = by_cid["E8"]
        assert e8.aug_report.f1 > e8.seed_report.f1
        assert e8.aug_report.f1 > by_cid["E7"].aug_report.f1

    def test_matcher_precision_ordering(self, grid_rows):
        by_cid = {r.condition.cid: r for r in grid_rows}
        assert by_cid["E8"].matcher_precision > by_cid["E7"].matcher_precision

    def test_seed_reports_identical_across_bootstrap_rows(self, grid_rows):
        seeds = [r.seed_report.f1 for r in grid_rows if r.seed_report is not None]
        assert len(set(seeds)) == 1

    def test_models_attached(self, grid_rows):
        assert all(r.model is not None for r in grid_rows)


def test_gold_without_entities_rejected_before_training(monkeypatch):
    # the grid used to train every condition and report F1 = 0.00 on test
    trained = []
    for module in (experiments, bootstrap):
        monkeypatch.setattr(module, "train", lambda *a, **kw: trained.append(a))
    gold = Dataset([sentence_from_texts(["w", str(i)]) for i in range(20)], [[0, 0]] * 20)
    refset = ReferenceSet(frozenset({"w"}), "PROT")
    with pytest.raises(EmptyDataset, match="no gold entities"):
        run_experiment_grid(gold, PROT, refset, frozenset(), cfg=GridConfig(seed_fraction=0.2))
    assert trained == []


class TestLoopSharing:
    def test_seed_rows_share_one_loop_per_pin_source(self, bundle, monkeypatch, tmp_path):
        """E5/E6 and E8/E9 each run one bootstrap loop, and a row whose loop
        the other head used first equals that row run on its own: E6 after
        the soft head, E8 after the CRF head."""
        gold, refset, dictionary = bundle
        cfg = GridConfig(seed_fraction=0.05, iterations=2, seed_epochs=6, round_epochs=2,
                         final_epochs=3, rng_seed=5)
        calls = {"loop": 0, "mask": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(experiments, "iterative_train", counted("loop", iterative_train))
        monkeypatch.setattr(experiments, "mask_to_one_entity",
                            counted("mask", mask_to_one_entity))
        by_cid = {c.cid: c for c in default_conditions()}
        rows = run_experiment_grid(gold, PROT, refset, dictionary,
                                   [by_cid[c] for c in ("E5", "E6", "E9", "E8")], cfg)
        assert calls == {"loop": 2, "mask": 1}
        for row in (rows[1], rows[3]):
            alone, = run_experiment_grid(gold, PROT, refset, dictionary, [row.condition], cfg)
            assert (row.seed_report, row.aug_report) == (alone.seed_report, alone.aug_report)
            assert (row.matcher_precision, row.matcher_recall) == (
                alone.matcher_precision, alone.matcher_recall)
            shared, single = tmp_path / "shared.model", tmp_path / "single.model"
            row.model.save(shared)
            alone.model.save(single)
            assert shared.read_bytes() == single.read_bytes()


def test_self_training_row_has_no_pins(tmp_path):
    """A seed row with no pin source runs the loop on model predictions
    alone: no matcher scores, "none" in the report, and the model of
    iterative_train with no pins on the grid's own split."""
    gold, refset, dictionary = generate_synthetic(SyntheticSpec(
        n_sentences=120, n_entity_names=60, n_context_words=120, n_distractors=20, rng_seed=3))
    cfg = GridConfig(iterations=1, seed_fraction=0.1)
    row, = run_experiment_grid(gold, PROT, refset, dictionary,
                               [Condition("S", "seed", None, "softmax")], cfg)
    assert (row.matcher_precision, row.matcher_recall) == (None, None)
    write_grid_tsv([row], tmp_path / "report.tsv")
    cells = (tmp_path / "report.tsv").read_text(encoding="utf-8").splitlines()[1].split("\t")
    assert cells[2:8] == ["none", "yes", "yes", "softmax", "", ""]

    train_gold, _, test = split_seed(gold, 1.0 - cfg.test_fraction, cfg.rng_seed)
    seed_ds, corpus, _ = split_seed(train_gold, cfg.seed_fraction, cfg.rng_seed + 1)
    alone, _ = iterative_train(seed_ds, corpus, PROT, cfg, pins=[], heldout=test)
    assert row.model.feature_index == alone.feature_index
    assert row.model.weights.tobytes() == alone.weights.tobytes()
    assert row.model.transitions.tobytes() == alone.transitions.tobytes()


class TestFinalizeDirection:
    def test_crf_final_close_to_softmax_on_gold_pins(self):
        """With perfect-precision partial pins, the from-scratch CRF retrain
        lands within a point of the soft-output model it distills."""
        spec = SyntheticSpec(n_sentences=800, rng_seed=0)
        gold, refset, dictionary = generate_synthetic(spec)
        train_gold, _, test = split_seed(gold, 0.8, 0)
        seed_ds, corpus, corpus_gold = split_seed(train_gold, 0.05, 1)
        _, pins = mask_to_one_entity(corpus_gold, PROT, 17)
        cfg = BootstrapConfig(iterations=5, seed_epochs=12, round_epochs=3, final_epochs=6,
                              learning_rate=0.25, decay=0.08, l2=1e-4, rng_seed=0)
        model, _ = iterative_train(seed_ds, corpus, PROT, cfg, pins=pins)
        soft = evaluate_model(model, test, mode="soft")
        crf = evaluate_model(
            finalize(model, seed_ds, corpus, cfg, pins=pins), test, mode="hard"
        )
        assert crf.f1 >= soft.f1 - 0.01  # one F1 point, ratios in [0, 1]


class TestReports:
    def test_tsv_columns_and_determinism(self, grid_rows, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_grid_tsv(grid_rows, a)
        write_grid_tsv(grid_rows, b)
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text(encoding="utf-8").splitlines()
        assert lines[0].split("\t")[0] == "condition"
        assert len(lines) == 1 + len(grid_rows)
        e1 = lines[1].split("\t")
        assert e1[0] == "E1" and e1[8] == ""  # no seed columns for full rows
        assert e1[3:5] == ["no", "no"]        # predicted, iterative
        e8 = lines[-1].split("\t")
        assert e8[0] == "E8" and e8[3:5] == ["yes", "yes"]

    def test_table_mentions_every_condition(self, grid_rows):
        table = format_grid_table(grid_rows)
        for row in grid_rows:
            assert row.condition.cid in table
