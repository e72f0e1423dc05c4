"""The iterative loop: pin semantics, degenerate cases, trace, determinism."""

import math
import os

import numpy as np
import pytest

from weakner import bootstrap
from weakner.bootstrap import BootstrapConfig, finalize, iterative_train, relabel
from weakner.corpus import (
    Dataset,
    DatasetKind,
    Provenance,
    SoftLabeling,
    TagSet,
    sentence_from_texts,
)
from weakner.errors import EmptyDataset, ModelTagSetMismatch, WeaknerError
from weakner.refset import MatchPolicy, RefMatch, ReferenceSet, filtered_policy, find_matches
from weakner.synthetic import SyntheticSpec, generate_synthetic
from weakner.tagger import Objective, TaggerModel, TrainConfig, train

from test_tagger import naive_emissions, naive_sgd_epoch, ref_forward_backward

PROT = TagSet(("PROT",))


def tiny_seed():
    sents = [
        sentence_from_texts(["p53", "binds", "MDM2"]),
        sentence_from_texts(["the", "assay", "ran"]),
        sentence_from_texts(["TIGAR", "level", "rose"]),
    ]
    labels = [[1, 0, 1], [0, 0, 0], [1, 0, 0]]
    return Dataset(sents, labels, DatasetKind.SEED)


def tiny_corpus():
    sents = [
        sentence_from_texts(["MDM2", "binds", "p53", "again"]),
        sentence_from_texts(["the", "TIGAR", "assay"]),
        sentence_from_texts(["nothing", "here"]),
    ]
    return Dataset(sents, [None] * 3, DatasetKind.CORPUS)


def quick_cfg(iterations=2):
    return BootstrapConfig(iterations=iterations, seed_epochs=2, round_epochs=2, final_epochs=2,
                           learning_rate=0.2, decay=0.1, l2=1e-4, rng_seed=0)


class TestRelabel:
    def _model(self):
        return train(tiny_seed(), PROT, TrainConfig(epochs=3, rng_seed=0))

    def test_no_matches_equals_predict_soft(self):
        model = self._model()
        corpus = tiny_corpus()
        out = relabel(corpus, model, [])
        for sent, soft in zip(corpus.sentences, out.labels):
            expected = model.predict_soft([sent])[0]
            assert np.array_equal(soft.dist, expected.dist)
            assert all(p == Provenance.PREDICTED for p in soft.provenance)

    def test_pin_leaves_equal_length_sentence_untouched(self):
        model = self._model()
        a = sentence_from_texts(["MDM2", "binds", "p53"])
        b = sentence_from_texts(["the", "TIGAR", "assay"])
        corpus = Dataset([a, b], [None, None], DatasetKind.CORPUS)
        out = relabel(corpus, model, [RefMatch(0, 0, 2, "MDM2 binds p53", "PROT")])
        assert list(out.labels[0].provenance) == [Provenance.REFERENCE] * 3
        expected = model.predict_soft([b])[0]
        assert out.labels[1].dist.tobytes() == expected.dist.tobytes()
        assert list(out.labels[1].provenance) == [Provenance.PREDICTED] * 3

    def test_two_token_match_pinned_b_then_i(self):
        model = self._model()
        corpus = tiny_corpus()
        out = relabel(corpus, model, [RefMatch(0, 0, 1, "MDM2 binds", "PROT")])
        dist = out.labels[0].dist
        assert dist[0].tolist() == [0.0, 1.0, 0.0]
        assert dist[1].tolist() == [0.0, 0.0, 1.0]
        assert out.labels[0].provenance[0] == Provenance.REFERENCE
        assert out.labels[0].provenance[1] == Provenance.REFERENCE
        assert out.labels[0].provenance[2] == Provenance.PREDICTED

    def test_pin_overrides_confident_prediction(self):
        model = self._model()
        # drive the model to near-certainty on p53 = B-PROT, then pin it
        sent = sentence_from_texts(["p53"])
        model.weights[model.feature_index["w=p53"], 1] += 50.0
        assert model.predict_soft([sent])[0].dist[0, 1] > 0.99
        corpus = Dataset([sent], [None], DatasetKind.CORPUS)
        out = relabel(corpus, model, [RefMatch(0, 0, 0, "p53", "PROT")])
        assert out.labels[0].dist[0, 1] == 1.0  # exactly one, not a blend

    def test_rows_still_sum_to_one(self):
        model = self._model()
        out = relabel(tiny_corpus(), model, [RefMatch(1, 1, 1, "TIGAR", "PROT")])
        for soft in out.labels:
            assert np.abs(soft.dist.sum(axis=1) - 1.0).max() <= 1e-9

    def test_unknown_entity_type_rejected(self):
        model = self._model()
        with pytest.raises(ModelTagSetMismatch):
            relabel(tiny_corpus(), model, [RefMatch(0, 0, 0, "x", "CELL")])

    def test_pin_past_sentence_end_rejected(self):
        model = self._model()
        with pytest.raises(WeaknerError):
            relabel(tiny_corpus(), model, [RefMatch(2, 1, 2, "here x", "PROT")])

    def test_pin_in_missing_sentence_rejected(self):
        model = self._model()
        for sentence in (3, -1):
            with pytest.raises(WeaknerError):
                relabel(tiny_corpus(), model, [RefMatch(sentence, 0, 0, "x", "PROT")])

    @pytest.mark.parametrize(
        "match",
        [RefMatch(2, 1, 2, "here x", "PROT"), RefMatch(3, 0, 0, "x", "PROT"),
         RefMatch(0, 2, 1, "x", "PROT"), RefMatch(0, 0, 0, "x", "CELL")],
        ids=["past-end", "no-sentence", "reversed", "unknown-type"],
    )
    def test_bad_match_rejected_before_the_model_runs(self, match, monkeypatch):
        import weakner.bootstrap as bootstrap

        def no_prediction(*args):
            raise AssertionError("predict_dataset_soft ran before the matches were checked")

        model = self._model()
        monkeypatch.setattr(bootstrap, "predict_dataset_soft", no_prediction)
        good = RefMatch(0, 0, 0, "MDM2", "PROT")
        with pytest.raises(WeaknerError):
            relabel(tiny_corpus(), model, [good, match])

    def test_pins_leave_other_sentences_bytes_unchanged(self):
        # the labelings are views of one array: a pin must stay in its rows
        model = self._model()
        corpus = tiny_corpus()
        before = relabel(corpus, model, [])
        for s, n in enumerate(len(sent) for sent in corpus.sentences):
            out = relabel(corpus, model, [RefMatch(s, 0, n - 1, "x", "PROT")])
            for other in set(range(len(corpus))) - {s}:
                assert out.labels[other].dist.tobytes() == before.labels[other].dist.tobytes()
                assert (out.labels[other].provenance.tobytes()
                        == before.labels[other].provenance.tobytes())
            assert list(out.labels[s].provenance) == [Provenance.REFERENCE] * n

    def test_overlapping_pins_later_match_wins(self):
        model = self._model()
        pins = [RefMatch(0, 0, 1, "MDM2 binds", "PROT"), RefMatch(0, 1, 2, "binds p53", "PROT")]
        soft = relabel(tiny_corpus(), model, pins).labels[0]
        assert soft.dist[:3].tolist() == [[0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        assert soft.provenance[:3].tolist() == [Provenance.REFERENCE] * 3
        assert soft.provenance[3] == Provenance.PREDICTED

    def test_corpus_input_not_mutated(self):
        model = self._model()
        corpus = tiny_corpus()
        relabel(corpus, model, [RefMatch(1, 1, 1, "TIGAR", "PROT")])
        assert all(lab is None for lab in corpus.labels)


class TestIterativeTrain:
    def test_k_zero_returns_seed_model(self):
        seed = tiny_seed()
        cfg = quick_cfg(iterations=0)
        model, trace = iterative_train(seed, tiny_corpus(), PROT, cfg, pins=[])
        direct = train(seed, PROT, cfg.train_cfg(cfg.seed_epochs))
        assert np.array_equal(model.weights, direct.weights)
        assert np.array_equal(model.transitions, direct.transitions)
        assert len(trace) == 1

    def test_trace_length_is_k_plus_one(self):
        model, trace = iterative_train(tiny_seed(), tiny_corpus(), PROT, quick_cfg(3), pins=[])
        assert len(trace) == 4
        assert [r.iteration for r in trace.rows] == [0, 1, 2, 3]
        assert math.isnan(trace.rows[0].mean_entropy)
        assert trace.rows[0].pinned_tokens == 0

    def test_empty_corpus_equals_extra_seed_epochs(self):
        seed = tiny_seed()
        empty = Dataset([], [], DatasetKind.CORPUS)
        cfg = quick_cfg(iterations=2)
        model, trace = iterative_train(seed, empty, PROT, cfg, pins=[])
        manual = train(seed, PROT, cfg.train_cfg(cfg.seed_epochs))
        for _ in range(2):
            manual = train(seed, PROT, cfg.train_cfg(cfg.round_epochs), init=manual)
        assert np.array_equal(model.weights, manual.weights)
        assert np.array_equal(model.transitions, manual.transitions)

    def test_seed_labels_never_modified(self):
        seed = tiny_seed()
        before = [list(lab) for lab in seed.labels]
        iterative_train(seed, tiny_corpus(), PROT, quick_cfg(2), pins=[])
        assert [list(lab) for lab in seed.labels] == before

    def test_pins_counted_and_one_hot_every_iteration(self):
        seed = tiny_seed()
        corpus = tiny_corpus()
        pins = [RefMatch(0, 0, 0, "MDM2", "PROT"), RefMatch(1, 1, 1, "TIGAR", "PROT")]
        cfg = quick_cfg(3)
        model, trace = iterative_train(seed, corpus, PROT, cfg, pins=pins)
        assert [r.pinned_tokens for r in trace.rows] == [0, 2, 2, 2]
        # re-derive the last round's labeling: pinned rows are one-hot
        # regardless of how far the model drifted
        labeled = relabel(corpus, model, pins)
        assert labeled.labels[0].dist[0, 1] == 1.0
        assert labeled.labels[1].dist[1, 1] == 1.0

    def test_empty_refset_is_classic_self_training(self):
        seed, corpus = tiny_seed(), tiny_corpus()
        empty = ReferenceSet(frozenset(), "PROT")
        pins = find_matches(corpus, empty, MatchPolicy())
        assert pins == []
        a, _ = iterative_train(seed, corpus, PROT, quick_cfg(2), pins=[])
        b, _ = iterative_train(seed, corpus, PROT, quick_cfg(2), pins=pins)
        assert np.array_equal(a.weights, b.weights)

    def test_deterministic(self):
        a, _ = iterative_train(tiny_seed(), tiny_corpus(), PROT, quick_cfg(2), pins=[])
        b, _ = iterative_train(tiny_seed(), tiny_corpus(), PROT, quick_cfg(2), pins=[])
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.transitions, b.transitions)

    def test_checkpoints_written(self, tmp_path):
        out = tmp_path / "run"
        model, trace = iterative_train(
            tiny_seed(), tiny_corpus(), PROT, quick_cfg(2), pins=[], checkpoint_dir=str(out)
        )
        files = sorted(os.listdir(out))
        assert files == [
            "model_iter_00.model", "model_iter_01.model", "model_iter_02.model",
            "trace.tsv",
        ]
        reloaded = TaggerModel.load(out / "model_iter_02.model")
        assert np.array_equal(reloaded.weights, model.weights)
        header = (out / "trace.tsv").read_text(encoding="utf-8").splitlines()[0]
        assert header.split("\t") == [
            "iteration", "checkpoint", "pinned_tokens", "mean_entropy",
            "precision", "recall", "f1",
        ]

    def test_heldout_reports_in_trace(self):
        model, trace = iterative_train(
            tiny_seed(), tiny_corpus(), PROT, quick_cfg(1), pins=[], heldout=tiny_seed()
        )
        assert all(r.report is not None for r in trace.rows)

    def test_unlabeled_seed_rejected(self):
        bad = Dataset([sentence_from_texts(["a"])], [None], DatasetKind.SEED)
        with pytest.raises(WeaknerError):
            iterative_train(bad, tiny_corpus(), PROT, quick_cfg(1), pins=[])

    @pytest.mark.parametrize("labels", [[], [[1, 0, 1], None]], ids=["empty", "unlabeled"])
    def test_untrainable_seed_leaves_no_checkpoint_dir(self, labels, tmp_path):
        sentences = tiny_seed().sentences[:len(labels)]
        out = tmp_path / "run"
        with pytest.raises(EmptyDataset):
            iterative_train(Dataset(sentences, labels, DatasetKind.SEED), tiny_corpus(), PROT,
                            quick_cfg(1), pins=[], checkpoint_dir=str(out))
        assert not out.exists()

    def test_heldout_without_entities_rejected_before_training(self, monkeypatch, tmp_path):
        # every trace row used to read P = R = F1 = 0.00
        trained = []
        monkeypatch.setattr(bootstrap, "train", lambda *a, **kw: trained.append(a))
        all_o = Dataset(tiny_seed().sentences, [[0, 0, 0]] * 3, DatasetKind.SEED)
        out = tmp_path / "run"
        with pytest.raises(EmptyDataset, match="no gold entities"):
            iterative_train(tiny_seed(), tiny_corpus(), PROT, quick_cfg(1), pins=[],
                            heldout=all_o, checkpoint_dir=str(out))
        assert trained == [] and not out.exists()

    def test_refset_config_pins(self):
        seed, corpus = tiny_seed(), tiny_corpus()
        pins = find_matches(corpus, ReferenceSet(frozenset({"TIGAR"}), "PROT"), MatchPolicy())
        assert [(m.sentence, m.first, m.last) for m in pins] == [(1, 1, 1)]
        _, trace = iterative_train(seed, corpus, PROT, quick_cfg(1), pins=pins)
        assert trace.rows[1].pinned_tokens == 1

    def test_refset_config_pins_apply_policy_filters(self):
        # the refset is unfiltered: the policy itself must drop the
        # dictionary word ANOVA and the too-short AB
        corpus = Dataset(
            [
                sentence_from_texts(["we", "ran", "ANOVA", "on", "AB"]),
                sentence_from_texts(["the", "Flag-tagged-TIGAR", "construct"]),
            ],
            [None, None],
            DatasetKind.CORPUS,
        )
        pins = find_matches(
            corpus,
            ReferenceSet(frozenset({"ANOVA", "AB", "TIGAR"}), "PROT"),
            filtered_policy({"anova"}, 4),
        )
        assert [(m.sentence, m.first, m.last, m.name) for m in pins] == [(1, 1, 1, "TIGAR")]


class TestFinalize:
    def test_empty_corpus_equals_sequence_training_on_seed(self):
        seed = tiny_seed()
        empty = Dataset([], [], DatasetKind.CORPUS)
        cfg = quick_cfg(1)
        base, _ = iterative_train(seed, empty, PROT, cfg, pins=[])
        final = finalize(base, seed, empty, PROT, cfg, pins=[])
        direct = train(seed, PROT, cfg.train_cfg(cfg.final_epochs, Objective.SEQUENCE))
        assert np.array_equal(final.weights, direct.weights)

    def test_fresh_model_not_resumed(self):
        seed, corpus = tiny_seed(), tiny_corpus()
        cfg = quick_cfg(1)
        base, _ = iterative_train(seed, corpus, PROT, cfg, pins=[])
        final = finalize(base, seed, corpus, PROT, cfg, pins=[])
        assert final.epochs_trained == cfg.final_epochs

    def test_deterministic(self):
        seed, corpus = tiny_seed(), tiny_corpus()
        cfg = quick_cfg(1)
        base, _ = iterative_train(seed, corpus, PROT, cfg, pins=[])
        a = finalize(base, seed, corpus, PROT, cfg, pins=[])
        b = finalize(base, seed, corpus, PROT, cfg, pins=[])
        assert np.array_equal(a.weights, b.weights)


class TestBootstrapConfig:
    def test_negative_iterations_rejected(self):
        with pytest.raises(WeaknerError):
            BootstrapConfig(iterations=-1)

    @pytest.mark.parametrize("setting", [
        {"l2": float("nan")}, {"learning_rate": float("nan")}, {"decay": float("nan")},
        {"round_epochs": 2.5}, {"seed_epochs": 0}, {"final_epochs": 0},
        {"iterations": 2.5}, {"iterations": True},
        {"round_epochs": True}, {"rng_seed": True}, {"learning_rate": 2.0, "l2": 0.5},
    ])
    def test_bad_settings_rejected_at_construction(self, setting):
        with pytest.raises(WeaknerError):
            BootstrapConfig(**setting)

    def test_one_schedule_marginal_then_sequence(self):
        cfg = BootstrapConfig(seed_epochs=5, round_epochs=2, final_epochs=4,
                              learning_rate=0.3, decay=0.1, l2=1e-3, rng_seed=7)
        seed, round_, final = (cfg.train_cfg(cfg.seed_epochs), cfg.train_cfg(cfg.round_epochs),
                               cfg.train_cfg(cfg.final_epochs, Objective.SEQUENCE))
        assert [c.epochs for c in (seed, round_, final)] == [5, 2, 4]
        assert [c.objective for c in (seed, round_, final)] == [
            Objective.MARGINAL, Objective.MARGINAL, Objective.SEQUENCE]
        for c in (seed, round_, final):
            assert (c.learning_rate, c.decay, c.l2, c.rng_seed) == (0.3, 0.1, 1e-3, 7)


def reference_relabel(corpus, model, pins):
    """The README's relabeling, one token at a time: per-token marginals of
    the current model, then each pin, in list order, overwrites its tokens'
    rows with a one-hot B-/I- row. Returns the rows, the pinned-token count
    and the mean entropy of the unpinned rows."""
    tags = model.tags
    rows, pinned, entropies = [], 0, []
    for s, sent in enumerate(corpus.sentences):
        alpha, beta, log_z = ref_forward_backward(naive_emissions(model, sent), model.transitions)
        dist = np.exp(alpha + beta - log_z)
        is_pin = [False] * len(sent)
        for m in pins:
            if m.sentence == s:
                for i in range(m.first, m.last + 1):
                    tag = tags.b_index(m.entity_type) if i == m.first else tags.i_index(m.entity_type)
                    dist[i] = [1.0 if t == tag else 0.0 for t in range(len(tags))]
                    is_pin[i] = True
        rows.append(dist)
        pinned += sum(is_pin)
        entropies += [-sum(p * math.log(p) for p in dist[i] if p > 0)
                      for i in range(len(sent)) if not is_pin[i]]
    return rows, pinned, sum(entropies) / len(entropies)


def reference_harden(dist, tags):
    """Per-token argmax, first maximum on ties; an I- tag that continues no
    span of its type becomes B-."""
    out = []
    for row in dist.tolist():
        t = row.index(max(row))
        if t and not tags.is_begin(t) and (not out or tags.type_of(out[-1]) != tags.type_of(t)):
            t -= 1
        out.append(t)
    return out


def reference_loop(seed, corpus, tags, cfg, pins):
    """The loop as the README tells it, one naive SGD epoch at a time: a seed
    model; K rounds of relabeling and fine-tuning on seed + corpus that
    resume the weights and the epoch counter; then a fresh SEQUENCE model on
    seed + the hardened last labeling. Returns the K + 1 loop models, the
    per-round (pinned tokens, mean entropy) and the final model."""
    def fit(model, labels, epochs, objective=Objective.MARGINAL):
        data = Dataset(list(seed.sentences) + list(corpus.sentences),
                       list(seed.labels) + labels, DatasetKind.SEED)
        for _ in range(epochs):
            model = naive_sgd_epoch(model, data, cfg.train_cfg(1, objective))
        return model

    seed_only = Dataset(seed.sentences, seed.labels, DatasetKind.SEED)
    models = [TaggerModel(tags)]
    for _ in range(cfg.seed_epochs):
        models[0] = naive_sgd_epoch(models[0], seed_only, cfg.train_cfg(1))
    stats = []
    for _ in range(cfg.iterations):
        rows, pinned, entropy = reference_relabel(corpus, models[-1], pins)
        soft = [SoftLabeling(r, np.full(len(r), Provenance.PREDICTED, dtype=np.int8)) for r in rows]
        models.append(fit(models[-1], soft, cfg.round_epochs))
        stats.append((pinned, entropy))
    rows, _, _ = reference_relabel(corpus, models[-1], pins)
    hard = [reference_harden(r, tags) for r in rows]
    return models, stats, fit(TaggerModel(tags), hard, cfg.final_epochs, Objective.SEQUENCE)


class TestLoopMatchesReference:
    """The composed loop against reference_loop: checkpoints, trace and the
    finalize model."""

    def test_two_rounds_with_overlapping_pins(self, tmp_path):
        gold, ref, dictionary = generate_synthetic(SyntheticSpec(n_sentences=40, rng_seed=5))
        seed = Dataset(gold.sentences[:8], gold.labels[:8], DatasetKind.SEED)
        corpus = Dataset(gold.sentences[8:], [None] * 32, DatasetKind.CORPUS)
        pins = find_matches(corpus, ref, filtered_policy(dictionary, 4))
        m = next(m for m in pins if m.first > 0)
        # overlaps m's first token, which must then take this later pin's I- row
        pins.append(RefMatch(m.sentence, m.first - 1, m.first, "overlap", "PROT"))
        cfg = BootstrapConfig(iterations=2, seed_epochs=3, round_epochs=2, final_epochs=2,
                              learning_rate=0.3, decay=0.2, l2=1e-3, rng_seed=3)
        model, trace = iterative_train(seed, corpus, PROT, cfg, pins, checkpoint_dir=tmp_path)
        final = finalize(model, seed, corpus, PROT, cfg, pins)
        models, stats, want_final = reference_loop(seed, corpus, PROT, cfg, pins)

        assert len(pins) > 5
        got = [TaggerModel.load(tmp_path / f"model_iter_{i:02d}.model") for i in range(3)]
        for a, b in zip(got + [final], models + [want_final]):
            assert list(a.feature_index) == list(b.feature_index)
            assert a.epochs_trained == b.epochs_trained
            assert np.abs(a.weights - b.weights).max() <= 1e-12
            assert np.abs(a.transitions - b.transitions).max() <= 1e-12
        assert [g.epochs_trained for g in got] == [3, 5, 7] and final.epochs_trained == 2
        for row, (pinned, entropy) in zip(trace.rows[1:], stats):
            assert row.pinned_tokens == pinned
            assert abs(row.mean_entropy - entropy) <= 1e-12
