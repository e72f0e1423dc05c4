"""Acceptance suite.

One test per criterion; each prints a [acceptance N] PASS/FAIL line (visible
with pytest -s) and enforces the stated tolerances and runtime budgets:

  1  inference oracles (enumeration)        < 30 s
  2  gradient checks (finite differences)   < 30 s
  3  matcher vs naive window-scan oracle    < 10 s
  4  BIO + file round-trips
  5  directional grid reproduction          < 5 min
  6  byte-identical reruns of the CLI grid
  7  degenerate-input behavior
"""

import filecmp
import itertools
import os
import time

import numpy as np
import pytest

from weakner.bootstrap import BootstrapConfig, iterative_train, relabel
from weakner.cli import main
from weakner.corpus import (
    Dataset,
    EntitySpan,
    Sentence,
    TagSet,
    bio_decode,
    bio_encode,
    read_conll,
    split_seed,
    write_conll,
)
from weakner.refset import (
    MatchPolicy,
    ReferenceSet,
    audit_matcher,
    exact_policy,
    filter_names,
    filtered_policy,
    find_matches,
)
from weakner.synthetic import SyntheticSpec, generate_synthetic
from weakner.tagger import Objective, TaggerModel, TrainConfig, train
from test_refset import naive_matches
from test_tagger import dataset_loss_and_gradient

PROT = TagSet(("PROT",))
FIVE = TagSet(("PROT", "CELL"))
VOCAB = ["p53", "binds", "MDM2", "the", "TIGAR", "assay", "level", "x1"]


def _report(criterion, ok, detail):
    print(f"\n[acceptance {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance criterion {criterion}: {detail}"


def _random_sentence(rng, max_len):
    n = int(rng.integers(1, max_len + 1))
    return Sentence([VOCAB[int(rng.integers(len(VOCAB)))] for _ in range(n)])


def _random_model(rng, tags, sentences, scale=1.0):
    model = TaggerModel(tags)
    model._feature_ids(sentences, grow=True)
    model.weights = rng.normal(scale=scale, size=model.weights.shape)
    model.transitions = rng.normal(scale=scale, size=model.transitions.shape)
    return model


def _enumerate(E, T):
    """All-sequence scores from the raw potentials: the inference oracle."""
    n, k = E.shape
    seqs = np.array(list(itertools.product(range(k), repeat=n)), dtype=np.intp)
    scores = E[np.arange(n), seqs].sum(axis=1)
    if n > 1:
        scores += T[seqs[:, :-1], seqs[:, 1:]].sum(axis=1)
    m = scores.max()
    p = np.exp(scores - m)
    p /= p.sum()
    marginals = np.zeros((n, k))
    for i in range(n):
        np.add.at(marginals[i], seqs[:, i], p)
    best = [int(t) for t in seqs[int(np.argmax(scores))]]
    return marginals, best


def test_criterion_1_inference_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(200):
        tags = FIVE if trial % 2 else PROT
        sent = _random_sentence(rng, max_len=6)
        model = _random_model(rng, tags, [sent])
        E, _ = model.emissions([sent])
        marginals, best = _enumerate(E, model.transitions)
        soft = model.predict_soft([sent])[0]
        worst = max(worst, float(np.abs(soft.dist - marginals).max()))
        assert model.predict_hard([sent])[0] == best
    elapsed = time.perf_counter() - t0
    _report(
        1,
        worst < 1e-9 and elapsed < 30,
        f"200 settings, max marginal error {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_gradient_checks():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    h = 1e-6
    worst = 0.0
    for trial in range(50):
        objective = Objective.MARGINAL if trial % 2 else Objective.SEQUENCE
        tags = FIVE if trial % 3 == 0 else PROT
        k = len(tags)
        sents, labels = [], []
        for _ in range(3):
            sent = _random_sentence(rng, max_len=5)
            sents.append(sent)
            if objective is Objective.MARGINAL and trial % 4 == 0:
                from weakner.corpus import Provenance, SoftLabeling

                labels.append(SoftLabeling(
                    rng.dirichlet(np.ones(k), size=len(sent)),
                    np.full(len(sent), Provenance.PREDICTED, dtype=np.int8),
                ))
            else:
                labels.append([int(t) for t in rng.integers(0, k, size=len(sent))])
        data = Dataset(sents, labels)
        model = _random_model(rng, tags, sents, scale=0.5)
        cfg = TrainConfig(objective=objective, l2=1e-3 if trial % 2 else 0.0)
        _, gW, gT = dataset_loss_and_gradient(model, data, cfg)
        for _ in range(4):
            if rng.random() < 0.7:
                arr, grad = model.weights, gW
            else:
                arr, grad = model.transitions, gT
            i = int(rng.integers(arr.shape[0]))
            j = int(rng.integers(arr.shape[1]))
            orig = arr[i, j]
            arr[i, j] = orig + h
            up = dataset_loss_and_gradient(model, data, cfg)[0]
            arr[i, j] = orig - h
            down = dataset_loss_and_gradient(model, data, cfg)[0]
            arr[i, j] = orig
            fd = (up - down) / (2 * h)
            rel = abs(grad[i, j] - fd) / max(1.0, abs(fd))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    _report(
        2,
        worst < 1e-4 and elapsed < 30,
        f"50 instances, worst relative error {worst:.2e}, {elapsed:.1f}s",
    )


# -- criterion 3: matcher vs naive scan --------------------------------------

def test_criterion_3_matcher_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    chars = "aAbB"

    def word():
        return "".join(chars[int(rng.integers(len(chars)))] for _ in range(int(rng.integers(1, 4))))

    c1 = exact_policy()
    c2 = MatchPolicy(case_sensitive=False, allow_partial=True, min_name_length=1)
    for trial in range(500):
        names = set()
        for _ in range(int(rng.integers(1, 7))):
            names.add(word() if rng.random() < 0.8 else word() + " " + word())
        sents = []
        for _ in range(int(rng.integers(1, 4))):
            toks = []
            for _ in range(int(rng.integers(1, 8))):
                r = rng.random()
                if r < 0.5:
                    toks.append(word())
                elif r < 0.75:
                    toks.append(sorted(names)[int(rng.integers(len(names)))].replace(" ", "-"))
                else:
                    toks.append(word() + "-" + word())
            sents.append(Sentence(toks))
        corpus = Dataset(sents, [None] * len(sents))
        refset = ReferenceSet(frozenset(names), "PROT")
        for policy in (c1, c2):
            got = [(m.sentence, m.first, m.last, m.name) for m in find_matches(corpus, refset, policy)]
            assert got == naive_matches(corpus, names, policy), trial

    # the hand-built 20-name filter fixture, including the dictionary-homograph case
    dictionary = frozenset({"anova", "set", "mask", "flag", "cycle"})
    keep = {"TIGAR", "MDM2x", "TP53B", "CDK12", "BRCA1", "EGFR2", "AKT11", "MTOR1",
            "RAF99", "MEKK4"}
    rs = ReferenceSet(frozenset(keep | {"ANOVA", "Set", "MASK", "Flag", "Cycle"}
                                | {"AB", "p5", "XY", "Z", "QRS"}), "PROT")
    ok_filter = filter_names(
        rs, MatchPolicy(min_name_length=4, dictionary_filter=dictionary)
    ).names == frozenset(keep)
    elapsed = time.perf_counter() - t0
    _report(
        3,
        ok_filter and elapsed < 10,
        f"500 corpora x 2 policies equal the naive scan; filter fixture ok; {elapsed:.1f}s",
    )


def test_criterion_4_round_trips(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    # 10,000 random BIO-valid labelings: encode(decode(x)) == x
    for trial in range(10_000):
        tags = FIVE if trial % 2 else PROT
        n = int(rng.integers(1, 14))
        spans, pos = [], 0
        while pos < n:
            if rng.random() < 0.4:
                width = int(rng.integers(1, min(3, n - pos) + 1))
                ty = tags.entity_types[int(rng.integers(len(tags.entity_types)))]
                spans.append(EntitySpan(0, pos, pos + width - 1, ty))
                pos += width
            else:
                pos += 1
        labels = bio_encode(spans, n, tags)
        assert bio_encode(bio_decode(labels, tags), n, tags) == labels

    # normalized label files survive read -> write byte-identically
    tag_names = FIVE.tags
    for trial in range(40):
        blocks = []
        for _ in range(int(rng.integers(1, 6))):
            lines = []
            for _ in range(int(rng.integers(1, 8))):
                tok = VOCAB[int(rng.integers(len(VOCAB)))]
                lines.append(f"{tok}\t{tag_names[int(rng.integers(len(tag_names)))]}\n")
            blocks.append("".join(lines))
        normalized = "\n".join(blocks)
        src = tmp_path / f"r{trial}.conll"
        src.write_text(normalized, encoding="utf-8")
        out = tmp_path / f"w{trial}.conll"
        write_conll(read_conll(src, FIVE), out, FIVE)
        assert out.read_bytes() == normalized.encode("utf-8")
    elapsed = time.perf_counter() - t0
    _report(4, True, f"10,000 BIO round-trips + 40 file round-trips, {elapsed:.1f}s")


# -- criterion 5: directional reproduction on the synthetic harness ----------

@pytest.fixture(scope="module")
def harness():
    """Fixed-seed harness: 2,000 sentences, 3% seed, K=10."""
    t0 = time.perf_counter()
    spec = SyntheticSpec(n_sentences=2000, ambiguity_rate=0.3, rng_seed=1)
    gold, refset, dictionary = generate_synthetic(spec)
    train_gold, _, test = split_seed(gold, 0.8, 1)
    seed_ds, corpus, corpus_gold = split_seed(train_gold, 0.03, 2)

    c1_matches = find_matches(corpus, refset, exact_policy())
    c2_policy = filtered_policy(dictionary, 4)
    c2_matches = find_matches(corpus, filter_names(refset, c2_policy), c2_policy)

    cfg = BootstrapConfig(iterations=10, seed_epochs=12, round_epochs=3,
                          learning_rate=0.25, decay=0.08, l2=1e-4, rng_seed=1)
    _, e8_trace = iterative_train(seed_ds, corpus, PROT, cfg, pins=c2_matches, heldout=test)
    _, e7_trace = iterative_train(seed_ds, corpus, PROT, cfg, pins=c1_matches, heldout=test)
    return {
        "corpus_gold": corpus_gold,
        "c1": c1_matches,
        "c2": c2_matches,
        "e7": e7_trace,
        "e8": e8_trace,
        "elapsed": time.perf_counter() - t0,
    }


def test_criterion_5_directional_reproduction(harness):
    e8_f1 = [row.report.f1 * 100 for row in harness["e8"]]
    e7_f1 = [row.report.f1 * 100 for row in harness["e7"]]
    seed_only, e8_final, e7_final = e8_f1[0], e8_f1[-1], e7_f1[-1]

    gain = e8_final - seed_only
    a = gain >= 3.0
    b = e8_final > e7_final
    p1, _ = audit_matcher(harness["c1"], harness["corpus_gold"], PROT)
    p2, _ = audit_matcher(harness["c2"], harness["corpus_gold"], PROT)
    c = p2 > p1
    d = e8_f1[-1] >= e8_f1[1] >= e8_f1[0]
    elapsed = harness["elapsed"]
    _report(
        5,
        a and b and c and d and elapsed < 300,
        f"(a) E8 {e8_final:.2f} vs seed-only {seed_only:.2f} (gain {gain:+.2f} >= 3); "
        f"(b) E8 > E7 {e7_final:.2f}; "
        f"(c) matcher P: C2 {100 * p2:.2f} > C1 {100 * p1:.2f}; "
        f"(d) F1 path iter0 {e8_f1[0]:.2f} <= iter1 {e8_f1[1]:.2f} <= iterK {e8_f1[-1]:.2f}; "
        f"{elapsed:.0f}s",
    )


def test_criterion_6_grid_determinism(tmp_path):
    t0 = time.perf_counter()
    args = [
        "synthetic", "--sentences", "300", "--entity-names", "80",
        "--context-words", "150", "--distractors", "30", "--rng-seed", "11",
        "--grid", "--iterations", "3", "--epochs", "2", "--seed-epochs", "6",
        "--full-epochs", "3", "--final-epochs", "3", "--seed-frac", "0.05",
    ]
    dirs = [tmp_path / "run_a", tmp_path / "run_b"]
    for d in dirs:
        assert main(args + ["--out-dir", str(d)]) == 0
    files = ["gold.conll", "refset.txt", "dictionary.txt", "report.tsv", "report.txt"]
    files += [os.path.join("models", m) for m in sorted(os.listdir(dirs[0] / "models"))]
    mismatches = [
        f for f in files if not filecmp.cmp(dirs[0] / f, dirs[1] / f, shallow=False)
    ]
    assert len([f for f in files if f.startswith("models")]) == 9
    elapsed = time.perf_counter() - t0
    _report(
        6,
        not mismatches,
        f"two grid runs, {len(files)} files byte-identical, {elapsed:.0f}s",
    )


def test_criterion_7_degenerate_cases():
    seed = Dataset(
        [Sentence(["p53", "binds", "MDM2"]),
         Sentence(["the", "assay", "ran"]),
         Sentence(["TIGAR", "level", "rose"])],
        [[1, 0, 1], [0, 0, 0], [1, 0, 0]],
    )
    corpus = Dataset(
        [Sentence(["MDM2", "binds", "p53"]),
         Sentence(["the", "TIGAR", "assay"])],
        [None, None],
    )
    kw = dict(seed_epochs=2, round_epochs=2, final_epochs=2,
              learning_rate=0.2, decay=0.1, l2=1e-4, rng_seed=0)
    cfg = BootstrapConfig(iterations=2, **kw)

    # empty reference set: relabel is exactly self-training
    model = train(seed, PROT, cfg.train_cfg(cfg.seed_epochs))
    relabeled = relabel(corpus, model, [])
    self_training = all(
        np.array_equal(soft.dist, model.predict_soft([sent])[0].dist)
        for sent, soft in zip(corpus.sentences, relabeled.labels)
    )

    # K = 0 returns the seed-only model
    k0_cfg = BootstrapConfig(iterations=0, **kw)
    k0_model, k0_trace = iterative_train(seed, corpus, PROT, k0_cfg, pins=[])
    k0 = (
        np.array_equal(k0_model.weights, model.weights)
        and np.array_equal(k0_model.transitions, model.transitions)
        and len(k0_trace) == 1
    )

    # empty corpus: every round is a plain fine-tune on the seed
    empty = Dataset([], [])
    ec_model, _ = iterative_train(seed, empty, PROT, cfg, pins=[])
    manual = train(seed, PROT, cfg.train_cfg(cfg.seed_epochs))
    for _ in range(cfg.iterations):
        manual = train(seed, PROT, cfg.train_cfg(cfg.round_epochs), init=manual)
    ec = np.array_equal(ec_model.weights, manual.weights)

    _report(
        7,
        self_training and k0 and ec,
        f"self-training equality {self_training}, K=0 seed-only {k0}, empty corpus {ec}",
    )
