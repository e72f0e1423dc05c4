"""The benchmark's workloads: inputs from a seed, one timed pass, output checks.

Each workload builds its inputs in ``setup`` (run several times, so set-up
time is a median) and runs the library in ``run`` (the timed pass, which is
all that tracing sees). ``check`` verifies a pass's outputs and returns
their digest, which must repeat from pass to pass; ``score`` gives the F1
numbers, once per run. The library is always called through module
attributes, so the tracer's wrappers see every call.

Every workload derives its corpus from ``generate_synthetic`` with
``rng_seed = seed``; the split seeds and the training seed are those of
the ROADMAP harness (0.8 with rng 1, then 0.03 with rng 2, training rng 1).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil

import numpy as np

from weakner import bootstrap, cli, metrics, refset, tagger
from weakner.corpus import Dataset, DatasetKind, SoftLabeling, TagSet, sentence_from_texts
from weakner.corpus import split_seed, write_conll
from weakner.synthetic import SyntheticSpec, generate_synthetic

PROT = TagSet(("PROT",))
TRAIN_KW = dict(learning_rate=0.25, decay=0.08, l2=1e-4, rng_seed=1)

# Input sizes. "full" is what the benchmark measures; "tiny" is for the
# self-test. The ROADMAP harness (2,000 sentences, K=10) takes about 45 s
# per pass, too long to repeat inside one run, so the bootstrap workload
# keeps every setting of the harness except corpus size and K.
SIZES = {
    "full": {
        "bootstrap": dict(sentences=300, iterations=3, test=2000),
        "decode": dict(harness=2000, decoded=1500),
        "long-crf": dict(sources=1000, epochs=3, test=2000),
    },
    "tiny": {
        "bootstrap": dict(sentences=120, iterations=1, test=100),
        "decode": dict(harness=150, decoded=150),
        "long-crf": dict(sources=150, epochs=1, test=100),
    },
}


class CheckFailed(Exception):
    """A pass produced output that fails a correctness check."""


# -- output checks -------------------------------------------------------------

def check_marginals(labels):
    for s, soft in enumerate(labels):
        if not isinstance(soft, SoftLabeling):
            raise CheckFailed(f"sentence {s}: expected soft labels")
        if not np.isfinite(soft.dist).all():
            raise CheckFailed(f"sentence {s}: non-finite marginal")
        if np.abs(soft.dist.sum(axis=1) - 1.0).max() > 1e-9:
            raise CheckFailed(f"sentence {s}: marginal row does not sum to 1")


def check_bio(pred: Dataset, tags: TagSet):
    """Every hard labeling is a valid BIO sequence of its sentence's length."""
    for s, (sent, labels) in enumerate(zip(pred.sentences, pred.labels)):
        if len(labels) != len(sent):
            raise CheckFailed(f"sentence {s}: {len(labels)} tags for {len(sent)} tokens")
        prev = 0
        for t in labels:
            if not 0 <= t < len(tags):
                raise CheckFailed(f"sentence {s}: tag index {t} out of range")
            if t != 0 and not tags.is_begin(t):
                if prev == 0 or tags.type_of(prev) != tags.type_of(t):
                    raise CheckFailed(f"sentence {s}: I- tag without an open span")
            prev = t


def check_weights(model):
    if not (np.isfinite(model.weights).all() and np.isfinite(model.transitions).all()):
        raise CheckFailed("model has non-finite weights")


def f1_percent(pred: Dataset, gold: Dataset) -> float:
    return 100.0 * metrics.score_datasets(pred, gold, PROT).f1


def pin_precision(matches, gold: Dataset) -> float:
    """Share of pinned tokens whose pin equals the gold tag."""
    pinned = useful = 0
    for m in matches:
        row = gold.labels[m.sentence]
        for i in range(m.first, m.last + 1):
            tag = PROT.b_index(m.entity_type) if i == m.first else PROT.i_index(m.entity_type)
            pinned += 1
            useful += row[i] == tag
    return useful / pinned if pinned else 0.0


def _digest(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _harness_split(gold: Dataset):
    """(train 80%, held-out 20%) as in the ROADMAP harness."""
    train_gold, _, test = split_seed(gold, 0.8, 1)
    return train_gold, test


def _head(data: Dataset, start: int, stop: int) -> Dataset:
    return Dataset(data.sentences[start:stop], data.labels[start:stop], data.kind)


def _concatenate(gold: Dataset, rng) -> Dataset:
    """Long sentences, each joining 1-8 consecutive sentences of ``gold``."""
    sentences, labels = [], []
    i = 0
    while i < len(gold):
        k = int(rng.integers(1, 9))
        parts = range(i, min(i + k, len(gold)))
        sentences.append(sentence_from_texts(
            [t for j in parts for t in gold.sentences[j].texts()]
        ))
        labels.append([t for j in parts for t in gold.labels[j]])
        i += k
    return Dataset(sentences, labels, DatasetKind.SEED)


# -- workloads -------------------------------------------------------------------

class Bootstrap:
    """The harness pipeline run as users run it: ``weakner bootstrap``."""

    name = "bootstrap"

    def __init__(self, seed: int, workdir: str, sentences: int, iterations: int, test: int):
        self.seed, self.workdir = seed, workdir
        self.sentences, self.iterations, self.test_size = sentences, iterations, test

    def setup(self):
        gold, ref, dictionary = generate_synthetic(SyntheticSpec(
            n_sentences=self.sentences + self.test_size, ambiguity_rate=0.3, rng_seed=self.seed,
        ))
        train_gold, self.heldout = _harness_split(_head(gold, 0, self.sentences))
        self.test = _head(gold, self.sentences, len(gold))
        seed_ds, corpus, self.corpus_gold = split_seed(train_gold, 0.03, 2)
        d = os.path.join(self.workdir, "inputs")
        os.makedirs(d, exist_ok=True)
        self.files = {k: os.path.join(d, k + ".txt") for k in
                      ("seed", "corpus", "heldout", "refset", "dictionary")}
        write_conll(seed_ds, self.files["seed"], PROT)
        write_conll(corpus, self.files["corpus"], PROT)
        write_conll(self.heldout, self.files["heldout"], PROT)
        for key, words in (("refset", ref.names), ("dictionary", dictionary)):
            with open(self.files[key], "w", encoding="utf-8", newline="\n") as fh:
                fh.write("".join(w + "\n" for w in sorted(words)))
        self.out_dir = os.path.join(self.workdir, "out")
        self.model_files = [f"model_iter_{i:02d}.model" for i in range(self.iterations + 1)]
        self.model_files += ["final_soft.model", "final_crf.model"]

    def run(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        f = self.files
        argv = [
            "bootstrap", "--seed", f["seed"], "--corpus", f["corpus"],
            "--refset", f["refset"], "--dictionary", f["dictionary"], "--policy", "c2",
            "--heldout", f["heldout"], "--iterations", str(self.iterations),
            "--epochs", "3", "--seed-epochs", "12", "--final-epochs", "6",
            "--learning-rate", "0.25", "--decay", "0.08", "--l2", "1e-4",
            "--rng-seed", "1", "--out-dir", self.out_dir,
        ]
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            exit_code = cli.main(argv)
        return exit_code, printed.getvalue()

    def _load(self, name):
        return tagger.TaggerModel.load(os.path.join(self.out_dir, name))

    def check(self, outputs) -> str:
        exit_code, printed = outputs
        if exit_code != 0 or not printed.startswith("done: "):
            raise CheckFailed(f"weakner bootstrap exited with {exit_code}: {printed!r}")
        for name in self.model_files:
            check_weights(self._load(name))
        check_bio(tagger.predict_dataset_hard(self._load("final_crf.model"), self.heldout), PROT)
        soft = tagger.predict_dataset_soft(self._load("final_soft.model"), self.heldout)
        check_marginals(soft.labels)
        trace_path = os.path.join(self.out_dir, "trace.tsv")
        with open(trace_path, encoding="utf-8") as fh:
            if len(fh.readlines()) != self.iterations + 2:
                raise CheckFailed("trace.tsv does not have one row per round")
        return _digest(*(_read(os.path.join(self.out_dir, n)) for n in self.model_files),
                       _read(trace_path))

    def score(self, outputs) -> dict:
        hard = tagger.predict_dataset_hard(self._load("final_crf.model"), self.test)
        soft = tagger.predict_dataset_soft(self._load("final_soft.model"), self.test)
        return {"f1": f1_percent(hard, self.test), "f1_soft": f1_percent(soft, self.test)}

    def pin_precision(self, matches):
        return pin_precision(matches, self.corpus_gold)


class Decode:
    """Inference only: load a saved model, pin, relabel and Viterbi-decode."""

    name = "decode"

    def __init__(self, seed: int, workdir: str, harness: int, decoded: int):
        self.seed, self.workdir = seed, workdir
        self.harness, self.decoded = harness, decoded

    def setup(self):
        gold, ref, dictionary = generate_synthetic(SyntheticSpec(
            n_sentences=self.harness + self.decoded, ambiguity_rate=0.3, rng_seed=self.seed,
        ))
        train_gold, _ = _harness_split(_head(gold, 0, self.harness))
        model = tagger.train(train_gold, PROT, tagger.TrainConfig(epochs=3, **TRAIN_KW))
        self.model_path = os.path.join(self.workdir, "decode.model")
        model.save(self.model_path)
        self.gold = _head(gold, self.harness, len(gold))
        self.corpus = Dataset(self.gold.sentences, [None] * len(self.gold), DatasetKind.CORPUS)
        self.policy = refset.filtered_policy(dictionary, 4)
        self.names = refset.filter_names(ref, self.policy)

    def run(self):
        model = tagger.TaggerModel.load(self.model_path)
        matches = refset.find_matches(self.corpus, self.names, self.policy)
        labeled = bootstrap.relabel(self.corpus, model, matches)
        hard = tagger.predict_dataset_hard(model, self.corpus)
        return model, matches, labeled, hard

    def check(self, outputs) -> str:
        model, matches, labeled, hard = outputs
        check_weights(model)
        check_marginals(labeled.labels)
        check_bio(hard, PROT)
        return _digest(
            repr(matches).encode(),
            *(soft.dist.tobytes() + soft.provenance.tobytes() for soft in labeled.labels),
            repr(hard.labels).encode(),
        )

    def score(self, outputs) -> dict:
        _, _, labeled, hard = outputs
        return {"f1": f1_percent(hard, self.gold), "f1_soft": f1_percent(labeled, self.gold)}

    def pin_precision(self, matches):
        return pin_precision(matches, self.gold)


class LongCrf:
    """Fully supervised SEQUENCE training on long, varied-length sentences."""

    name = "long-crf"

    def __init__(self, seed: int, workdir: str, sources: int, epochs: int, test: int):
        self.seed, self.workdir = seed, workdir
        self.sources, self.epochs, self.test_size = sources, epochs, test

    def setup(self):
        gold, _, _ = generate_synthetic(SyntheticSpec(
            n_sentences=self.sources + self.test_size, ambiguity_rate=0.3, rng_seed=self.seed,
        ))
        rng = np.random.default_rng(self.seed)
        train = _concatenate(_head(gold, 0, self.sources), rng)
        self.train_ds, self.heldout = _harness_split(train)
        self.test = _concatenate(_head(gold, self.sources, len(gold)), rng)
        self.cfg = tagger.TrainConfig(
            epochs=self.epochs, objective=tagger.Objective.SEQUENCE, **TRAIN_KW
        )
        self.model_path = os.path.join(self.workdir, "long_crf.model")

    def run(self):
        model = tagger.train(self.train_ds, PROT, self.cfg)
        report = metrics.evaluate_model(model, self.heldout, mode="hard")
        return model, report

    def check(self, outputs) -> str:
        model, report = outputs
        check_weights(model)
        hard = tagger.predict_dataset_hard(model, self.heldout)
        check_bio(hard, PROT)
        if f1_percent(hard, self.heldout) != 100.0 * report.f1:
            raise CheckFailed("evaluate_model disagrees with the Viterbi output")
        check_marginals(tagger.predict_dataset_soft(model, self.heldout).labels)
        model.save(self.model_path)
        return _digest(_read(self.model_path))

    def score(self, outputs) -> dict:
        model, _ = outputs
        hard = tagger.predict_dataset_hard(model, self.test)
        soft = tagger.predict_dataset_soft(model, self.test)
        return {"f1": f1_percent(hard, self.test), "f1_soft": f1_percent(soft, self.test)}

    def pin_precision(self, matches):
        return 0.0


WORKLOADS = {w.name: w for w in (Bootstrap, Decode, LongCrf)}


def make(name: str, seed: int, workdir: str, size: str = "full"):
    return WORKLOADS[name](seed, workdir, **SIZES[size][name])
