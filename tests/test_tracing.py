"""The benchmark's span tracer (perfbench/spans.py) run against the library.

The tracer wraps library functions and methods by name, so a refactor that
renames or re-binds one of them would silently break traced benchmark runs.
These tests only import from perfbench/.
"""

import importlib
import pathlib
import subprocess
import sys

import pytest

from weakner import bootstrap, refset, tagger
from weakner.corpus import Dataset, Sentence, TagSet

PROT = TagSet(("PROT",))


@pytest.fixture
def spans(monkeypatch):
    perfbench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    return importlib.import_module("spans")


def _bindings(spans):
    """(owner, attribute) -> current value, for every binding the tracer
    patches; a wrapper left behind still names its original."""
    out = {}
    for _, fn, _ in spans.FUNCTIONS:
        for module in spans._weakner_modules():
            for attr, value in vars(module).items():
                if value is fn or getattr(value, "__wrapped__", None) is fn:
                    out[(module.__name__, attr)] = value
    for _, cls, attr in spans.METHODS:
        out[(cls.__name__, attr)] = vars(cls)[attr]
    return out


def test_installed_traces_library_calls_and_restores_bindings(spans, tmp_path):
    seed = Dataset(
        [Sentence(["p53", "binds", "MDM2"]), Sentence(["the", "assay"])],
        [[1, 0, 1], [0, 0]],
    )
    corpus = Dataset([Sentence(["the", "Flag-tagged-TIGAR", "assay"])], [None])
    cfg = bootstrap.BootstrapConfig(iterations=1, seed_epochs=2, round_epochs=2, final_epochs=2,
                                    learning_rate=0.2, decay=0.05)
    before = _bindings(spans)
    train = bootstrap.train
    tracer = spans.Tracer()
    with tracer.installed():
        assert bootstrap.train is not train and bootstrap.train.__wrapped__ is train
        pins = refset.find_matches(
            corpus,
            refset.ReferenceSet(frozenset({"TIGAR", "AB"}), "PROT"),
            refset.filtered_policy({"assay"}, 4),
        )
        model, _ = bootstrap.iterative_train(seed, corpus, PROT, cfg, pins, heldout=seed)
        final = bootstrap.finalize(model, seed, corpus, cfg, pins)
        path = tmp_path / "final.model"
        final.save(path)
        loaded = tagger.TaggerModel.load(path)
        tagger.predict_dataset_hard(loaded, corpus)
    assert _bindings(spans) == before

    counts = tracer.metrics()
    assert counts["bootstrap.iterative_train.calls"] == 1
    assert counts["bootstrap.finalize.calls"] == 1
    assert counts["tagger.train.calls"] == 3                  # seed, round 1, final
    # one update per sentence per epoch: 2 seed sentences x 2 epochs, then
    # seed + corpus (3 sentences) x 2 epochs in round 1 and in the final retrain
    assert counts["tagger.train.updates"] == 2 * 2 + 3 * 2 + 3 * 2
    assert counts["bootstrap.relabel.calls"] == 2             # round 1, finalize
    assert counts["refset.find_matches.calls"] == 1
    assert counts["refset.matches"] == 1
    assert counts["bootstrap.pinned_tokens"] == 2
    assert counts["metrics.evaluate_model.calls"] == 2        # M_0 and M_1
    assert counts["tagger.save.calls"] == 1
    assert counts["tagger.load.calls"] == 1
    assert counts["tagger.predict_dataset_hard.calls"] == 1
    assert counts["tagger.predict_soft.calls"] == 4           # 2 relabels, 2 soft evaluations
    assert counts["tagger.predict_hard.calls"] == 1
    for name in ("features", "emissions"):
        assert counts[f"tagger.{name}.calls"] > 0
    assert not tracer.check_nesting()


def test_benchmark_selftest_passes(tmp_path):
    """perfbench/selftest.py runs every workload at tiny size, untraced and
    traced, and fails when a metric reads zero everywhere: a library change
    that bypasses a traced name blinds the tracer without failing a pass."""
    root = pathlib.Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "selftest.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, (done.stdout + done.stderr)[-2000:]
