"""End-to-end subcommand tests: files written, exit codes, determinism."""

import json
import os

import numpy as np
import pytest

from weakner import cli, experiments
from weakner.bootstrap import BootstrapConfig
from weakner.cli import main
from weakner.corpus import TagSet, read_conll
from weakner.errors import WeaknerError
from weakner.experiments import Condition, GridConfig
from weakner.refset import exact_policy, filtered_policy, load_dictionary, load_reference_set
from weakner.synthetic import SyntheticSpec, generate_synthetic
from weakner.tagger import TaggerModel

PROT = TagSet(("PROT",))


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    """A small generated corpus shared by the pipeline tests."""
    out = tmp_path_factory.mktemp("synth")
    rc = main([
        "synthetic", "--out-dir", str(out), "--sentences", "120",
        "--entity-names", "60", "--context-words", "120", "--distractors", "20",
        "--rng-seed", "3",
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def split_dir(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("split")
    rc = main([
        "split", "--input", str(synth_dir / "gold.conll"), "--seed-frac", "0.1",
        "--rng-seed", "1", "--out-dir", str(out),
    ])
    assert rc == 0
    return out


class TestSynthetic:
    def test_writes_fixture_files(self, synth_dir):
        for name in ("gold.conll", "refset.txt", "dictionary.txt"):
            assert (synth_dir / name).exists()
        ds = read_conll(synth_dir / "gold.conll", PROT)
        assert len(ds) == 120

    def test_seed_changes_corpus_same_schema(self, synth_dir, tmp_path):
        rc = main([
            "synthetic", "--out-dir", str(tmp_path), "--sentences", "120",
            "--entity-names", "60", "--context-words", "120", "--distractors", "20",
            "--rng-seed", "4",
        ])
        assert rc == 0
        assert (tmp_path / "gold.conll").read_bytes() != (synth_dir / "gold.conll").read_bytes()
        ds = read_conll(tmp_path / "gold.conll", PROT)
        assert len(ds) == 120

    def test_grid_has_no_name_length_option(self, tmp_path, capsys):
        # --min-name-len used to set a C2 floor of the grid's own
        rc = main(["synthetic", "--grid", "--min-name-len", "3",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert "--min-name-len" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_corpus_options_default_to_the_spec(self, tmp_path, monkeypatch):
        specs = []

        def capture(spec):
            specs.append(spec)
            raise WeaknerError("stop before generating")

        monkeypatch.setattr(cli, "generate_synthetic", capture)
        assert main(["synthetic", "--out-dir", str(tmp_path)]) == 2
        assert specs == [SyntheticSpec()]

    @pytest.mark.parametrize("option, named", [
        (["--seed-frac", "1.5"], "seed_fraction must be in (0, 1), got 1.5"),
        (["--test-frac", "0"], "test_fraction must be in (0, 1), got 0.0"),
        (["--full-epochs", "0"], "full_epochs must be an integer >= 1, not 0"),
        (["--epochs", "0"], "round_epochs must be an integer >= 1, not 0"),
        (["--seed-epochs", "0"], "seed_epochs must be an integer >= 1, not 0"),
        (["--final-epochs", "0"], "final_epochs must be an integer >= 1, not 0"),
    ])
    def test_bad_grid_setting_is_data_error_and_writes_nothing(self, tmp_path, capsys, option,
                                                                named):
        # used to write gold.conll, refset.txt and dictionary.txt first, and
        # --test-frac 0 read "got 1.0"
        rc = main(["synthetic", "--out-dir", str(tmp_path / "out"), "--sentences", "10",
                   "--grid", *option])
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_rate_is_usage_error(self, tmp_path):
        rc = main(["synthetic", "--out-dir", str(tmp_path), "--ambiguity", "1.5"])
        assert rc == 1

    @pytest.mark.parametrize("option", [
        ["--rng-seed", "-1"], ["--distractors", "-5"], ["--distractors", "0"],
        ["--short-rate", "0.8"],    # used to exit 0 with 345 names for --entity-names 300
    ])
    def test_bad_count_is_usage_error(self, tmp_path, option):
        # used to exit 3 with a ValueError from inside the generator
        rc = main(["synthetic", "--out-dir", str(tmp_path / "out"), "--sentences", "10", *option])
        assert rc == 1
        assert not (tmp_path / "out").exists()

    def test_too_few_context_words_names_the_option_field(self, tmp_path, capsys):
        # used to read "n_triggers must be smaller than n_context_words", a
        # field no option sets
        rc = main(["synthetic", "--out-dir", str(tmp_path / "out"), "--context-words", "12"])
        assert rc == 1
        assert "n_context_words must be an integer >= 13" in capsys.readouterr().err

    @pytest.mark.parametrize("entity_type", ["a b", ""])
    def test_entity_type_no_label_file_can_carry_is_usage_error(self, tmp_path, entity_type):
        # "a b" used to exit 0 and write tags that split then read as three
        # columns; "" wrote bare B- and I- tags
        rc = main(["synthetic", "--out-dir", str(tmp_path / "out"), "--sentences", "10",
                   "--entity-type", entity_type])
        assert rc == 1
        assert not (tmp_path / "out" / "gold.conll").exists()

    def test_grid_with_an_empty_seed_is_data_error(self, tmp_path, monkeypatch):
        # used to train the full-label rows E1-E4 before failing on the empty seed
        def no_condition_runs(*args, **kwargs):
            raise AssertionError("a grid condition ran")

        monkeypatch.setattr(experiments, "train", no_condition_runs)
        monkeypatch.setattr(experiments, "iterative_train", no_condition_runs)
        rc = main([
            "synthetic", "--out-dir", str(tmp_path), "--sentences", "120",
            "--entity-names", "60", "--context-words", "120", "--distractors", "20",
            "--grid", "--seed-frac", "0.001",
        ])
        assert rc == 2
        assert not (tmp_path / "report.tsv").exists()


class TestSplit:
    def test_files_and_sizes(self, split_dir):
        seed = read_conll(split_dir / "seed.conll", PROT)
        corpus = read_conll(split_dir / "corpus.conll", PROT)
        gold = read_conll(split_dir / "gold.conll", PROT)
        assert len(seed) == 12
        assert len(corpus) == 108
        assert len(gold) == 108
        # the corpus file carries no label information
        assert all(t == 0 for labels in corpus.labels for t in labels)

    def test_deterministic(self, synth_dir, tmp_path):
        for sub in ("a", "b"):
            rc = main([
                "split", "--input", str(synth_dir / "gold.conll"), "--seed-frac", "0.1",
                "--rng-seed", "1", "--out-dir", str(tmp_path / sub),
            ])
            assert rc == 0
        for name in ("seed.conll", "corpus.conll", "gold.conll"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_fraction_out_of_bounds_is_data_error(self, synth_dir, tmp_path):
        # errors.check_fraction holds the range rule, as for synthetic --grid
        rc = main([
            "split", "--input", str(synth_dir / "gold.conll"), "--seed-frac", "1.5",
            "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert not (tmp_path / "out").exists()

    def test_empty_seed_is_data_error(self, synth_dir, tmp_path):
        # used to write an empty seed.conll and exit 0
        rc = main([
            "split", "--input", str(synth_dir / "gold.conll"), "--seed-frac", "0.001",
            "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert not (tmp_path / "out").exists()

    def test_missing_input_is_data_error(self, tmp_path):
        rc = main([
            "split", "--input", str(tmp_path / "nope.conll"), "--out-dir", str(tmp_path),
        ])
        assert rc == 2

    @pytest.mark.parametrize("entity_type", ["a b", "PROT,a b", " , "])
    def test_entity_type_no_label_file_can_carry_is_usage_error(self, synth_dir, tmp_path,
                                                                entity_type):
        rc = main([
            "split", "--input", str(synth_dir / "gold.conll"), "--entity-type", entity_type,
            "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert not (tmp_path / "out").exists()


class TestMatch:
    def test_c2_pipeline_with_audit(self, synth_dir, split_dir, tmp_path, capsys):
        rc = main([
            "match", "--corpus", str(split_dir / "corpus.conll"),
            "--refset", str(synth_dir / "refset.txt"),
            "--dictionary", str(synth_dir / "dictionary.txt"),
            "--policy", "c2",
            "--gold", str(split_dir / "gold.conll"),
            "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "matcher P=" in out
        lines = (tmp_path / "matches.tsv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "sentence\tfirst\tlast\tname"
        assert len(lines) > 1

    def test_c2_without_dictionary_is_usage_error(self, synth_dir, split_dir, tmp_path):
        rc = main([
            "match", "--corpus", str(split_dir / "corpus.conll"),
            "--refset", str(synth_dir / "refset.txt"),
            "--policy", "c2", "--out-dir", str(tmp_path),
        ])
        assert rc == 1

    def test_matches_tsv_rows(self, tmp_path):
        corpus = tmp_path / "corpus.conll"
        corpus.write_text("the\tO\nassay\tO\n\nMDM2\tO\nbinds\tO\np53\tO\n", encoding="utf-8")
        refset = tmp_path / "names.txt"
        # a name split by a TAB used to match nothing
        for names in ("binds p53\nMDM2\n", "binds\tp53\nMDM2\n"):
            refset.write_text(names, encoding="utf-8")
            rc = main(["match", "--corpus", str(corpus), "--refset", str(refset),
                       "--out-dir", str(tmp_path)])
            assert rc == 0
            out = (tmp_path / "matches.tsv").read_bytes()
            assert out == b"sentence\tfirst\tlast\tname\n1\t0\t0\tMDM2\n1\t1\t2\tbinds p53\n"
            assert all(len(row.split(b"\t")) == 4 for row in out.splitlines())

    @pytest.mark.parametrize("policy", ["c1", "c2"])
    def test_policy_builds_the_papers_preset(self, synth_dir, split_dir, tmp_path, monkeypatch,
                                             policy):
        policies = []

        def capture(corpus, refset, policy):
            policies.append(policy)
            raise WeaknerError("stop before matching")

        monkeypatch.setattr(cli, "find_matches", capture)
        dictionary = synth_dir / "dictionary.txt"
        c2_input = ["--dictionary", str(dictionary)] if policy == "c2" else []
        rc = main([
            "match", "--corpus", str(split_dir / "corpus.conll"),
            "--refset", str(synth_dir / "refset.txt"),
            "--policy", policy, *c2_input, "--out-dir", str(tmp_path),
        ])
        assert rc == 2
        expected = (filtered_policy(load_dictionary(dictionary)) if policy == "c2"
                    else exact_policy())
        assert policies == [expected]

    @pytest.mark.parametrize("policy", [["--policy", "c1"], []], ids=["c1", "default"])
    def test_dictionary_with_c1_is_usage_error(self, synth_dir, split_dir, tmp_path, capsys,
                                               policy):
        # --dictionary used to add the dictionary filter to C1's exact search
        rc = main([
            "match", "--corpus", str(split_dir / "corpus.conll"),
            "--refset", str(synth_dir / "refset.txt"),
            "--dictionary", str(synth_dir / "dictionary.txt"), *policy,
            "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--dictionary" in err and "--policy" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option", ["--min-name-len=2", "--case-insensitive", "--partial=no"])
    @pytest.mark.parametrize("command", ["match", "bootstrap"])
    def test_policy_overrides_are_unknown_options(self, synth_dir, split_dir, tmp_path, capsys,
                                                  command, option):
        # each used to override one field of either preset
        inputs = {"match": ["--corpus", str(split_dir / "corpus.conll")],
                  "bootstrap": ["--seed", str(split_dir / "seed.conll"),
                                "--corpus", str(split_dir / "corpus.conll")]}[command]
        rc = main([command, *inputs, "--refset", str(synth_dir / "refset.txt"),
                   "--dictionary", str(synth_dir / "dictionary.txt"), "--policy", "c2",
                   option, "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert option.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_grid_c2_rows_run_the_match_policy(self, synth_dir, split_dir, tmp_path, monkeypatch):
        # the grid used to build its C2 policy with a name-length floor of its own
        policies = {"grid": [], "match": []}

        def capture(into):
            def find_matches(corpus, refset, policy):
                policies[into].append(policy)
                raise WeaknerError("stop before matching")
            return find_matches

        monkeypatch.setattr(experiments, "find_matches", capture("grid"))
        monkeypatch.setattr(cli, "find_matches", capture("match"))
        dictionary = synth_dir / "dictionary.txt"
        with pytest.raises(WeaknerError, match="stop before matching"):
            experiments.run_experiment_grid(
                read_conll(synth_dir / "gold.conll", PROT),
                PROT, load_reference_set(synth_dir / "refset.txt", "PROT"),
                load_dictionary(dictionary), [Condition("E8", "seed", "c2", "softmax")])
        rc = main(["match", "--corpus", str(split_dir / "corpus.conll"),
                   "--refset", str(synth_dir / "refset.txt"), "--dictionary", str(dictionary),
                   "--policy", "c2", "--out-dir", str(tmp_path)])
        assert rc == 2
        c2 = filtered_policy(load_dictionary(dictionary))
        assert policies["grid"] == policies["match"] == [c2]

    def test_gold_of_other_sentences_is_data_error(self, synth_dir, split_dir, tmp_path, capsys,
                                                   monkeypatch):
        # the seed file used to be scored against the corpus's matches: P=1.68 R=11.11, exit 0
        def no_matching(*args):
            raise AssertionError("matched before the gold file was checked")

        monkeypatch.setattr(cli, "find_matches", no_matching)
        rc = main([
            "match", "--corpus", str(split_dir / "corpus.conll"),
            "--refset", str(synth_dir / "refset.txt"),
            "--dictionary", str(synth_dir / "dictionary.txt"), "--policy", "c2",
            "--gold", str(split_dir / "seed.conll"), "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"data error: {split_dir / 'seed.conll'}: ")
        assert not (tmp_path / "out").exists()

    def test_unknown_tag_names_file_and_line(self, tmp_path, capsys):
        # used to print only "tag 'B-GENE' not in tag set [...]"
        corpus = tmp_path / "corpus.conll"
        corpus.write_text("p53\tB-PROT\n\nMDM2\tB-GENE\n", encoding="utf-8")
        refset = tmp_path / "names.txt"
        refset.write_text("MDM2\n", encoding="utf-8")
        rc = main(["match", "--corpus", str(corpus), "--refset", str(refset),
                   "--entity-type", "PROT", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert f"{corpus}:3: tag 'B-GENE'" in capsys.readouterr().err

    def test_no_matches_writes_empty_file(self, split_dir, tmp_path):
        refset = tmp_path / "names.txt"
        refset.write_text("ZZZZNOTINTEXTZZZ\n", encoding="utf-8")
        rc = main([
            "match", "--corpus", str(split_dir / "corpus.conll"),
            "--refset", str(refset), "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        lines = (tmp_path / "matches.tsv").read_text(encoding="utf-8").splitlines()
        assert lines == ["sentence\tfirst\tlast\tname"]

    def test_empty_refset_is_data_error(self, split_dir, tmp_path):
        refset = tmp_path / "empty.txt"
        refset.write_text("\n", encoding="utf-8")
        rc = main([
            "match", "--corpus", str(split_dir / "corpus.conll"),
            "--refset", str(refset), "--out-dir", str(tmp_path),
        ])
        assert rc == 2

    @pytest.mark.parametrize("which", ["refset", "dictionary"])
    def test_non_utf8_word_list_is_data_error(self, synth_dir, split_dir, tmp_path, which):
        files = {"refset": synth_dir / "refset.txt", "dictionary": synth_dir / "dictionary.txt"}
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(files[which].read_bytes() + "Gr\u00fcn\n".encode("latin-1"))
        files[which] = bad
        rc = main([
            "match", "--corpus", str(split_dir / "corpus.conll"),
            "--refset", str(files["refset"]), "--dictionary", str(files["dictionary"]),
            "--policy", "c2", "--out-dir", str(tmp_path),
        ])
        assert rc == 2


@pytest.fixture(scope="module")
def boot_dir(synth_dir, split_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("boot")
    rc = main([
        "bootstrap", "--seed", str(split_dir / "seed.conll"),
        "--corpus", str(split_dir / "corpus.conll"),
        "--refset", str(synth_dir / "refset.txt"),
        "--dictionary", str(synth_dir / "dictionary.txt"),
        "--policy", "c2", "--iterations", "2", "--epochs", "2",
        "--seed-epochs", "4", "--rng-seed", "0", "--out-dir", str(out),
    ])
    assert rc == 0
    return out


class TestBootstrap:
    def test_outputs(self, boot_dir):
        names = sorted(os.listdir(boot_dir))
        assert "trace.tsv" in names
        assert "final_soft.model" in names
        assert "final_crf.model" in names
        checkpoints = [n for n in names if n.startswith("model_iter_")]
        assert len(checkpoints) == 3  # K + 1

    def test_k_zero_is_seed_only(self, synth_dir, split_dir, tmp_path, capsys):
        rc = main([
            "bootstrap", "--seed", str(split_dir / "seed.conll"),
            "--corpus", str(split_dir / "corpus.conll"),
            "--refset", str(synth_dir / "refset.txt"),
            "--heldout", str(split_dir / "gold.conll"),
            "--iterations", "0", "--epochs", "2", "--no-final",
            "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        checkpoints = [n for n in os.listdir(tmp_path) if n.startswith("model_iter_")]
        assert checkpoints == ["model_iter_00.model"]
        assert "\nheld-out P=" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [("--l2", "nan"), ("--rng-seed", "-1")])
    def test_bad_training_setting_is_data_error(self, synth_dir, split_dir, tmp_path, flag, value):
        # --l2 nan used to exit 0 after training with no L2 at all, and
        # --rng-seed -1 to exit 3 on a bare ValueError
        rc = main([
            "bootstrap", "--seed", str(split_dir / "seed.conll"),
            "--corpus", str(split_dir / "corpus.conll"),
            "--refset", str(synth_dir / "refset.txt"),
            "--iterations", "1", "--epochs", "1", flag, value, "--out-dir", str(tmp_path),
        ])
        assert rc == 2

    @pytest.mark.parametrize("flag, field", [
        ("--epochs", "round_epochs"), ("--seed-epochs", "seed_epochs"),
        ("--final-epochs", "final_epochs"),
    ])
    def test_bad_epoch_count_names_its_field(self, synth_dir, split_dir, tmp_path, capsys, flag,
                                             field):
        # all three used to read "epochs must be an integer >= 1, not 0"
        rc = main([
            "bootstrap", "--seed", str(split_dir / "seed.conll"),
            "--corpus", str(split_dir / "corpus.conll"),
            "--refset", str(synth_dir / "refset.txt"),
            "--iterations", "1", flag, "0", "--out-dir", str(tmp_path),
        ])
        assert rc == 2
        assert f"{field} must be an integer >= 1, not 0" in capsys.readouterr().err

    def test_empty_seed_is_data_error_and_writes_nothing(self, synth_dir, split_dir, tmp_path):
        # used to leave an empty output directory behind
        empty = tmp_path / "empty.conll"
        empty.write_text("", encoding="utf-8")
        rc = main([
            "bootstrap", "--seed", str(empty), "--corpus", str(split_dir / "corpus.conll"),
            "--refset", str(synth_dir / "refset.txt"), "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert not (tmp_path / "out").exists()

    def test_rerun_identical_trace_and_models(self, synth_dir, split_dir, boot_dir, tmp_path):
        rc = main([
            "bootstrap", "--seed", str(split_dir / "seed.conll"),
            "--corpus", str(split_dir / "corpus.conll"),
            "--refset", str(synth_dir / "refset.txt"),
            "--dictionary", str(synth_dir / "dictionary.txt"),
            "--policy", "c2", "--iterations", "2", "--epochs", "2",
            "--seed-epochs", "4", "--rng-seed", "0", "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        for name in ("trace.tsv", "final_soft.model", "final_crf.model"):
            assert (tmp_path / name).read_bytes() == (boot_dir / name).read_bytes()


class TestPredictAndEval:
    def test_predict_writes_conll(self, boot_dir, split_dir, tmp_path):
        out = tmp_path / "pred.conll"
        rc = main([
            "predict", "--model", str(boot_dir / "final_crf.model"),
            "--input", str(split_dir / "corpus.conll"), "--out", str(out),
        ])
        assert rc == 0
        pred = read_conll(out, PROT)
        assert len(pred) == 108

    def test_predict_empty_input(self, boot_dir, tmp_path):
        empty = tmp_path / "empty.conll"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "pred.conll"
        rc = main([
            "predict", "--model", str(boot_dir / "final_soft.model"),
            "--input", str(empty), "--out", str(out),
        ])
        assert rc == 0
        assert out.read_text(encoding="utf-8") == ""

    def test_eval_prints_report(self, boot_dir, split_dir, capsys):
        rc = main([
            "eval", "--model", str(boot_dir / "final_soft.model"),
            "--data", str(split_dir / "gold.conll"), "--mode", "soft",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("P=") and "F1=" in out

    def test_eval_mismatched_tags_is_data_error(self, boot_dir, tmp_path):
        bad = tmp_path / "bad.conll"
        bad.write_text("x\tB-CELL\n", encoding="utf-8")
        rc = main([
            "eval", "--model", str(boot_dir / "final_soft.model"), "--data", str(bad),
        ])
        assert rc == 2

    def test_predict_non_utf8_input_is_data_error(self, boot_dir, split_dir, tmp_path):
        bad = tmp_path / "latin1.conll"
        bad.write_bytes((split_dir / "corpus.conll").read_bytes() + "\nGr\u00fcn\tO\n".encode("latin-1"))
        rc = main([
            "predict", "--model", str(boot_dir / "final_soft.model"),
            "--input", str(bad), "--out", str(tmp_path / "pred.conll"),
        ])
        assert rc == 2

    @pytest.mark.parametrize("damage", [
        "not_json", "no_entity_types", "not_utf8", "negative_window", "wide_window",
        "negative_epochs", "fractional_epochs", "text_epochs",
    ])
    def test_eval_corrupt_model_header_is_data_error(self, boot_dir, split_dir, tmp_path, damage):
        head, _, body = (boot_dir / "final_soft.model").read_bytes().partition(b"\n")
        header = json.loads(head)
        if damage == "no_entity_types":
            del header["entity_types"]
        elif damage == "negative_window":
            header["window"] = -3       # would load and silently drop the neighbour features
        elif damage == "wide_window":
            header["window"] = 3        # the features read 2; would load as 2
        elif damage.endswith("_epochs"):
            # would load, and fine-tuning would then fail with a bare error
            header["epochs_trained"] = {"negative": -30, "fractional": 2.5, "text": "x"}[damage[:-7]]
        head = json.dumps(header).encode("utf-8")
        if damage == "not_json":
            head = b"weakner-model v1"
        elif damage == "not_utf8":
            head = head.replace(b"weakner-model", b"weakner-mod\xe9l")
        path = tmp_path / "corrupt.model"
        path.write_bytes(head + b"\n" + body)
        rc = main(["eval", "--model", str(path), "--data", str(split_dir / "gold.conll")])
        assert rc == 2

    def test_eval_non_finite_model_is_data_error(self, boot_dir, split_dir, tmp_path):
        model = TaggerModel.load(boot_dir / "final_soft.model")
        model.weights[:] = np.nan
        path = tmp_path / "nan.model"
        model.save(path)
        rc = main(["eval", "--model", str(path), "--data", str(split_dir / "gold.conll")])
        assert rc == 2


@pytest.mark.parametrize("command", ["bootstrap", "eval", "match"])
def test_gold_file_without_entities_is_data_error(command, synth_dir, split_dir, boot_dir,
                                                   tmp_path, capsys):
    # split writes the corpus's tags as O; scored against, it used to read
    # P = R = F1 = 0.00 with exit 0, as if the model or matcher had failed
    all_o = str(split_dir / "corpus.conll")
    out = tmp_path / "out"
    args = {
        "bootstrap": ["--seed", str(split_dir / "seed.conll"), "--corpus", all_o,
                      "--refset", str(synth_dir / "refset.txt"), "--heldout", all_o],
        "eval": ["--model", str(boot_dir / "final_soft.model"), "--data", all_o],
        "match": ["--corpus", all_o, "--refset", str(synth_dir / "refset.txt"), "--gold", all_o],
    }[command]
    if command != "eval":
        args += ["--out-dir", str(out)]
    assert main([command, *args]) == 2
    err = capsys.readouterr().err
    assert "no gold entities" in err and all_o in err
    assert not out.exists()     # rejected before any matching or training


class TestOptionsFillConfigs:
    """Every loop, grid and corpus option, set to a value other than its
    default, lands in the config field it names."""

    LOOP = ["--iterations", "4", "--epochs", "5", "--final-epochs", "7",
            "--learning-rate", "0.3", "--decay", "0.05", "--l2", "0.002", "--rng-seed", "9"]
    LOOP_FIELDS = dict(iterations=4, round_epochs=5, final_epochs=7, learning_rate=0.3,
                       decay=0.05, l2=0.002, rng_seed=9)
    CORPUS = ["--sentences", "40", "--entity-names", "50", "--context-words", "90",
              "--distractors", "7", "--ambiguity", "0.2", "--hyphenation", "0.1",
              "--short-rate", "0.15", "--multiword-rate", "0.25", "--entity-type", "GENE"]
    CORPUS_FIELDS = dict(n_sentences=40, n_entity_names=50, n_context_words=90, n_distractors=7,
                         ambiguity_rate=0.2, hyphenation_rate=0.1, short_name_rate=0.15,
                         multiword_name_rate=0.25, entity_type="GENE", rng_seed=9)
    GRID = ["--seed-frac", "0.05", "--test-frac", "0.3", "--full-epochs", "2"]
    GRID_FIELDS = dict(seed_fraction=0.05, test_fraction=0.3, full_epochs=2)

    def test_values_are_not_the_defaults(self):
        for cls, given in ((BootstrapConfig, self.LOOP_FIELDS), (SyntheticSpec, self.CORPUS_FIELDS),
                           (GridConfig, self.GRID_FIELDS)):
            assert all(getattr(cls, k) != v for k, v in given.items())

    @pytest.mark.parametrize("seed_epochs, expected",
                             [(["--seed-epochs", "11"], 11), ([], BootstrapConfig.seed_epochs)])
    def test_bootstrap(self, synth_dir, split_dir, tmp_path, monkeypatch, seed_epochs, expected):
        # without --seed-epochs, the seed model trains for the library's default, not --epochs
        configs = []

        def capture(seed, corpus, tags, cfg, pins, **kw):
            configs.append(cfg)
            raise WeaknerError("stop before training")

        monkeypatch.setattr(cli, "iterative_train", capture)
        rc = main([
            "bootstrap", "--seed", str(split_dir / "seed.conll"),
            "--corpus", str(split_dir / "corpus.conll"), "--refset", str(synth_dir / "refset.txt"),
            *self.LOOP, *seed_epochs, "--out-dir", str(tmp_path),
        ])
        assert rc == 2
        assert configs == [BootstrapConfig(seed_epochs=expected, **self.LOOP_FIELDS)]

    @pytest.mark.parametrize("seed_epochs, expected", [(["--seed-epochs", "11"], 11), ([], 12)])
    def test_synthetic_grid(self, tmp_path, monkeypatch, seed_epochs, expected):
        # the grid's seed model trains 12 epochs unless --seed-epochs says otherwise
        specs, configs = [], []

        def capture_spec(spec):
            specs.append(spec)
            return generate_synthetic(spec)

        def capture_grid(gold, tags, refset, dictionary, cfg):
            configs.append(cfg)
            raise WeaknerError("stop before the grid")

        monkeypatch.setattr(cli, "generate_synthetic", capture_spec)
        monkeypatch.setattr(cli, "run_experiment_grid", capture_grid)
        rc = main(["synthetic", "--grid", *self.CORPUS, *self.GRID, *self.LOOP, *seed_epochs,
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        assert specs == [SyntheticSpec(**self.CORPUS_FIELDS)]
        assert configs == [GridConfig(seed_epochs=expected, **self.GRID_FIELDS, **self.LOOP_FIELDS)]


class TestBadNumberNamesItsOption:
    """A bad value of any numeric option keeps its exit code, and the
    message names the option typed, not only the config field it fills."""

    # option -> (bad value, exit code); the grid options need --grid
    SYNTHETIC = {
        "--sentences": ("0", 1), "--entity-names": ("0", 1), "--context-words": ("12", 1),
        "--distractors": ("0", 1), "--ambiguity": ("1.5", 1), "--hyphenation": ("-0.1", 1),
        "--short-rate": ("2", 1), "--multiword-rate": ("-1", 1), "--rng-seed": ("-1", 1),
        "--seed-frac": ("0", 2), "--test-frac": ("1", 2), "--iterations": ("-1", 2),
        "--full-epochs": ("0", 2), "--epochs": ("0", 2),
        "--seed-epochs": ("0", 2), "--final-epochs": ("0", 2), "--learning-rate": ("0", 2),
        "--decay": ("-1", 2), "--l2": ("nan", 2),
    }
    BOOTSTRAP = {
        "--iterations": "-1", "--rng-seed": "-1", "--epochs": "0",
        "--seed-epochs": "0", "--final-epochs": "0", "--learning-rate": "inf", "--decay": "nan",
        "--l2": "-1",
    }
    SPLIT = {"--seed-frac": "1.5", "--rng-seed": "-1"}

    @pytest.mark.parametrize("command, table", [
        (["synthetic", "--out-dir", "o"], SYNTHETIC),
        (["bootstrap", "--seed", "s", "--corpus", "c", "--refset", "r", "--out-dir", "o"],
         BOOTSTRAP),
        (["split", "--input", "i", "--out-dir", "o"], SPLIT),
    ])
    def test_every_numeric_option_is_listed(self, command, table):
        sub = cli.build_parser().parse_args(command).parser
        numeric = {a.option_strings[0] for a in sub._actions if a.type in (int, float)}
        assert numeric == set(table)

    @pytest.mark.parametrize("option", list(SYNTHETIC))
    def test_synthetic(self, tmp_path, capsys, monkeypatch, option):
        def no_grid(*args, **kwargs):
            raise AssertionError("the grid ran")

        monkeypatch.setattr(cli, "run_experiment_grid", no_grid)
        value, code = self.SYNTHETIC[option]
        rc = main(["synthetic", "--out-dir", str(tmp_path / "out"), "--sentences", "10",
                   "--grid", option, value])
        assert rc == code
        kind = "usage" if code == 1 else "data"
        assert capsys.readouterr().err.startswith(f"{kind} error: {option}: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option", list(BOOTSTRAP))
    def test_bootstrap(self, synth_dir, split_dir, tmp_path, capsys, monkeypatch, option):
        def no_loop(*args, **kwargs):
            raise AssertionError("the loop ran")

        monkeypatch.setattr(cli, "iterative_train", no_loop)
        rc = main([
            "bootstrap", "--seed", str(split_dir / "seed.conll"),
            "--corpus", str(split_dir / "corpus.conll"), "--refset", str(synth_dir / "refset.txt"),
            option, self.BOOTSTRAP[option], "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"data error: {option}: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option", list(SPLIT))
    def test_split(self, synth_dir, tmp_path, capsys, option):
        # --rng-seed -1 used to exit 3 on a bare ValueError from numpy
        rc = main(["split", "--input", str(synth_dir / "gold.conll"), option, self.SPLIT[option],
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"data error: {option}: ")
        assert not (tmp_path / "out").exists()


class TestJointCheckNamesItsOptions:
    """A check on several options together keeps its exit code, writes
    nothing, and its message leads with every option it reads."""

    LR_L2 = ["--learning-rate", "50", "--l2", "0.1"]

    @pytest.mark.parametrize("args, options, code", [
        (["--context-words", "20", "--ambiguity", "0.5"], "--ambiguity/--context-words", 1),
        (["--short-rate", "0.8", "--ambiguity", "0.5"],
         "--ambiguity/--short-rate/--multiword-rate/--entity-names", 1),
        (["--grid", *LR_L2], "--learning-rate/--l2", 2),
    ], ids=["ambiguity", "name-counts", "grid-learning-rate"])
    def test_synthetic(self, tmp_path, capsys, args, options, code):
        # each message used to start with the check alone, naming no option
        rc = main(["synthetic", "--out-dir", str(tmp_path / "out"), "--sentences", "50", *args])
        assert rc == code
        kind = "usage" if code == 1 else "data"
        assert capsys.readouterr().err.startswith(f"{kind} error: {options}: ")
        assert not (tmp_path / "out").exists()

    def test_bootstrap_learning_rate(self, synth_dir, split_dir, tmp_path, capsys):
        rc = main([
            "bootstrap", "--seed", str(split_dir / "seed.conll"),
            "--corpus", str(split_dir / "corpus.conll"), "--refset", str(synth_dir / "refset.txt"),
            *self.LR_L2, "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "data error: --learning-rate/--l2: learning_rate * l2 must be < 1")
        assert not (tmp_path / "out").exists()


class TestConfigFile:
    def test_config_supplies_values_and_flags_override(self, synth_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# split settings\n\ninput={}\n  \nseed_frac=0.2\nrng_seed=9\nout_dir={}\n".format(
                synth_dir / "gold.conll", tmp_path / "out_a"
            ),
            encoding="utf-8",
        )
        assert main(["split", "--config", str(cfg)]) == 0
        seed = read_conll(tmp_path / "out_a" / "seed.conll", PROT)
        assert len(seed) == 24  # 0.2 * 120
        # a flag beats the config value
        assert main(["split", "--config", str(cfg), "--seed-frac", "0.1",
                     "--out-dir", str(tmp_path / "out_b")]) == 0
        seed_b = read_conll(tmp_path / "out_b" / "seed.conll", PROT)
        assert len(seed_b) == 12

    def test_unknown_config_key_rejected(self, synth_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("inputt=whoops\n", encoding="utf-8")
        rc = main(["split", "--config", str(cfg), "--input", "x",
                   "--out-dir", str(tmp_path)])
        assert rc == 1

    def test_flags_from_config_and_command_line(self, synth_dir, split_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no_final=yes\niterations=0\nepochs=1\n", encoding="utf-8")
        argv = [
            "bootstrap", f"--config={cfg}", "--seed", str(split_dir / "seed.conll"),
            "--corpus", str(split_dir / "corpus.conll"), "--refset", str(synth_dir / "refset.txt"),
        ]
        assert main(argv + ["--out-dir", str(tmp_path / "a")]) == 0
        assert not (tmp_path / "a" / "final_crf.model").exists()
        # a flag's value on the command line beats the config file
        assert main(argv + ["--no-final=no", "--out-dir", str(tmp_path / "b")]) == 0
        assert (tmp_path / "b" / "final_crf.model").exists()

    def test_flag_set_to_no_in_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"grid=no\nsentences=30\nout_dir={tmp_path / 'out'}\n", encoding="utf-8")
        assert main(["synthetic", "--config", str(cfg)]) == 0
        assert len(read_conll(tmp_path / "out" / "gold.conll", PROT)) == 30
        assert not (tmp_path / "out" / "report.tsv").exists()

    @pytest.mark.parametrize("command, line", [
        ("split", "seed_frac"),            # no "="
        ("split", "seed_frac=x"),
        ("split", "inpu=whoops"),          # abbreviated keys no longer set --input
        ("split", "config=other.cfg"),     # a config file cannot name another
        ("synthetic", "grid=maybe"),
    ])
    def test_bad_config_line_is_usage_error(self, synth_dir, tmp_path, command, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        argv = [command, "--config", str(cfg), "--out-dir", str(tmp_path / "out")]
        if command == "split":
            argv += ["--input", str(synth_dir / "gold.conll")]
        assert main(argv) == 1
        assert not (tmp_path / "out").exists()

    def test_missing_config_file_is_usage_error(self, synth_dir, tmp_path):
        rc = main(["split", "--config", str(tmp_path / "nope.cfg"),
                   "--input", str(synth_dir / "gold.conll"), "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert not (tmp_path / "out").exists()

    def test_non_utf8_config_file_is_data_error(self, synth_dir, tmp_path):
        # used to exit 3 on a bare UnicodeDecodeError
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(f"input={synth_dir / 'gold.conll'}\nentity_type=Gr\u00fcn\n".encode("latin-1"))
        assert main(["split", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2

    def test_abbreviated_flag_is_usage_error(self, synth_dir, tmp_path):
        rc = main(["split", "--input", str(synth_dir / "gold.conll"), "--seed-f", "0.1",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1

    def test_missing_required_is_usage_error(self, tmp_path):
        assert main(["split", "--out-dir", str(tmp_path)]) == 1

    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert main(["split", "--does-not-exist", "1"]) == 1


def test_unexpected_error_is_internal_error(synth_dir, tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "split_seed", fail)
    rc = main(["split", "--input", str(synth_dir / "gold.conll"), "--out-dir", str(tmp_path)])
    assert rc == 3
    assert "internal error: RuntimeError: boom" in capsys.readouterr().err
