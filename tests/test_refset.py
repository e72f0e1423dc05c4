"""Gazetteer loading, filtering and matching, checked against a naive
window-scan oracle that re-implements the matching contract from scratch."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from weakner.corpus import Dataset, TagSet, bio_encode, gold_spans, sentence_from_texts
from weakner.errors import EmptyDataset, EmptyReferenceSet, WeaknerError
from weakner.refset import (
    MatchPolicy,
    RefMatch,
    ReferenceSet,
    audit_matcher,
    exact_policy,
    filter_names,
    filtered_policy,
    find_matches,
    load_dictionary,
    load_reference_set,
    token_components,
)

PROT = TagSet(("PROT",))
TWO = TagSet(("PROT", "CELL"))


# ---------------------------------------------------------------------------
# Naive oracle: scan every window x every name, then greedy resolution
# ---------------------------------------------------------------------------

def naive_candidates(texts, names, policy):
    """Every (first, last, name) that a window of texts, or under partial
    matching one token's component, matches: O(windows * names)."""

    def fold(s, sensitive):
        return s if sensitive else s.casefold()

    cands = set()
    for i in range(len(texts)):
        for j in range(i, len(texts)):
            window = " ".join(texts[i:j + 1])
            for name in names:
                if fold(window, policy.case_sensitive) == fold(name, policy.case_sensitive):
                    cands.add((i, j, name))
        if policy.allow_partial:
            comps = [c for c in _resplit(texts[i]) if c]
            for name in names:
                if any(c.casefold() == name.casefold() for c in comps):
                    cands.add((i, i, name))
    return cands


def naive_matches(corpus, names, policy):
    """Scan every window x every name, then greedy resolution; same
    contract, separate code."""
    out = []
    for s, sent in enumerate(corpus.sentences):
        cands = naive_candidates(sent.texts(), names, policy)
        # greedy leftmost-longest, longer name, lexicographically smaller name
        chosen = []
        free = 0
        for i, j, name in sorted(cands, key=lambda c: (c[0], -(c[1] - c[0]), -len(c[2]), c[2])):
            if i >= free:
                chosen.append((s, i, j, name))
                free = j + 1
        out.extend(chosen)
    return out


def _resplit(token):
    parts = [token]
    for sep in "-/":
        parts = [p for chunk in parts for p in chunk.split(sep)]
    return parts


def corpus_of(*sentences):
    sents = [sentence_from_texts(toks) for toks in sentences]
    return Dataset(sents, [None] * len(sents))


class TestLoadReferenceSet:
    def test_dedup(self, tmp_path):
        path = tmp_path / "names.txt"
        path.write_text("TIGAR\np53\nTIGAR\n", encoding="utf-8")
        rs = load_reference_set(path, "PROT")
        assert rs.names == frozenset({"TIGAR", "p53"})

    def test_empty_is_error(self, tmp_path):
        path = tmp_path / "names.txt"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(EmptyReferenceSet):
            load_reference_set(path, "PROT")

    def test_empty_name_rejected(self):
        with pytest.raises(WeaknerError, match="empty name"):
            ReferenceSet(frozenset({"TIGAR", ""}), "PROT")

    def test_bom_stripped(self, tmp_path):
        path = tmp_path / "names.txt"
        path.write_bytes(b"\xef\xbb\xbfTIGAR\np53\n")
        rs = load_reference_set(path, "PROT")
        assert "TIGAR" in rs.names and "﻿TIGAR" not in rs.names


class TestFilterNames:
    def test_dictionary_word_removed(self):
        rs = ReferenceSet(frozenset({"ANOVA", "TIGAR"}), "PROT")
        policy = MatchPolicy(dictionary_filter=frozenset({"anova"}))
        assert filter_names(rs, policy).names == frozenset({"TIGAR"})

    def test_dictionary_words_lowercased(self):
        # names were compared lowercased, the dictionary as given, so "Anova" kept ANOVA
        rs = ReferenceSet(frozenset({"ANOVA", "TIGAR"}), "PROT")
        policy = MatchPolicy(dictionary_filter={"Anova"})
        assert filter_names(rs, policy).names == frozenset({"TIGAR"})

    def test_dictionary_words_single_spaced(self):
        # a dictionary word with a double space used to filter nothing
        rs = ReferenceSet(frozenset({"Cell Line", "TIGAR"}), "PROT")
        policy = filtered_policy({"cell  line"}, 4)
        assert filter_names(rs, policy).names == frozenset({"TIGAR"})

    def test_length_rule(self):
        rs = ReferenceSet(frozenset({"AB", "ABCD"}), "PROT")
        policy = MatchPolicy(min_name_length=4)
        assert filter_names(rs, policy).names == frozenset({"ABCD"})

    def test_no_filters_is_identity(self):
        rs = ReferenceSet(frozenset({"a", "bb"}), "PROT")
        assert filter_names(rs, MatchPolicy()).names == rs.names

    def test_idempotent(self):
        rs = ReferenceSet(frozenset({"ANOVA", "AB", "TIGAR", "p53"}), "PROT")
        policy = MatchPolicy(min_name_length=4, dictionary_filter=frozenset({"anova"}))
        once = filter_names(rs, policy)
        twice = filter_names(once, policy)
        assert once.names == twice.names

    def test_twenty_name_fixture(self):
        """Dictionary + length filtering on a hand-built 20-name set."""
        dictionary_words = {"anova", "set", "mask", "flag", "cycle"}
        keep = {"TIGAR", "MDM2x", "TP53B", "CDK12", "BRCA1", "EGFR2", "AKT11",
                "MTOR1", "RAF99", "MEKK4"}
        drop_dict = {"ANOVA", "Set", "MASK", "Flag", "Cycle"}
        drop_short = {"AB", "p5", "XY", "Z", "QRS"}
        rs = ReferenceSet(frozenset(keep | drop_dict | drop_short), "PROT")
        policy = MatchPolicy(min_name_length=4, dictionary_filter=frozenset(dictionary_words))
        assert filter_names(rs, policy).names == frozenset(keep)


class TestFindMatches:
    def test_exact_single_token(self):
        corpus = corpus_of(["TIGAR", "binds"])
        rs = ReferenceSet(frozenset({"TIGAR"}), "PROT")
        matches = find_matches(corpus, rs, exact_policy())
        assert [(m.sentence, m.first, m.last, m.name) for m in matches] == [(0, 0, 0, "TIGAR")]

    def test_partial_hyphen_component(self):
        corpus = corpus_of(["Flag-tagged-TIGAR", "assay"])
        rs = ReferenceSet(frozenset({"TIGAR"}), "PROT")
        policy = MatchPolicy(case_sensitive=False, allow_partial=True)
        matches = find_matches(corpus, rs, policy)
        assert [(m.first, m.last, m.name) for m in matches] == [(0, 0, "TIGAR")]

    def test_case_sensitive_misses_lowercase(self):
        corpus = corpus_of(["tigar"])
        rs = ReferenceSet(frozenset({"TIGAR"}), "PROT")
        assert find_matches(corpus, rs, exact_policy()) == []

    def test_multi_token_name(self):
        corpus = corpus_of(["the", "GAMMA", "ACTIN", "level"])
        rs = ReferenceSet(frozenset({"GAMMA ACTIN"}), "PROT")
        matches = find_matches(corpus, rs, exact_policy())
        assert [(m.first, m.last) for m in matches] == [(1, 2)]

    def test_names_with_irregular_whitespace(self):
        # a name that was not single-spaced used to match nothing
        corpus = corpus_of(["the", "MDM2", "binds", "p53", "."])
        rs = ReferenceSet(frozenset({"binds  p53", " MDM2"}), "PROT")
        assert rs.names == frozenset({"binds p53", "MDM2"})
        matches = find_matches(corpus, rs, exact_policy())
        assert [(m.first, m.last, m.name) for m in matches] == [(1, 1, "MDM2"), (2, 3, "binds p53")]

    def test_leftmost_longest(self):
        corpus = corpus_of(["A", "B", "C"])
        rs = ReferenceSet(frozenset({"A B", "B C", "B"}), "PROT")
        matches = find_matches(corpus, rs, exact_policy())
        assert [(m.first, m.last, m.name) for m in matches] == [(0, 1, "A B")]

    def test_non_overlapping_and_deterministic(self):
        corpus = corpus_of(["A", "A", "A", "A"])
        rs = ReferenceSet(frozenset({"A A", "A"}), "PROT")
        a = find_matches(corpus, rs, exact_policy())
        b = find_matches(corpus, rs, exact_policy())
        assert a == b
        tokens_covered = []
        for m in a:
            tokens_covered.extend(range(m.first, m.last + 1))
        assert len(tokens_covered) == len(set(tokens_covered))

    def _random_case(self, rng):
        chars = "aAbB"
        def word():
            return "".join(rng.choice(list(chars)) for _ in range(rng.integers(1, 4)))
        names = set()
        for _ in range(rng.integers(1, 8)):
            if rng.random() < 0.2:
                names.add(word() + " " + word())
            else:
                names.add(word())
        sentences = []
        for _ in range(rng.integers(1, 4)):
            toks = []
            for _ in range(rng.integers(1, 8)):
                r = rng.random()
                if r < 0.5:
                    toks.append(word())
                elif r < 0.75 and names:
                    toks.append(sorted(names)[rng.integers(len(names))].replace(" ", "-"))
                else:
                    toks.append(word() + "-" + word())
            sentences.append(toks)
        return corpus_of(*sentences), ReferenceSet(frozenset(names), "PROT")

    # ß folds to ss and ﬁ to fi, so folding can lengthen a text
    TRICKY_WORDS = ["a", "A", "ab", "AB", "ß", "SS", "ss", "ﬁx", "FIX", "fix", "straße", "STRASSE"]

    def _tricky_case(self, rng):
        """Names sharing a first word, a single-token name that heads longer
        names, names longer than most sentences, and casefold-expanding text;
        sentences mix name words, bare heads and case-changed variants."""
        def word():
            return self.TRICKY_WORDS[rng.integers(len(self.TRICKY_WORDS))]

        head = word()
        names = {f"{head} {word()}" for _ in range(rng.integers(1, 4))}
        names.add(" ".join([head] + [word() for _ in range(rng.integers(3, 6))]))
        if rng.random() < 0.5:
            names.add(head)
        names.update(word() for _ in range(rng.integers(0, 3)))
        if rng.random() < 0.5:
            names.add(f"{word()} {word()}")
        pieces = [name.split(" ") for name in sorted(names)]
        sentences = []
        for _ in range(rng.integers(1, 4)):
            toks = []
            for _ in range(rng.integers(1, 5)):
                r = rng.random()
                if r < 0.4:    # a name, or the first words of one
                    piece = pieces[rng.integers(len(pieces))]
                    toks += piece[:rng.integers(1, len(piece) + 1)]
                elif r < 0.55:
                    toks.append(head)
                elif r < 0.7:
                    toks.append(word().upper() if rng.random() < 0.5 else word().lower())
                elif r < 0.8:
                    toks.append(word() + "-" + word())
                else:
                    toks.append(word())
            sentences.append(toks)
        return corpus_of(*sentences), ReferenceSet(frozenset(names), "PROT")

    POLICIES = [
        exact_policy(),
        MatchPolicy(case_sensitive=False),
        MatchPolicy(case_sensitive=False, allow_partial=True),
        MatchPolicy(case_sensitive=True, allow_partial=True),
    ]

    def _check_against_oracle(self, make_case):
        rng = np.random.default_rng(12345)
        for trial in range(200):
            corpus, rs = make_case(rng)
            policy = self.POLICIES[trial % len(self.POLICIES)]
            got = [(m.sentence, m.first, m.last, m.name) for m in find_matches(corpus, rs, policy)]
            assert got == naive_matches(corpus, rs.names, policy), (trial, got)

    def test_equivalence_with_naive_oracle(self):
        self._check_against_oracle(self._random_case)

    def test_equivalence_with_naive_oracle_on_tricky_cases(self):
        self._check_against_oracle(self._tricky_case)

    def test_tricky_cases_exercise_long_windows_and_folding(self):
        # the tricky generator reaches what it is meant to reach
        rng = np.random.default_rng(12345)
        widths, folded = set(), 0
        for trial in range(200):
            corpus, rs = self._tricky_case(rng)
            for m in find_matches(corpus, rs, MatchPolicy(case_sensitive=False)):
                widths.add(m.last - m.first + 1)
                window = " ".join(corpus.sentences[m.sentence].texts()[m.first:m.last + 1])
                folded += window != m.name and len(window) != len(m.name)
        assert {1, 2} <= widths and max(widths) >= 4 and folded > 0

    def test_window_grows_only_along_name_prefixes(self):
        corpus = corpus_of(["GAMMA", "GAMMA", "ACTIN", "BETA"], ["GAMMA"], ["ACTIN", "GAMMA"])
        rs = ReferenceSet(frozenset({"GAMMA ACTIN BETA", "GAMMA ACTIN"}), "PROT")
        got = [(m.sentence, m.first, m.last, m.name) for m in find_matches(corpus, rs, exact_policy())]
        assert got == [(0, 1, 3, "GAMMA ACTIN BETA")]

    def test_casefold_expanding_name(self):
        corpus = corpus_of(["die", "STRASSE", "ﬁx", "-", "Straße"])
        rs = ReferenceSet(frozenset({"straße", "FIX"}), "PROT")
        got = [(m.first, m.last, m.name)
               for m in find_matches(corpus, rs, MatchPolicy(case_sensitive=False))]
        assert got == [(1, 1, "straße"), (2, 2, "FIX"), (4, 4, "straße")]

    def test_filtering_never_adds_matched_spans(self):
        # single-token names: the matched token set can only shrink
        rng = np.random.default_rng(7)
        for _ in range(50):
            corpus, rs = self._random_case(rng)
            single = ReferenceSet(
                frozenset(n for n in rs.names if " " not in n) or frozenset({"a"}), "PROT"
            )
            policy = MatchPolicy(case_sensitive=False, allow_partial=True)
            before = {(m.sentence, m.first, m.last) for m in find_matches(corpus, single, policy)}
            fpolicy = MatchPolicy(
                case_sensitive=False, allow_partial=True, min_name_length=2
            )
            filtered = filter_names(single, fpolicy)
            after = {
                (m.sentence, m.first, m.last)
                for m in find_matches(corpus, filtered, fpolicy)
            }
            assert after <= before

    def test_c2_finds_every_c1_span(self):
        # over the same single-token name set, enabling case folding and
        # partial matching can only add matched spans
        rng = np.random.default_rng(11)
        for _ in range(50):
            corpus, rs = self._random_case(rng)
            single = ReferenceSet(
                frozenset(n for n in rs.names if " " not in n) or frozenset({"a"}), "PROT"
            )
            c1 = {(m.sentence, m.first, m.last) for m in find_matches(corpus, single, exact_policy())}
            c2 = {
                (m.sentence, m.first, m.last)
                for m in find_matches(
                    corpus, single, MatchPolicy(case_sensitive=False, allow_partial=True)
                )
            }
            assert c1 <= c2


class TestMatcherCases:
    """find_matches against naive_matches, as whole RefMatch lists in order,
    under both case rules with partial matching off and on."""

    POLICIES = [MatchPolicy(case_sensitive=c, allow_partial=p)
                for c in (True, False) for p in (False, True)]
    # ß folds to ss, so folding can lengthen a text
    NAME_WORDS = ["Ras", "RAS", "ras", "p53", "P53", "mTOR", "ß", "SS"]
    FILLER = ["the", "of", "cells", "and", "in", "x"]     # part of no name

    def _case(self, rng):
        """Mostly filler sentences; the rest end on a name or one token
        after it, run two names together, or hold a token of several
        hyphen/slash components (some empty)."""
        def pick(seq):
            return seq[int(rng.integers(len(seq)))]

        names = {" ".join(pick(self.NAME_WORDS) for _ in range(rng.integers(1, 4)))
                 for _ in range(rng.integers(2, 6))}
        pieces = [name.split(" ") for name in sorted(names)]
        sentences = []
        for _ in range(rng.integers(10, 25)):
            toks = [pick(self.FILLER) for _ in range(rng.integers(1, 6))]
            r = rng.random()
            if r < 0.1:
                toks += pick(pieces) + [pick(self.FILLER)] * int(rng.integers(2))
            elif r < 0.2:
                toks += pick(pieces) + pick(pieces)
            elif r < 0.3:
                words = self.NAME_WORDS + self.FILLER + [""]
                parts = [pick(words) for _ in range(rng.integers(2, 5))]
                token = parts[0] + "".join(pick("-/") + part for part in parts[1:])
                toks.insert(int(rng.integers(len(toks) + 1)), token)
            sentences.append(toks)
        return corpus_of(*sentences), ReferenceSet(frozenset(names), "PROT")

    def _cases(self):
        rng = np.random.default_rng(2024)
        return [self._case(rng) for _ in range(60)]

    @pytest.mark.parametrize("policy", POLICIES,
                             ids=lambda p: f"cs{p.case_sensitive:d}-partial{p.allow_partial:d}")
    def test_equals_oracle(self, policy):
        for trial, (corpus, rs) in enumerate(self._cases()):
            want = [RefMatch(s, first, last, name, "PROT")
                    for s, first, last, name in naive_matches(corpus, rs.names, policy)]
            assert find_matches(corpus, rs, policy) == want, trial

    def test_cases_reach_what_they_are_meant_to(self):
        filler = total = 0
        many_components = ends_last = ends_short = overlaps = 0
        for corpus, rs in self._cases():
            for sent in corpus.sentences:
                total += 1
                filler += set(sent.tokens) <= set(self.FILLER)
                many_components += any(len(token_components(t)) >= 3 for t in sent.tokens)
            for policy in self.POLICIES:
                for m in find_matches(corpus, rs, policy):
                    n = len(corpus.sentences[m.sentence])
                    ends_last += m.first < m.last == n - 1
                    ends_short += m.first < m.last == n - 2
                for sent in corpus.sentences:
                    cands = sorted(naive_candidates(sent.texts(), rs.names, policy))
                    overlaps += any(b[0] <= a[1] for a, b in zip(cands, cands[1:]))
        assert filler > total / 2
        assert min(many_components, ends_last, ends_short, overlaps) > 0


# The matcher walks a set of token texts, whose order follows the string
# hash. This pipeline prints a digest of everything it produces.
HASH_SEED_PIPELINE = """
import hashlib, sys
from weakner import (Dataset, SyntheticSpec, TagSet, TrainConfig, filtered_policy,
                     find_matches, generate_synthetic, predict_dataset_hard, relabel, train)
gold, refset, dictionary = generate_synthetic(SyntheticSpec(n_sentences=200, rng_seed=5))
corpus = Dataset(gold.sentences, [None] * len(gold))
matches = find_matches(corpus, refset, filtered_policy(dictionary, 4))
model = train(gold, TagSet(("PROT",)), TrainConfig(epochs=1))
labeled = relabel(corpus, model, matches)
hard = predict_dataset_hard(model, corpus)
model.save(sys.argv[1])
digest = hashlib.sha256(repr(matches).encode() + repr(hard.labels).encode())
for soft in labeled.labels:
    digest.update(soft.dist.tobytes() + soft.provenance.tobytes())
with open(sys.argv[1], "rb") as fh:
    digest.update(fh.read())
print(len(matches), digest.hexdigest())
"""


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    digests = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", HASH_SEED_PIPELINE, str(tmp_path / f"seed{seed}.model")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        digests.append(done.stdout.split())
    assert int(digests[0][0]) > 0
    assert digests[0] == digests[1]


class TestTokenComponents:
    def test_split(self):
        assert token_components("Flag-tagged-TIGAR") == ["Flag", "tagged", "TIGAR"]
        assert token_components("and/or") == ["and", "or"]
        assert token_components("plain") == ["plain"]


class TestAuditMatcher:
    def _gold(self, spans_per_sentence, n_tokens=6):
        sents, labels = [], []
        for s, spans in enumerate(spans_per_sentence):
            sents.append(sentence_from_texts([f"t{s}{i}" for i in range(n_tokens)]))
            labels.append(bio_encode(spans, n_tokens, PROT, sentence=s))
        return Dataset(sents, labels)

    def test_perfect(self):
        from weakner.corpus import EntitySpan
        from weakner.refset import RefMatch

        gold = self._gold([[EntitySpan(0, 1, 2, "PROT")]])
        matches = [RefMatch(0, 1, 2, "x", "PROT")]
        assert audit_matcher(matches, gold, PROT) == (1.0, 1.0)

    def test_half_recall(self):
        from weakner.corpus import EntitySpan
        from weakner.refset import RefMatch

        gold = self._gold([[EntitySpan(0, 0, 0, "PROT"), EntitySpan(0, 2, 3, "PROT")]])
        matches = [RefMatch(0, 0, 0, "x", "PROT")]
        assert audit_matcher(matches, gold, PROT) == (1.0, 0.5)

    def test_hand_computed_fixture(self):
        """10 sentences, planted ambiguity: 8 gold spans; 6 matched exactly,
        3 spurious matches on O-tokens, 1 match with a wrong boundary, and
        1 gold span missed entirely. So P = 6/10 and R = 6/8."""
        from weakner.corpus import EntitySpan
        from weakner.refset import RefMatch

        gold_spans = [
            [EntitySpan(0, 0, 0, "PROT")],
            [EntitySpan(1, 1, 1, "PROT")],
            [EntitySpan(2, 2, 3, "PROT")],
            [EntitySpan(3, 4, 4, "PROT")],
            [EntitySpan(4, 0, 1, "PROT")],
            [EntitySpan(5, 5, 5, "PROT")],
            [],
            [],
            [EntitySpan(8, 2, 2, "PROT")],
            [EntitySpan(9, 3, 3, "PROT")],
        ]
        gold = self._gold(gold_spans)
        matches = [
            RefMatch(0, 0, 0, "n", "PROT"),   # TP
            RefMatch(1, 1, 1, "n", "PROT"),   # TP
            RefMatch(2, 2, 3, "n", "PROT"),   # TP
            RefMatch(3, 4, 4, "n", "PROT"),   # TP
            RefMatch(4, 0, 1, "n", "PROT"),   # TP
            RefMatch(5, 5, 5, "n", "PROT"),   # TP
            RefMatch(6, 0, 0, "n", "PROT"),   # FP (O token)
            RefMatch(7, 2, 2, "n", "PROT"),   # FP
            RefMatch(7, 4, 4, "n", "PROT"),   # FP
            RefMatch(8, 2, 3, "n", "PROT"),   # wrong boundary: FP under exact
        ]
        p, r = audit_matcher(matches, gold, PROT)
        assert p == pytest.approx(6 / 10)
        assert r == pytest.approx(6 / 8)

    def test_overlap_criterion(self):
        from weakner.corpus import EntitySpan
        from weakner.refset import RefMatch

        gold = self._gold([[EntitySpan(0, 1, 3, "PROT")]])
        matches = [RefMatch(0, 2, 2, "n", "PROT")]
        assert audit_matcher(matches, gold, PROT, criterion="exact") == (0.0, 0.0)
        assert audit_matcher(matches, gold, PROT, criterion="overlap") == (1.0, 1.0)

    def test_overlap_equals_nested_scan(self):
        """300 random cases of several sentences and two types, matches
        overlapping gold spans and one another, against the nested scan that
        defines the overlap criterion."""

        def nested_scan(matches, gold_set):
            def overlaps(m, sp):
                same = (m.sentence, m.entity_type) == (sp.sentence, sp.entity_type)
                return same and m.first <= sp.last and sp.first <= m.last

            tp = sum(any(overlaps(m, sp) for sp in gold_set) for m in matches)
            recall_hits = sum(any(overlaps(m, sp) for m in matches) for sp in gold_set)
            return tp / len(matches) if matches else 0.0, recall_hits / len(gold_set)

        rng = np.random.default_rng(237)
        tested = 0
        while tested < 300:
            n_tokens = int(rng.integers(1, 9))
            sents, labels = [], []
            for _ in range(int(rng.integers(1, 5))):
                sents.append(sentence_from_texts([f"t{i}" for i in range(n_tokens)]))
                labels.append([int(t) for t in rng.integers(0, len(TWO), size=n_tokens)])
            gold = Dataset(sents, labels)
            try:
                gold_set = gold_spans(gold, TWO)
            except EmptyDataset:
                continue
            matches = []
            for _ in range(int(rng.integers(0, 8))):
                first = int(rng.integers(n_tokens))
                last = int(rng.integers(first, n_tokens))
                matches.append(RefMatch(int(rng.integers(len(sents))), first, last, "n",
                                        TWO.entity_types[int(rng.integers(2))]))
            got = audit_matcher(matches, gold, TWO, criterion="overlap")
            assert got == nested_scan(matches, gold_set), (tested, matches)
            tested += 1

    def test_unknown_criterion(self):
        with pytest.raises(WeaknerError, match="criterion"):
            audit_matcher([], self._gold([[]]), PROT, criterion="fuzzy")

    @pytest.mark.parametrize("criterion", ["exact", "overlap"])
    def test_gold_without_entities_rejected(self, criterion):
        # used to return (0.0, 0.0): a matcher audited against nothing
        from weakner.refset import RefMatch

        with pytest.raises(EmptyDataset, match="no gold entities"):
            audit_matcher([RefMatch(0, 1, 2, "x", "PROT")], self._gold([[], []]), PROT,
                          criterion=criterion)


class TestLoadDictionary:
    def test_lowercased(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("Anova\nSET\n\nmask\n", encoding="utf-8")
        assert load_dictionary(path) == frozenset({"anova", "set", "mask"})
