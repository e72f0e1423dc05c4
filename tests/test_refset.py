"""Gazetteer loading, filtering and matching, checked against a naive
window-scan oracle that re-implements the matching contract from scratch."""

import numpy as np
import pytest

from weakner.corpus import Dataset, DatasetKind, TagSet, bio_encode, sentence_from_texts
from weakner.errors import EmptyDataset, EmptyReferenceSet, WeaknerError
from weakner.refset import (
    MatchPolicy,
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


# ---------------------------------------------------------------------------
# Naive oracle: scan every window x every name, then greedy resolution
# ---------------------------------------------------------------------------

def naive_matches(corpus, names, policy):
    """O(sentences * windows * names) scan; same contract, separate code."""

    def fold(s, sensitive):
        return s if sensitive else s.casefold()

    out = []
    for s, sent in enumerate(corpus.sentences):
        texts = [t.text for t in sent.tokens]
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
    return Dataset(sents, [None] * len(sents), DatasetKind.CORPUS)


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
        return Dataset(sents, labels, DatasetKind.SEED)

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
