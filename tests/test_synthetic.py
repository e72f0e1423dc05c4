"""The synthetic corpus generator: determinism, planted phenomena, and the
matcher dynamics they are designed to produce."""

import pytest

from weakner.corpus import TagSet, bio_decode
from weakner.errors import SpecInvalid
from weakner.refset import (
    audit_matcher,
    exact_policy,
    filter_names,
    filtered_policy,
    find_matches,
)
from weakner.synthetic import SyntheticSpec, generate_synthetic

PROT = TagSet(("PROT",))


def small_spec(**kw):
    base = dict(
        n_sentences=250,
        n_entity_names=80,
        n_context_words=150,
        n_distractors=30,
        rng_seed=5,
    )
    base.update(kw)
    return SyntheticSpec(**base)


def audits(spec):
    gold, refset, dictionary = generate_synthetic(spec)
    c1 = exact_policy()
    p1, r1 = audit_matcher(find_matches(gold, refset, c1), gold, PROT)
    c2 = filtered_policy(dictionary, 4)
    p2, r2 = audit_matcher(find_matches(gold, filter_names(refset, c2), c2), gold, PROT)
    return (p1, r1), (p2, r2)


class TestGenerator:
    def test_deterministic(self):
        a_gold, a_ref, a_dict = generate_synthetic(small_spec())
        b_gold, b_ref, b_dict = generate_synthetic(small_spec())
        assert [s.texts() for s in a_gold.sentences] == [s.texts() for s in b_gold.sentences]
        assert a_gold.labels == b_gold.labels
        assert a_ref.names == b_ref.names
        assert a_dict == b_dict

    def test_different_seed_different_corpus(self):
        a, _, _ = generate_synthetic(small_spec(rng_seed=1))
        b, _, _ = generate_synthetic(small_spec(rng_seed=2))
        assert [s.texts() for s in a.sentences] != [s.texts() for s in b.sentences]

    def test_sizes(self):
        spec = small_spec()
        gold, refset, dictionary = generate_synthetic(spec)
        assert len(gold) == spec.n_sentences
        assert len(refset) == spec.n_entity_names
        assert len(dictionary) == spec.n_context_words
        assert all(labels is not None for labels in gold.labels)

    def test_every_unhyphenated_mention_is_a_reference_name(self):
        gold, refset, _ = generate_synthetic(small_spec())
        names = refset.names
        for s, labels in enumerate(gold.labels):
            for span in bio_decode(labels, PROT, sentence=s):
                mention = " ".join(gold.sentences[s].tokens[span.first:span.last + 1])
                if "-" in mention and mention not in names:
                    # embedded compound: one component must be a name
                    assert any(c in names for c in mention.split("-"))
                else:
                    assert mention in names

    def test_ambiguous_names_in_dictionary(self):
        spec = small_spec(ambiguity_rate=0.3)
        _, refset, dictionary = generate_synthetic(spec)
        ambiguous = [n for n in refset.names if n.lower() in dictionary]
        assert len(ambiguous) == round(spec.ambiguity_rate * spec.n_entity_names)

    def test_invalid_rates_rejected(self):
        with pytest.raises(SpecInvalid):
            SyntheticSpec(ambiguity_rate=1.5)
        with pytest.raises(SpecInvalid):
            SyntheticSpec(hyphenation_rate=-0.1)
        with pytest.raises(SpecInvalid):
            SyntheticSpec(n_sentences=0)

    def test_names_outnumbering_the_vocabulary_rejected(self):
        # short_name_rate=0.8 used to be accepted and to generate 345 names for
        # n_entity_names=300, the plain count clamped at 0
        with pytest.raises(SpecInvalid, match="outnumber n_entity_names"):
            SyntheticSpec(short_name_rate=0.8)
        assert SyntheticSpec(short_name_rate=0.65).name_counts() == (90, 195, 15, 0)

    def test_ambiguity_checked_on_the_rounded_count(self):
        # 0.3 * 7 = 2.1 ambiguous names round to 2, which 2 non-trigger
        # context words hold; the unrounded 2.1 used to be rejected
        spec = small_spec(n_entity_names=7, n_context_words=14, short_name_rate=0.0,
                          multiword_name_rate=0.0, ambiguity_rate=0.3)
        assert spec.name_counts() == (2, 0, 0, 5)
        _, refset, dictionary = generate_synthetic(spec)
        assert len(refset) == 7
        assert sum(n.lower() in dictionary for n in refset.names) == 2
        with pytest.raises(SpecInvalid, match="not enough context words"):
            small_spec(n_entity_names=7, n_context_words=13, ambiguity_rate=0.3)

    @pytest.mark.parametrize("field,value", [
        ("rng_seed", -1), ("rng_seed", 1.0), ("n_distractors", -5), ("n_distractors", 0),
        ("n_sentences", 2.5), ("n_sentences", True), ("n_entity_names", 80.0),
        ("n_context_words", 150.0), ("n_context_words", 12),
    ])
    def test_invalid_counts_rejected(self, field, value):
        with pytest.raises(SpecInvalid):
            small_spec(**{field: value})


class TestMatcherDynamics:
    def test_clean_corpus_gives_perfect_exact_precision(self):
        (p1, _), _ = audits(small_spec(ambiguity_rate=0.0, hyphenation_rate=0.0))
        assert p1 == 1.0

    def test_ambiguity_hurts_exact_precision_and_filtering_restores_it(self):
        (p1, _), (p2, _) = audits(small_spec(ambiguity_rate=0.3))
        assert p1 < 1.0
        assert p2 > p1

    def test_hyphenation_gives_partial_matching_the_recall_edge(self):
        (_, r1), (_, r2) = audits(small_spec(ambiguity_rate=0.0, hyphenation_rate=0.2))
        assert r2 > r1

    def test_filtering_costs_recall_on_ambiguous_names(self):
        (_, r1), (_, r2) = audits(small_spec(ambiguity_rate=0.3, hyphenation_rate=0.0))
        # dropping dictionary homographs loses their mentions
        assert r2 < r1
