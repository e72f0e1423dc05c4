"""Tokenizer, BIO codec, labelings, splitting and file round-trips."""

import dataclasses
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakner.corpus import (
    Dataset,
    EntitySpan,
    Provenance,
    Sentence,
    SoftLabeling,
    TagSet,
    bio_decode,
    bio_encode,
    bio_repair,
    gold_spans,
    harden,
    read_conll,
    sentence_from_texts,
    split_seed,
    tokenize,
    write_conll,
)
from weakner.errors import (
    EmptyDataset,
    EmptySentence,
    FractionOutOfRange,
    LabelLengthMismatch,
    MalformedLine,
    ModelTagSetMismatch,
    OverlappingSpans,
    UnknownTag,
    WeaknerError,
)

PROT = TagSet(("PROT",))
TWO = TagSet(("PROT", "CELL"))


def one_hot(labels, tags=PROT):
    """The one-hot rows of a hard labeling, as reference pins."""
    return SoftLabeling(np.eye(len(tags))[labels], np.full(len(labels), Provenance.REFERENCE))


def brute_force_decode(labels, tags):
    """Reference decoder: enumerate maximal valid runs over the repaired
    sequence by direct scanning of (type, begin) pairs."""
    repaired = bio_repair(labels, tags)
    spans = []
    i = 0
    while i < len(repaired):
        t = repaired[i]
        if t != 0 and tags.is_begin(t):
            ty = tags.type_of(t)
            j = i + 1
            while j < len(repaired) and repaired[j] == t + 1:
                j += 1
            spans.append(EntitySpan(0, i, j - 1, ty))
            i = j
        else:
            i += 1
    return spans


class TestTokenize:
    def test_whitespace_and_punct_split(self):
        assert tokenize("p53 binds MDM2.").texts() == ["p53", "binds", "MDM2", "."]

    def test_hyphen_compound_stays_one_token(self):
        assert tokenize("Flag-tagged-TIGAR").texts() == ["Flag-tagged-TIGAR"]

    def test_empty_input(self):
        with pytest.raises(EmptySentence):
            tokenize("")
        with pytest.raises(EmptySentence):
            tokenize("   \t ")

    def test_leading_and_trailing_punct(self):
        assert tokenize("(p53),").texts() == ["(", "p53", ")", ","]

    def test_slash_kept_inside(self):
        assert tokenize("and/or").texts() == ["and/or"]

    def test_tokens_cover_the_non_space_text(self):
        sent = tokenize("The  (Flag-tagged-TIGAR)  assay, twice.")
        assert sent.tokens == ("The", "(", "Flag-tagged-TIGAR", ")", "assay", ",", "twice", ".")

    @given(st.text(max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_deterministic_and_covering(self, text):
        if not text.strip():
            with pytest.raises(EmptySentence):
                tokenize(text)
            return
        a = tokenize(text)
        b = tokenize(text)
        assert a.tokens == b.tokens
        for tok in a.tokens:
            assert tok and tok.split() == [tok]
        # every non-whitespace char is covered by exactly one token, in order
        assert "".join(a.tokens) == "".join(text.split())


class TestSentence:
    def test_keeps_the_callers_strings(self):
        texts = ["".join(["p5", "3"]), "binds"]
        sent = sentence_from_texts(texts)
        assert all(a is b for a, b in zip(sent.tokens, texts))
        assert len(sent) == 2 and sent.texts() == texts

    def test_slotted_and_frozen(self):
        sent = sentence_from_texts(["p53"])
        assert not hasattr(sent, "__dict__")
        with pytest.raises(AttributeError):
            sent.tokens = ("MDM2",)

    def test_pickle_round_trip(self):
        sent = sentence_from_texts(["p53", "binds", "MDM2"])
        back = pickle.loads(pickle.dumps(sent))
        assert back == sent and back.tokens == sent.tokens and type(back) is Sentence

    def test_empty_rejected(self):
        with pytest.raises(EmptySentence):
            sentence_from_texts([])

    @pytest.mark.parametrize("bad", ["", "p53 MDM2", "p53\n", "\tp53", 53, None, b"p53"])
    def test_token_no_label_file_can_carry_rejected(self, bad, tmp_path):
        # "p53 MDM2" used to build, and write_conll wrote a line that
        # read_conll rejects as having 3 columns
        with pytest.raises(WeaknerError):
            sentence_from_texts(["binds", bad])


class TestTagSet:
    def test_layout(self):
        assert PROT.tags == ["O", "B-PROT", "I-PROT"]
        assert len(TWO) == 5
        assert TWO.index("I-CELL") == 4
        assert TWO.type_of(3) == "CELL"
        assert TWO.type_of(0) is None

    @pytest.mark.parametrize("labeling, error", [
        ([0, 4], UnknownTag), (one_hot([0, 4], TWO), ModelTagSetMismatch),
    ], ids=["hard", "soft"])
    def test_check_fits_either_labeling_to_the_tag_set(self, labeling, error):
        # soft rows used to fail in min() on a bare TypeError
        TWO.check(labeling)
        with pytest.raises(error):
            PROT.check(labeling)

    @pytest.mark.parametrize("bad", [1.5, 1.0, np.float64(1.0), True, "1", None])
    def test_hard_tag_that_is_no_int_rejected(self, bad):
        with pytest.raises(UnknownTag):
            TWO.check([0, bad])
        TWO.check([0, np.int64(1), np.int32(2)])

    def test_unknown_tag(self):
        with pytest.raises(UnknownTag):
            PROT.index("B-XYZ")
        with pytest.raises(UnknownTag, match="unknown entity type"):
            PROT.b_index("CELL")

    def test_index_table_is_no_field(self):
        assert [TWO.index(t) for t in TWO.tags] == list(range(len(TWO)))
        # index's lookup table is no field: equality, hash, repr and pickling
        # see the entity types alone
        assert [f.name for f in dataclasses.fields(TagSet)] == ["entity_types"]
        again = TagSet(("PROT", "CELL"))
        assert again == TWO and hash(again) == hash(TWO) and TWO != TagSet(("CELL", "PROT"))
        assert repr(TWO) == "TagSet(entity_types=('PROT', 'CELL'))"
        copy = pickle.loads(pickle.dumps(TWO))
        assert copy == TWO and copy.index("I-CELL") == 4

    @pytest.mark.parametrize("types", [
        (), ("",), ("a b",), ("PROT", "a\tb"), (" PROT",), ("PROT\n",), ("PROT", "PROT"),
        ("PROT", None), (53,),
    ])
    def test_names_no_label_file_can_carry_rejected(self, types):
        # all but the duplicate used to be accepted: no tag but O, a bare
        # "B-", or a tag that read_conll splits into two columns; a
        # non-string name raised a bare AttributeError
        with pytest.raises(WeaknerError):
            TagSet(types)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_hard_tag_outside_tag_set_rejected(self, bad, tmp_path):
        # -1 used to read as I-PROT; 3 passed bio_repair and broke write_conll
        # with a bare IndexError
        labels = [0, bad]
        with pytest.raises(UnknownTag):
            bio_repair(labels, PROT)
        with pytest.raises(UnknownTag):
            PROT.check(labels)
        ds = Dataset([sentence_from_texts(["p53", "binds"])], [labels])
        with pytest.raises(UnknownTag):
            write_conll(ds, tmp_path / "out.conll", PROT)


class TestDataset:
    @pytest.mark.parametrize("labels", [[], [[0, 1]], [[0, 1]] * 3],
                             ids=["none", "short", "long"])
    def test_one_labeling_slot_per_sentence(self, labels):
        sents = [sentence_from_texts(["p53", "binds"])] * 2
        with pytest.raises(LabelLengthMismatch, match="one labeling slot per sentence"):
            Dataset(sents, labels)

    @pytest.mark.parametrize("labeling", [[0], [0, 1, 0], one_hot([0, 1, 2])],
                             ids=["short", "long", "soft"])
    def test_labeling_length_must_equal_token_count(self, labeling):
        sents = [sentence_from_texts(["p53", "binds"])]
        with pytest.raises(LabelLengthMismatch, match="!= token count 2"):
            Dataset(sents, [labeling])


class TestBioCodec:
    def test_simple_span(self):
        spans = bio_decode([1, 2, 0], PROT)
        assert spans == [EntitySpan(0, 0, 1, "PROT")]

    def test_all_outside(self):
        assert bio_decode([0, 0, 0], PROT) == []

    def test_leading_inside_repaired(self):
        # derived against the brute-force reference decoder
        labels = [2, 0, 1]
        assert bio_decode(labels, PROT) == brute_force_decode(labels, PROT)
        assert bio_decode(labels, PROT) == [
            EntitySpan(0, 0, 0, "PROT"),
            EntitySpan(0, 2, 2, "PROT"),
        ]

    def test_encode_simple(self):
        assert bio_encode([EntitySpan(0, 0, 1, "PROT")], 3, PROT) == [1, 2, 0]
        assert bio_encode([], 2, PROT) == [0, 0]
        # another sentence's span is skipped, even one out of this one's bounds
        other = [EntitySpan(1, 0, 0, "PROT"), EntitySpan(0, 1, 1, "PROT"),
                 EntitySpan(2, 5, 9, "PROT")]
        assert bio_encode(other, 3, PROT) == [0, 1, 0]
        assert bio_encode(other, 1, PROT, sentence=1) == [1]

    @pytest.mark.parametrize("first, last", [(-1, 0), (2, 3), (1, 0), (3, 3)])
    def test_span_out_of_bounds_rejected(self, first, last):
        with pytest.raises(WeaknerError, match="out of bounds"):
            bio_encode([EntitySpan(0, first, last, "PROT")], 3, PROT)

    def test_adjacent_same_type_round_trip(self):
        spans = [EntitySpan(0, 0, 0, "PROT"), EntitySpan(0, 1, 1, "PROT")]
        labels = bio_encode(spans, 2, PROT)
        assert labels == [1, 1]
        assert bio_decode(labels, PROT) == spans

    def test_overlap_rejected(self):
        spans = [EntitySpan(0, 0, 1, "PROT"), EntitySpan(0, 1, 2, "PROT")]
        with pytest.raises(OverlappingSpans):
            bio_encode(spans, 3, PROT)

    @given(
        st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=30),
        st.booleans(),
    )
    @settings(max_examples=500, deadline=None)
    def test_decode_matches_reference_and_round_trips(self, labels, two_types):
        tags = TWO if two_types else PROT
        labels = [t % len(tags) for t in labels]
        spans = bio_decode(labels, tags)
        assert spans == brute_force_decode(labels, tags)
        # encode-decode round trip equals repair
        encoded = bio_encode(spans, len(labels), tags)
        assert encoded == bio_repair(labels, tags)
        assert bio_decode(encoded, tags) == spans


class TestGoldSpans:
    def test_spans_of_every_sentence(self):
        sents = [sentence_from_texts(["a", "b", "c"]), sentence_from_texts(["d", "e"])]
        gold = Dataset(sents, [[0, 0, 0], [2, 2]])      # I-PROT I-PROT is repaired
        assert gold_spans(gold, PROT) == [EntitySpan(1, 0, 1, "PROT")]

    @pytest.mark.parametrize("labels, message", [
        ([[0, 0], [0]], "no gold entities"),
        ([[1, 0], None], "hard gold labels"),
        ([[1, 0], one_hot([1])], "hard gold labels"),
    ], ids=["all-O", "unlabeled", "soft"])
    def test_unscorable_gold_rejected(self, labels, message):
        sents = [sentence_from_texts(["a", "b"]), sentence_from_texts(["c"])]
        with pytest.raises(EmptyDataset, match=message):
            gold_spans(Dataset(sents, labels), PROT)


class TestSoftLabeling:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(Exception):
            SoftLabeling(np.array([[0.5, 0.4, 0.0]]), np.array([2]))

    def test_pinned_rows_must_be_one_hot(self):
        with pytest.raises(Exception):
            SoftLabeling(
                np.array([[0.5, 0.5, 0.0]]),
                np.array([Provenance.REFERENCE], dtype=np.int8),
            )

    @pytest.mark.parametrize(
        "row",
        [[np.nan, np.nan, np.nan], [np.nan, 0.5, 0.5], [np.inf, 0.0, 0.0]],
        ids=["all-nan", "partly-nan", "inf"],
    )
    def test_non_finite_rows_rejected(self, row):
        with pytest.raises(WeaknerError, match="non-finite"):
            SoftLabeling(np.array([[1.0, 0.0, 0.0], row]), np.full(2, Provenance.PREDICTED))

    @pytest.mark.parametrize("code", [7, -1, 0, 3])
    def test_provenance_outside_enum_rejected(self, code):
        # such a labeling used to be accepted, and reading its codes back as
        # Provenance values then failed on a bare ValueError
        with pytest.raises(WeaknerError, match="provenance"):
            SoftLabeling(np.array([[1.0, 0.0, 0.0]]), [code])

    @given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_harden_inverts_one_hot_rows(self, labels):
        labels = bio_repair(labels, PROT)  # harden applies repair, so compare on valid input
        assert harden(one_hot(labels), PROT) == labels


class TestSoftLabelingSplit:
    """SoftLabeling.split checks a dataset's rows once and hands out views."""

    GOOD = [[0.25, 0.5, 0.25], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]

    def _rows(self, last_row, last_code):
        dist = np.array(self.GOOD + [[0.5, 0.5, 0.0], last_row])
        prov = np.array([2, 1, 1, 2, last_code], dtype=np.int8)
        return dist, prov

    def test_sentences_are_views_of_the_rows(self):
        dist, prov = self._rows([0.5, 0.5, 0.0], Provenance.PREDICTED)
        parts = SoftLabeling.split(dist, prov, np.array([0, 2, 3]))
        assert [len(p) for p in parts] == [2, 1, 2]
        for p, (a, b) in zip(parts, [(0, 2), (2, 3), (3, 5)]):
            assert isinstance(p, SoftLabeling)
            assert np.shares_memory(p.dist, dist) and np.shares_memory(p.provenance, prov)
            assert p.dist.tobytes() == dist[a:b].tobytes()
            assert p.provenance.tobytes() == prov[a:b].tobytes()

    @pytest.mark.parametrize(
        "row, code",
        [
            ([np.nan, 0.5, 0.5], Provenance.PREDICTED),
            ([1.5, -0.5, 0.0], Provenance.PREDICTED),
            ([0.5, 0.4, 0.0], Provenance.PREDICTED),
            ([0.5, 0.5, 0.0], Provenance.REFERENCE),
            ([1.0, 0.0, 0.0], 0),
            ([0.5, 0.5, 0.0], 3),
            ([1.0, 0.0, 0.0], -1),
        ],
        ids=["nan", "negative", "off-sum", "reference-not-one-hot", "code-0", "code-3",
             "code-minus-1"],
    )
    def test_bad_last_sentence_raises_like_the_constructor(self, row, code):
        dist, prov = self._rows(row, code)
        with pytest.raises(WeaknerError) as per_sentence:
            SoftLabeling(dist[3:], prov[3:])
        with pytest.raises(WeaknerError) as whole:
            SoftLabeling.split(dist, prov, [0, 2, 3])
        assert type(whole.value) is type(per_sentence.value)
        assert str(whole.value) == str(per_sentence.value)

    def test_empty_input(self):
        assert SoftLabeling.split(np.zeros((0, 3)), np.zeros(0, dtype=np.int8), []) == []

    def test_shape_mismatch_rejected(self):
        with pytest.raises(WeaknerError, match="shape"):
            SoftLabeling.split(np.eye(3), np.zeros(2, dtype=np.int8), [0])


class TestSplitSeed:
    def _dataset(self, n):
        sents = [sentence_from_texts([f"tok{i}", "x"]) for i in range(n)]
        return Dataset(sents, [[0, 0] for _ in range(n)])

    def test_three_percent_of_hundred(self):
        seed, corpus, gold = split_seed(self._dataset(100), 0.03, 0)
        assert (len(seed), len(corpus)) == (3, 97)
        assert len(gold) == 97

    def test_half_of_two(self):
        seed, corpus, _ = split_seed(self._dataset(2), 0.5, 0)
        assert (len(seed), len(corpus)) == (1, 1)

    def test_deterministic(self):
        a = split_seed(self._dataset(50), 0.2, 7)
        b = split_seed(self._dataset(50), 0.2, 7)
        assert [s.texts() for s in a[0].sentences] == [s.texts() for s in b[0].sentences]
        assert [s.texts() for s in a[1].sentences] == [s.texts() for s in b[1].sentences]

    def test_partition(self):
        ds = self._dataset(40)
        seed, corpus, gold = split_seed(ds, 0.25, 3)
        all_texts = sorted(s.texts()[0] for s in seed.sentences) + sorted(
            s.texts()[0] for s in corpus.sentences
        )
        assert sorted(all_texts) == sorted(s.texts()[0] for s in ds.sentences)
        # corpus labels stripped, gold retains them
        assert all(lab is None for lab in corpus.labels)
        assert gold.labels == [[0, 0]] * len(corpus)
        assert gold.sentences == corpus.sentences

    def test_unlabeled_sentence_rejected(self):
        ds = self._dataset(10)
        ds.labels[4] = None
        with pytest.raises(WeaknerError, match="fully labeled"):
            split_seed(ds, 0.5, 0)

    def test_fraction_out_of_range(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(FractionOutOfRange):
                split_seed(self._dataset(10), bad, 0)

    @pytest.mark.parametrize("n, fraction", [(10, 0.01), (10, 0.99), (1, 0.5), (0, 0.5)])
    def test_split_that_empties_a_part_rejected(self, n, fraction):
        # used to return an empty seed or corpus, which failed only later
        # ("empty seed dataset", after the grid's full-label rows had trained)
        with pytest.raises(FractionOutOfRange):
            split_seed(self._dataset(n), fraction, 0)


class TestConllIo:
    def test_read_basic(self, tmp_path):
        path = tmp_path / "a.conll"
        path.write_text("p53\tB-PROT\n.\tO\n\n", encoding="utf-8")
        ds = read_conll(path, PROT)
        assert len(ds) == 1
        assert ds.sentences[0].texts() == ["p53", "."]
        assert ds.labels[0] == [1, 0]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.conll"
        path.write_text("", encoding="utf-8")
        assert len(read_conll(path, PROT)) == 0

    def test_unknown_tag(self, tmp_path):
        path = tmp_path / "bad.conll"
        path.write_text("p53\tB-XYZ\n", encoding="utf-8")
        with pytest.raises(UnknownTag):
            read_conll(path, PROT)

    def test_unknown_tag_reports_position(self, tmp_path):
        # used to name the tag but neither the file nor the line
        path = tmp_path / "bad.conll"
        path.write_text("p53\tB-PROT\n\nMDM2\tB-GENE\n", encoding="utf-8")
        with pytest.raises(UnknownTag, match=f"^{re.escape(str(path))}:3: tag 'B-GENE'"):
            read_conll(path, PROT)

    def test_equal_tokens_share_one_string(self, tmp_path):
        # each line used to keep its own copy of the token text
        path = tmp_path / "a.conll"
        path.write_text("p53\tB-PROT\nbinds\tO\n\nthe\tO\np53\tB-PROT\n", encoding="utf-8")
        ds = read_conll(path, PROT)
        assert ds.sentences[0].tokens[0] is ds.sentences[1].tokens[1]

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.conll"
        path.write_text("p53\tB-PROT\nonlyonecolumn\n", encoding="utf-8")
        with pytest.raises(MalformedLine) as err:
            read_conll(path, PROT)
        assert err.value.line_no == 2

    def test_round_trip_byte_identical(self, tmp_path):
        normalized = "p53\tB-PROT\nbinds\tO\nMDM2\tB-PROT\n\nTIGAR\tB-PROT\n.\tO\n"
        src = tmp_path / "in.conll"
        src.write_text(normalized, encoding="utf-8")
        out = tmp_path / "out.conll"
        write_conll(read_conll(src, PROT), out, PROT)
        assert out.read_bytes() == normalized.encode("utf-8")

    @pytest.mark.parametrize("second", [one_hot([0]), [3]], ids=["soft", "outside"])
    def test_rejected_labeling_leaves_no_file(self, second, tmp_path):
        # the first sentence used to be on disk by the time the second raised
        ds = Dataset([sentence_from_texts(["a", "b"]), sentence_from_texts(["c"])],
                     [[1, 0], second])
        out = tmp_path / "out.conll"
        with pytest.raises(WeaknerError):
            write_conll(ds, out, PROT)
        assert not out.exists()

    def test_space_separated_normalizes_to_tabs(self, tmp_path):
        src = tmp_path / "in.conll"
        src.write_text("p53 B-PROT\n. O\n", encoding="utf-8")
        out = tmp_path / "out.conll"
        write_conll(read_conll(src, PROT), out, PROT)
        assert out.read_text(encoding="utf-8") == "p53\tB-PROT\n.\tO\n"
