"""Corpus data model: tokens, sentences, BIO tag sets, labelings and CoNLL I/O.

Everything here is a plain immutable value; operations return new objects.
Labelings come in two flavours: hard (a list of tag indices, one per token)
and soft (a per-token probability row over the tag set, plus a provenance
flag saying where that row came from).
"""

from __future__ import annotations

import enum
import string
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyDataset,
    EmptySentence,
    FractionOutOfRange,
    LabelLengthMismatch,
    MalformedLine,
    OverlappingSpans,
    UnknownTag,
    WeaknerError,
)

# A hard labeling is just one tag index per token.
HardLabeling = list

_PUNCT = set(string.punctuation)


@dataclass(frozen=True)
class Token:
    """A token with character offsets into its source sentence."""

    text: str
    start: int
    end: int

    def __post_init__(self):
        if not self.text:
            raise WeaknerError("empty token text")
        if self.start < 0 or self.end <= self.start:
            raise WeaknerError(f"bad token offsets [{self.start}, {self.end})")


@dataclass(frozen=True)
class Sentence:
    """A non-empty token sequence plus the original string it came from."""

    tokens: tuple
    source: str

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not self.tokens:
            raise EmptySentence("sentence has no tokens")
        prev_end = -1
        for tok in self.tokens:
            if tok.start < prev_end:
                raise WeaknerError("tokens overlap or are out of order")
            if self.source[tok.start:tok.end] != tok.text:
                raise WeaknerError(
                    f"token {tok.text!r} does not match source at [{tok.start}, {tok.end})"
                )
            prev_end = tok.end

    def __len__(self):
        return len(self.tokens)

    def texts(self):
        return [t.text for t in self.tokens]


@dataclass(frozen=True)
class TagSet:
    """BIO tag inventory derived from an ordered list of entity type names.

    Index 0 is always O; each entity type t contributes B-t and I-t, in
    order, so there are ``1 + 2 * len(entity_types)`` tags.
    """

    entity_types: tuple

    def __post_init__(self):
        object.__setattr__(self, "entity_types", tuple(self.entity_types))
        if len(set(self.entity_types)) != len(self.entity_types):
            raise WeaknerError("duplicate entity types")

    @property
    def tags(self):
        out = ["O"]
        for t in self.entity_types:
            out.append(f"B-{t}")
            out.append(f"I-{t}")
        return out

    def __len__(self):
        return 1 + 2 * len(self.entity_types)

    def index(self, tag: str) -> int:
        try:
            return self.tags.index(tag)
        except ValueError:
            raise UnknownTag(f"tag {tag!r} not in tag set {self.tags}") from None

    def b_index(self, entity_type: str) -> int:
        return 1 + 2 * self._type_pos(entity_type)

    def i_index(self, entity_type: str) -> int:
        return 2 + 2 * self._type_pos(entity_type)

    def _type_pos(self, entity_type: str) -> int:
        try:
            return self.entity_types.index(entity_type)
        except ValueError:
            raise UnknownTag(f"unknown entity type {entity_type!r}") from None

    def type_of(self, tag_index: int):
        """Entity type of a B-/I- tag index, or None for O."""
        if tag_index == 0:
            return None
        return self.entity_types[(tag_index - 1) // 2]

    def is_begin(self, tag_index: int) -> bool:
        return tag_index != 0 and (tag_index - 1) % 2 == 0

    def check(self, labels):
        """Raise UnknownTag unless every hard tag index lies in 0..k-1."""
        if len(labels) and not 0 <= min(labels) <= max(labels) < len(self):
            raise UnknownTag(f"tag index outside 0..{len(self) - 1}")


class Provenance(enum.IntEnum):
    SEED = 0
    REFERENCE = 1
    PREDICTED = 2


def _check_soft(dist, provenance):
    """Reject soft rows that are non-finite, negative or do not sum to 1
    (within 1e-9), provenance codes outside Provenance, and SEED or
    REFERENCE rows that are not one-hot."""
    if dist.ndim != 2 or provenance.shape != (len(dist),):
        raise WeaknerError("soft labeling shape mismatch")
    if not np.isfinite(dist).all():
        raise WeaknerError("non-finite probability in soft labeling")
    if not len(dist):
        return
    if (dist < -1e-12).any():
        raise WeaknerError("negative probability in soft labeling")
    err = np.abs(dist.sum(axis=1) - 1.0).max()
    if err > 1e-9:
        raise WeaknerError(f"soft labeling rows must sum to 1 (off by {err:g})")
    if not 0 <= provenance.min() <= provenance.max() <= max(Provenance):
        raise WeaknerError(f"provenance codes must lie in 0..{max(Provenance):d}")
    pinned = provenance != Provenance.PREDICTED
    if pinned.any() and not np.all(dist[pinned].max(axis=1) == 1.0):
        raise WeaknerError("SEED/REFERENCE rows must be one-hot")


@dataclass
class SoftLabeling:
    """Per-token probability rows over a tag set, with per-token provenance.

    Rows must sum to 1 (within 1e-9); SEED and REFERENCE rows are one-hot.
    """

    dist: np.ndarray            # (n_tokens, n_tags) float64
    provenance: np.ndarray      # (n_tokens,) Provenance values

    def __post_init__(self):
        self.dist = np.asarray(self.dist, dtype=np.float64)
        self.provenance = np.asarray(self.provenance, dtype=np.int8)
        _check_soft(self.dist, self.provenance)

    @classmethod
    def split(cls, dist, provenance, starts) -> list:
        """One labeling per sentence of a dataset's concatenated rows, sentence
        i holding views of the rows from starts[i] to the next start. The
        rows are checked once, as a whole."""
        whole = cls(dist, provenance)
        out = []
        for a, b in zip(starts, [*starts[1:], len(whole)]):
            soft = object.__new__(cls)      # rows already checked
            soft.dist, soft.provenance = whole.dist[a:b], whole.provenance[a:b]
            out.append(soft)
        return out

    def __len__(self):
        return len(self.dist)


class DatasetKind(enum.Enum):
    SEED = "seed"
    CORPUS = "corpus"


@dataclass
class Dataset:
    """Sentences plus (optionally) one labeling per sentence.

    ``labels[i]`` is a HardLabeling (list of tag indices), a SoftLabeling,
    or None for an unlabeled sentence.
    """

    sentences: list
    labels: list
    kind: DatasetKind = DatasetKind.SEED

    def __post_init__(self):
        if len(self.labels) != len(self.sentences):
            raise LabelLengthMismatch("need one labeling slot per sentence")
        for sent, lab in zip(self.sentences, self.labels):
            if lab is not None and len(lab) != len(sent):
                raise LabelLengthMismatch(
                    f"labeling length {len(lab)} != token count {len(sent)}"
                )

    def __len__(self):
        return len(self.sentences)

    def is_fully_labeled(self) -> bool:
        return all(lab is not None for lab in self.labels)


@dataclass(frozen=True, order=True)
class EntitySpan:
    """An entity mention: sentence index, inclusive token range, type name."""

    sentence: int
    first: int
    last: int
    entity_type: str


def tokenize(text: str) -> Sentence:
    """Split text into tokens on whitespace, peeling off leading and trailing
    punctuation as separate one-character tokens.

    Internal punctuation is kept, so hyphen/slash compounds such as
    "Flag-tagged-TIGAR" stay single tokens and remain matchable units.
    Offsets index into the original string.
    """
    tokens = []
    i, n = 0, len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace():
            j += 1
        # run [i, j): peel leading punctuation ...
        a = i
        while a < j and text[a] in _PUNCT:
            tokens.append(Token(text[a], a, a + 1))
            a += 1
        # ... find the trailing punctuation tail ...
        b = j
        while b > a and text[b - 1] in _PUNCT:
            b -= 1
        # ... keep the core (with any internal punctuation) as one token.
        if b > a:
            tokens.append(Token(text[a:b], a, b))
        for k in range(b, j):
            tokens.append(Token(text[k], k, k + 1))
        i = j
    if not tokens:
        raise EmptySentence(f"no tokens in {text!r}")
    return Sentence(tuple(tokens), text)


def bio_repair(labels, tags: TagSet):
    """Make a tag sequence BIO-valid: an I-t not preceded by B-t/I-t of the
    same type starts a new span and becomes B-t (conlleval convention)."""
    tags.check(labels)
    repaired = []
    prev = 0
    for t in labels:
        if t != 0 and not tags.is_begin(t):
            same_type_prev = prev != 0 and tags.type_of(prev) == tags.type_of(t)
            if not same_type_prev:
                t = t - 1  # I-t -> B-t
        repaired.append(int(t))
        prev = t
    return repaired


def bio_decode(labels, tags: TagSet, sentence: int = 0):
    """Decode a (possibly invalid) hard labeling into maximal entity spans."""
    spans = []
    start = None
    cur_type = None
    for i, t in enumerate(bio_repair(labels, tags)):
        if t == 0:
            if start is not None:
                spans.append(EntitySpan(sentence, start, i - 1, cur_type))
                start = None
        elif tags.is_begin(t):
            if start is not None:
                spans.append(EntitySpan(sentence, start, i - 1, cur_type))
            start, cur_type = i, tags.type_of(t)
        # else: I-t continuing the open span (repair guarantees same type)
    if start is not None:
        spans.append(EntitySpan(sentence, start, len(labels) - 1, cur_type))
    return spans


def gold_spans(gold: Dataset, tags: TagSet):
    """The entity spans of a gold set, the rule of every scorer: hard labels on
    each sentence and at least one entity, or EmptyDataset (against no
    entity, P, R and F1 would read 0 whatever was predicted)."""
    spans = []
    for s, labels in enumerate(gold.labels):
        if labels is None or isinstance(labels, SoftLabeling):
            raise EmptyDataset("scoring needs hard gold labels on every sentence")
        spans.extend(bio_decode(labels, tags, sentence=s))
    if not spans:
        raise EmptyDataset("no gold entities to score against")
    return spans


def bio_encode(spans, n_tokens: int, tags: TagSet, sentence: int = 0):
    """Encode non-overlapping spans as a BIO hard labeling of length n_tokens."""
    labels = [0] * n_tokens
    occupied = [False] * n_tokens
    for span in spans:
        if span.sentence != sentence:
            continue
        if not (0 <= span.first <= span.last < n_tokens):
            raise WeaknerError(f"span {span} out of bounds for {n_tokens} tokens")
        for i in range(span.first, span.last + 1):
            if occupied[i]:
                raise OverlappingSpans(f"token {i} covered twice")
            occupied[i] = True
        labels[span.first] = tags.b_index(span.entity_type)
        for i in range(span.first + 1, span.last + 1):
            labels[i] = tags.i_index(span.entity_type)
    return labels


def soften(labels, tags: TagSet) -> SoftLabeling:
    """Turn a hard labeling into one-hot rows with SEED provenance."""
    tags.check(labels)
    dist = np.zeros((len(labels), len(tags)))
    dist[np.arange(len(labels)), labels] = 1.0
    prov = np.full(len(labels), Provenance.SEED, dtype=np.int8)
    return SoftLabeling(dist, prov)


def split_seed(dataset: Dataset, fraction: float, rng_seed: int):
    """Randomly split a fully-labeled dataset into a labeled seed part and an
    unlabeled corpus part.

    Returns (seed, corpus, gold) where the seed keeps round(fraction * N)
    sentences with labels, the corpus holds the remaining sentences with
    labels stripped, and gold carries the corpus sentences WITH their labels
    for held-out simulation. A split that leaves either part empty raises
    FractionOutOfRange.
    """
    if not 0.0 < fraction < 1.0:
        raise FractionOutOfRange(f"fraction must be in (0, 1), got {fraction}")
    if not dataset.is_fully_labeled():
        raise WeaknerError("split_seed needs a fully labeled dataset")
    n = len(dataset)
    n_seed = round(fraction * n)
    if not 0 < n_seed < n:
        raise FractionOutOfRange(f"fraction {fraction} of {n} sentences leaves a part empty")
    order = np.random.default_rng(rng_seed).permutation(n)
    seed_idx = sorted(order[:n_seed].tolist())
    corpus_idx = sorted(order[n_seed:].tolist())
    seed = Dataset(
        [dataset.sentences[i] for i in seed_idx],
        [dataset.labels[i] for i in seed_idx],
        DatasetKind.SEED,
    )
    corpus = Dataset(
        [dataset.sentences[i] for i in corpus_idx],
        [None] * len(corpus_idx),
        DatasetKind.CORPUS,
    )
    gold = Dataset(
        [dataset.sentences[i] for i in corpus_idx],
        [dataset.labels[i] for i in corpus_idx],
        DatasetKind.CORPUS,
    )
    return seed, corpus, gold


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

def sentence_from_texts(texts):
    """Rebuild a Sentence from bare token strings (single-space joined)."""
    toks = []
    pos = 0
    for t in texts:
        toks.append(Token(t, pos, pos + len(t)))
        pos += len(t) + 1
    return Sentence(tuple(toks), " ".join(texts))


def text_lines(path):
    """The lines of a UTF-8 text file, BOM stripped; bytes that are not UTF-8
    raise WeaknerError naming the file."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as e:
            raise WeaknerError(f"{path}: not UTF-8 text ({e.reason})") from None


def read_conll(path, tags: TagSet, kind: DatasetKind = DatasetKind.SEED) -> Dataset:
    """Read a two-column (token, tag) file, blank lines separating sentences."""
    sentences, labels = [], []
    cur_toks, cur_tags = [], []

    def flush():
        if cur_toks:
            sentences.append(sentence_from_texts(cur_toks))
            labels.append(list(cur_tags))
            cur_toks.clear()
            cur_tags.clear()

    for line_no, line in enumerate(text_lines(path), start=1):
        line = line.rstrip("\n").rstrip("\r")
        if not line.strip():
            flush()
            continue
        cols = line.split()
        if len(cols) != 2:
            raise MalformedLine(path, line_no, f"expected 2 columns, got {len(cols)}")
        cur_toks.append(cols[0])
        cur_tags.append(tags.index(cols[1]))
    flush()
    return Dataset(sentences, labels, kind)


def write_conll(dataset: Dataset, path, tags: TagSet):
    """Write token TAB tag lines, one blank line between sentences.

    Unlabeled sentences are written all O. Every labeling is checked (hard,
    tags inside `tags`) before the file is opened.
    """
    rows = []
    for sent, labels in zip(dataset.sentences, dataset.labels):
        if isinstance(labels, SoftLabeling):
            raise WeaknerError("write_conll needs hard labels (harden first)")
        if labels is None:
            labels = [0] * len(sent)
        tags.check(labels)
        rows.append(labels)
    tag_names = tags.tags
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for s, (sent, labels) in enumerate(zip(dataset.sentences, rows)):
            if s:
                fh.write("\n")
            for tok, t in zip(sent.tokens, labels):
                fh.write(f"{tok.text}\t{tag_names[t]}\n")
