"""Corpus data model: sentences of token strings, BIO tag sets, labelings and CoNLL I/O.

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
    ModelTagSetMismatch,
    OverlappingSpans,
    UnknownTag,
    WeaknerError,
    check_fraction,
    check_int,
)

_PUNCT = set(string.punctuation)


def _check_column(kind, text):
    """Raise WeaknerError unless text can be one column of a label file: a
    non-empty string with no whitespace."""
    if not (isinstance(text, str) and text.split() == [text]):
        raise WeaknerError(f"bad {kind} {text!r}: not a string, empty or contains whitespace")


@dataclass(frozen=True, slots=True)
class Sentence:
    """A non-empty tuple of token strings, each one column of a label file
    (see _check_column). The strings are the caller's own objects, not copies."""

    tokens: tuple

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not self.tokens:
            raise EmptySentence("sentence has no tokens")
        for tok in self.tokens:
            _check_column("token", tok)

    def __len__(self):
        return len(self.tokens)

    def texts(self):
        return list(self.tokens)


@dataclass(frozen=True)
class TagSet:
    """BIO tag inventory derived from an ordered list of entity type names.

    Index 0 is always O; each entity type t contributes B-t and I-t, in
    order, so there are ``1 + 2 * len(entity_types)`` tags. There is at
    least one type, and each name is non-empty with no whitespace, so every
    tag is one column of a label file.
    """

    entity_types: tuple

    def __post_init__(self):
        object.__setattr__(self, "entity_types", tuple(self.entity_types))
        if not self.entity_types:
            raise WeaknerError("no entity types")
        for t in self.entity_types:
            _check_column("entity type", t)
        if len(set(self.entity_types)) != len(self.entity_types):
            raise WeaknerError("duplicate entity types")
        # tag name -> index, for index(); not a field, so equality, hash and repr ignore it
        object.__setattr__(self, "_positions", {tag: i for i, tag in enumerate(self.tags)})

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
            return self._positions[tag]
        except KeyError:
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
        """Raise unless a labeling fits this tag set: ModelTagSetMismatch for
        soft rows not len(self) wide, UnknownTag for a hard tag index that is
        not an int (a numpy integer will do, a bool or float will not) in
        0..k-1."""
        k = len(self)
        if isinstance(labels, SoftLabeling):
            if labels.dist.shape[1] != k:
                raise ModelTagSetMismatch(f"soft rows of width {labels.dist.shape[1]} for {k} tags")
            return
        for t in labels:
            if (type(t) is not int and not isinstance(t, np.integer)) or not 0 <= t < k:
                raise UnknownTag(f"tag index {t!r} is not an int in 0..{k - 1}")


class Provenance(enum.IntEnum):
    REFERENCE = 1
    PREDICTED = 2


def _check_soft(dist, provenance):
    """Reject soft rows that are non-finite, negative or do not sum to 1
    (within 1e-9), provenance codes outside Provenance, and REFERENCE rows
    that are not one-hot."""
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
    if not min(Provenance) <= provenance.min() <= provenance.max() <= max(Provenance):
        raise WeaknerError(f"provenance codes must lie in {min(Provenance):d}..{max(Provenance):d}")
    pinned = provenance == Provenance.REFERENCE
    if pinned.any() and not np.all(dist[pinned].max(axis=1) == 1.0):
        raise WeaknerError("REFERENCE rows must be one-hot")


@dataclass
class SoftLabeling:
    """Per-token probability rows over a tag set, with per-token provenance.

    Rows must sum to 1 (within 1e-9); REFERENCE rows are one-hot.
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


# only perfbench/workloads.py still uses DatasetKind and Dataset.kind (ROADMAP item 7)
class DatasetKind(enum.Enum):
    SEED = "seed"
    CORPUS = "corpus"


@dataclass
class Dataset:
    """Sentences plus (optionally) one labeling per sentence.

    ``labels[i]`` is a hard labeling (list of tag indices), a SoftLabeling,
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
    "Flag-tagged-TIGAR" stay single tokens and remain matchable units. No
    character offsets are kept: joined without separators, the tokens are
    the text's non-space characters in order.
    """
    tokens = []
    for run in text.split():
        # peel leading punctuation ...
        a, b = 0, len(run)
        while a < b and run[a] in _PUNCT:
            a += 1
        # ... and the trailing punctuation tail, keeping the core (with any
        # internal punctuation) as one token
        while b > a and run[b - 1] in _PUNCT:
            b -= 1
        tokens.extend(run[:a])      # one token per punctuation character
        if b > a:
            tokens.append(run[a:b])
        tokens.extend(run[b:])
    if not tokens:
        raise EmptySentence(f"no tokens in {text!r}")
    return Sentence(tokens)


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
    for span in spans:
        if span.sentence != sentence:
            continue
        if not (0 <= span.first <= span.last < n_tokens):
            raise WeaknerError(f"span {span} out of bounds for {n_tokens} tokens")
        for i in range(span.first, span.last + 1):
            if labels[i]:       # a covered token's tag is B- or I-, never O (0)
                raise OverlappingSpans(f"token {i} covered twice")
        labels[span.first] = tags.b_index(span.entity_type)
        for i in range(span.first + 1, span.last + 1):
            labels[i] = tags.i_index(span.entity_type)
    return labels


def harden(soft: SoftLabeling, tags: TagSet) -> list:
    """Per-token argmax (lowest index wins ties) then BIO repair, of rows tags.check accepts."""
    tags.check(soft)
    return bio_repair(soft.dist.argmax(axis=1).tolist(), tags)


def split_seed(dataset: Dataset, fraction: float, rng_seed: int):
    """Randomly split a fully-labeled dataset into a labeled seed part and an
    unlabeled corpus part.

    Returns (seed, corpus, gold) where the seed keeps round(fraction * N)
    sentences with labels, the corpus holds the remaining sentences with
    labels stripped, and gold carries the corpus sentences WITH their labels
    for held-out simulation. A split that leaves either part empty raises
    FractionOutOfRange.
    """
    check_fraction("fraction", fraction)
    check_int("rng_seed", rng_seed, 0)
    if any(lab is None for lab in dataset.labels):
        raise WeaknerError("split_seed needs a fully labeled dataset")
    n = len(dataset)
    n_seed = round(fraction * n)
    if not 0 < n_seed < n:
        raise FractionOutOfRange(f"fraction {fraction} of {n} sentences leaves a part empty",
                                 field="fraction")
    order = np.random.default_rng(rng_seed).permutation(n)
    seed_idx = sorted(order[:n_seed].tolist())
    corpus_idx = sorted(order[n_seed:].tolist())
    seed = Dataset([dataset.sentences[i] for i in seed_idx], [dataset.labels[i] for i in seed_idx])
    corpus = Dataset([dataset.sentences[i] for i in corpus_idx], [None] * len(corpus_idx))
    gold = Dataset(list(corpus.sentences), [dataset.labels[i] for i in corpus_idx])
    return seed, corpus, gold


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

def sentence_from_texts(texts):
    """A Sentence holding the given token strings."""
    return Sentence(texts)


def text_lines(path):
    """The lines of a UTF-8 text file, BOM stripped; bytes that are not UTF-8
    raise WeaknerError naming the file."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as e:
            raise WeaknerError(f"{path}: not UTF-8 text ({e.reason})") from None


def write_lines(path, lines):
    """Write each string of lines and a LF after it to a UTF-8 text file."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


def read_conll(path, tags: TagSet) -> Dataset:
    """Read a two-column (token, tag) file, blank lines separating sentences.
    Equal token texts share one string object."""
    sentences, labels = [], []
    cur_toks, cur_tags = [], []
    texts = {}

    def flush():
        if cur_toks:
            sentences.append(sentence_from_texts(cur_toks))
            labels.append(list(cur_tags))
            cur_toks.clear()
            cur_tags.clear()

    for line_no, line in enumerate(text_lines(path), start=1):
        cols = line.split()
        if not cols:
            flush()
            continue
        if len(cols) != 2:
            raise MalformedLine(path, line_no, f"expected 2 columns, got {len(cols)}")
        cur_toks.append(texts.setdefault(cols[0], cols[0]))
        try:
            cur_tags.append(tags.index(cols[1]))
        except UnknownTag as e:
            raise UnknownTag(f"{path}:{line_no}: {e}") from None
    flush()
    return Dataset(sentences, labels)


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

    def lines():
        for s, (sent, labels) in enumerate(zip(dataset.sentences, rows)):
            if s:
                yield ""
            for tok, t in zip(sent.tokens, labels):
                yield f"{tok}\t{tag_names[t]}"

    write_lines(path, lines())
