"""Reference sets (gazetteers) and high-precision mention search.

Two matching styles are supported, mirroring how a curated name list is
typically used against text:

* exact search: a run of consecutive tokens whose single-space-joined text
  equals a name (optionally case-insensitive);
* partial search: a single token matches when one of its hyphen- or
  slash-delimited components equals a name under case folding, so a name
  like TIGAR is found inside "Flag-tagged-TIGAR".

Filtering (dictionary words out, short names out) is part of the policy
and is applied to the names before every search; it is what turns a noisy
gazetteer into a usable one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .corpus import Dataset, EntitySpan, TagSet, check_spans_in, gold_spans, text_lines
from .errors import EmptyReferenceSet, WeaknerError, check_int
from .metrics import score_entities

_COMPONENT_SPLIT = re.compile(r"[-/]")


@dataclass(frozen=True)
class ReferenceSet:
    """A deduplicated set of entity surface forms for one entity type, each
    stored as its words joined by single spaces, as token windows are."""

    names: frozenset
    entity_type: str

    def __post_init__(self):
        object.__setattr__(self, "names", frozenset(" ".join(n.split()) for n in self.names))
        if any(not n for n in self.names):
            raise WeaknerError("reference set contains an empty name")

    def __len__(self):
        return len(self.names)


@dataclass(frozen=True)
class MatchPolicy:
    """Configuration of the filtering and matching rules.

    dictionary_filter words are single-spaced as reference names are, then
    lowercased, on construction; a name is dropped when its lowercased form
    is in the dictionary or when it is shorter than min_name_length characters.
    """

    case_sensitive: bool = True
    min_name_length: int = 1
    dictionary_filter: frozenset | None = None
    allow_partial: bool = False

    def __post_init__(self):
        check_int("min_name_length", self.min_name_length, 1)
        if self.dictionary_filter is not None:
            words = frozenset(" ".join(w.split()).lower() for w in self.dictionary_filter)
            object.__setattr__(self, "dictionary_filter", words)

    def keeps(self, name: str) -> bool:
        if len(name) < self.min_name_length:
            return False
        if self.dictionary_filter is not None and name.lower() in self.dictionary_filter:
            return False
        return True


def exact_policy() -> MatchPolicy:
    """Plain case-sensitive exact search, no filtering."""
    return MatchPolicy()


def filtered_policy(dictionary, min_name_length: int = 4) -> MatchPolicy:
    """Dictionary- and length-filtered, case-insensitive, partial-match search."""
    return MatchPolicy(
        case_sensitive=False,
        min_name_length=min_name_length,
        dictionary_filter=dictionary,
        allow_partial=True,
    )


@dataclass(frozen=True, order=True)
class RefMatch:
    """A matched mention: sentence index, inclusive token range, name, type."""

    sentence: int
    first: int
    last: int
    name: str
    entity_type: str


def load_reference_set(path, entity_type: str) -> ReferenceSet:
    """Load one surface form per line; blank lines skipped, BOM stripped."""
    names = {line.strip() for line in text_lines(path)} - {""}
    if not names:
        raise EmptyReferenceSet(f"no names in {path}")
    return ReferenceSet(frozenset(names), entity_type)


def load_dictionary(path) -> frozenset:
    """Load a word list, one word per line, lowercased."""
    return frozenset(line.strip().lower() for line in text_lines(path) if line.strip())


def filter_names(refset: ReferenceSet, policy: MatchPolicy) -> ReferenceSet:
    """Names surviving the policy's dictionary and length rules.

    Idempotent; the input set is left untouched. The result may be empty
    (an empty set simply produces no matches).
    """
    kept = frozenset(n for n in refset.names if policy.keeps(n))
    return ReferenceSet(kept, refset.entity_type)


def _fold(text: str, case_sensitive: bool) -> str:
    return text if case_sensitive else text.casefold()


def _name_index(names, case_sensitive: bool):
    """Map folded surface form -> canonical name (longest, then smallest)."""
    index = {}
    for name in names:
        key = _fold(name, case_sensitive)
        cur = index.get(key)
        if cur is None or len(name) > len(cur) or (len(name) == len(cur) and name < cur):
            index[key] = name
    return index


def token_components(text: str):
    """Hyphen/slash-delimited components of a token (the token itself if none)."""
    return [c for c in _COMPONENT_SPLIT.split(text) if c]


def find_matches(corpus: Dataset, refset: ReferenceSet, policy: MatchPolicy):
    """Find non-overlapping gazetteer mentions in every sentence.

    Exact mode: any window of consecutive tokens whose single-space-joined
    text equals a name under the policy's case rule. A window grows only
    while its text is the part of some name before one of its spaces.
    Partial mode additionally matches a single token when one of its
    hyphen/slash components equals a name under case folding.

    The work is per distinct token text, not per token: each text of the
    corpus is folded once, and split into components only if it holds a
    hyphen or slash. A text can start a match when it is a name or such a
    part of one, or has a component hit. A sentence holding no such text
    is skipped with one set test; in the others only the positions of such
    texts are visited, and a lone candidate needs no overlap resolution.

    Only names the policy keeps are searched (see filter_names). Overlaps
    resolve leftmost-longest; ties go to the longer matched name, then the
    lexicographically smaller one. Deterministic.
    """
    names = filter_names(refset, policy).names
    exact = _name_index(names, policy.case_sensitive)
    partial = _name_index(names, case_sensitive=False) if policy.allow_partial else {}
    heads = {key[:j] for key in exact if " " in key for j, c in enumerate(key) if c == " "}
    # folded window text -> (the name it equals or None, whether it grows)
    windows = {key: (exact.get(key), key in heads) for key in exact.keys() | heads}
    types = {}   # token text -> (folded text, its windows entry, component hits)
    for text in set().union(*(sent.tokens for sent in corpus.sentences)):
        key = _fold(text, policy.case_sensitive)
        step = windows.get(key)
        own = step and step[0]      # the name the token alone equals, if any
        comps = token_components(text) if "-" in text or "/" in text else [text]
        # a component naming own would only repeat that candidate
        hits = [partial[c] for c in map(str.casefold, comps) if c in partial and partial[c] != own]
        types[text] = (key, step, hits)
    starts = {text for text, (_, step, hits) in types.items() if step or hits}

    matches = []
    for s, sent in enumerate(corpus.sentences):
        tokens = sent.tokens
        if starts.isdisjoint(tokens):
            continue
        candidates = []
        for i in [i for i, text in enumerate(tokens) if text in starts]:
            key, step, hits = types[tokens[i]]
            last = i
            while step is not None:
                name, grows = step
                if name is not None:
                    candidates.append((i, last, name))
                last += 1
                if not grows or last == len(tokens):
                    break
                key += " " + types[tokens[last]][0]
                step = windows.get(key)
            candidates += [(i, i, name) for name in hits]
        matches.extend(
            RefMatch(s, first, last, name, refset.entity_type)
            for first, last, name in _resolve_overlaps(candidates)
        )
    return matches


def _resolve_overlaps(candidates):
    """Greedy leftmost-longest selection over (first, last, name) triples."""
    if len(candidates) < 2:
        return candidates
    ranked = sorted(
        set(candidates),
        key=lambda c: (c[0], -(c[1] - c[0]), -len(c[2]), c[2]),
    )
    chosen = []
    next_free = 0
    for first, last, name in ranked:
        if first >= next_free:
            chosen.append((first, last, name))
            next_free = last + 1
    return chosen


def audit_matcher(matches, gold: Dataset, tags: TagSet, criterion: str = "exact"):
    """Mention-level (precision, recall) of matches against gold entity spans.

    criterion "exact" counts a match only when (sentence, range, type) all
    agree, as score_entities does; "overlap" credits any same-type token
    overlap. Gold must pass corpus.gold_spans, or EmptyDataset, and hold
    every match's sentence and token range, or WeaknerError.
    """
    if criterion not in ("exact", "overlap"):
        raise WeaknerError(f"unknown audit criterion {criterion!r}")
    gold_set = gold_spans(gold, tags)
    check_spans_in(matches, gold)
    if criterion == "exact":
        spans = [EntitySpan(m.sentence, m.first, m.last, m.entity_type) for m in matches]
        report = score_entities(spans, gold_set)
        return report.precision, report.recall

    # gold spans never share a token, so a (sentence, token, type) has one owner
    owner = {(sp.sentence, i, sp.entity_type): sp
             for sp in gold_set for i in range(sp.first, sp.last + 1)}
    hits = [{owner.get((m.sentence, i, m.entity_type)) for i in range(m.first, m.last + 1)} - {None}
            for m in matches]
    precision = sum(map(bool, hits)) / len(matches) if matches else 0.0
    return precision, len(set().union(*hits)) / len(gold_set)
