"""Deterministic synthetic corpus generator for controlled experiments.

Builds a fully labeled corpus of pseudo-biomedical sentences together with
the matching gazetteer (every entity name is included) and an "English
dictionary" word list, so that the hard cases a real gazetteer runs into
exist here with controllable rates:

* ambiguity: a fraction of entity names are uppercase forms of dictionary
  words and also occur as plain (O-tagged) tokens, so exact search produces
  false positives unless those names are dictionary-filtered;
* short names: a fraction are 2-3 character acronyms that also occur as
  O-tagged tokens, countered by the minimum-length filter;
* hyphenation: a fraction of mentions are embedded in modifier compounds
  ("<Mod>-tagged-<NAME>"), reachable only by partial matching;
* distractors: O-tokens that share the surface shape of entity names, so
  a tagger cannot rely on shape alone and actually benefits from lexical
  knowledge injected by pins.

Mentions are optionally preceded by "trigger" context words, giving a
contextual signal that self-training can amplify to unseen names.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Dataset, EntitySpan, TagSet, bio_encode, sentence_from_texts
from .errors import SpecInvalid, WeaknerError, check_int
from .refset import ReferenceSet

_CONSONANTS = list("bcdfghjklmnprstvz")
_VOWELS = list("aeiou")
_UPPER = list("ABCDEFGHIJKLMNPQRSTUVWXYZ")
_DIGITS = list("123456789")

# per-context-token usage rates of the planted confusions
_AMBIGUOUS_O_RATE = 0.06
_SHORT_O_RATE = 0.03
_DISTRACTOR_RATE = 0.10
_TRIGGER_RATE = 0.7
_FINAL_PERIOD_RATE = 0.85
# the first _N_TRIGGERS context words are triggers; a sentence holds i
# mentions with probability _MENTION_WEIGHTS[i]
_N_TRIGGERS = 12
_MENTION_WEIGHTS = (0.2, 0.55, 0.25)


@dataclass(frozen=True)
class SyntheticSpec:
    """Size and difficulty knobs of the generated corpus.

    The sentence template is: 6-10 context tokens, 0-2 entity mentions
    inserted between them (weighted by _MENTION_WEIGHTS), an optional
    trailing period. ambiguity_rate / short_name_rate / multiword_name_rate
    are fractions of the entity vocabulary; hyphenation_rate is a fraction
    of mentions.
    """

    n_sentences: int = 2000
    n_entity_names: int = 300
    n_context_words: int = 400
    n_distractors: int = 60
    ambiguity_rate: float = 0.3
    hyphenation_rate: float = 0.2
    short_name_rate: float = 0.05
    multiword_name_rate: float = 0.05
    entity_type: str = "PROT"
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("ambiguity_rate", "hyphenation_rate", "short_name_rate",
                     "multiword_name_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise SpecInvalid(f"{name} must be in [0, 1], got {v}", field=name)
        # the generator draws distractors, and the context words hold the
        # triggers and at least one plain word
        for name, minimum in (("n_sentences", 1), ("n_entity_names", 1),
                              ("n_context_words", _N_TRIGGERS + 1), ("n_distractors", 1),
                              ("rng_seed", 0)):
            check_int(name, getattr(self, name), minimum, SpecInvalid)
        n_amb, _, _, n_plain = self.name_counts()
        if n_plain < 0:
            raise SpecInvalid("ambiguous, short and multiword names outnumber n_entity_names",
                              field=("ambiguity_rate", "short_name_rate", "multiword_name_rate",
                                     "n_entity_names"))
        if n_amb > self.n_context_words - _N_TRIGGERS:
            raise SpecInvalid("not enough context words to plant that much ambiguity",
                              field=("ambiguity_rate", "n_context_words"))
        try:
            TagSet((self.entity_type,))
        except WeaknerError as e:
            raise SpecInvalid(str(e), field="entity_type") from None

    def name_counts(self):
        """(ambiguous, short, multiword, plain) entity-name counts: each rate
        times n_entity_names, rounded, and the plain names the rest."""
        rates = (self.ambiguity_rate, self.short_name_rate, self.multiword_name_rate)
        counts = [round(rate * self.n_entity_names) for rate in rates]
        return (*counts, self.n_entity_names - sum(counts))


class _Vocab:
    __slots__ = ("context", "triggers", "names", "amb_surfaces", "short_surfaces",
                 "distractors", "modifiers")


def _pseudo_word(rng) -> str:
    n = int(rng.integers(2, 4))
    w = "".join(str(rng.choice(_CONSONANTS)) + str(rng.choice(_VOWELS)) for _ in range(n))
    if rng.random() < 0.4:
        w += str(rng.choice(_CONSONANTS))
    return w


def _upper_core(rng, lo: int, hi: int) -> str:
    return "".join(str(rng.choice(_UPPER)) for _ in range(int(rng.integers(lo, hi + 1))))


def _fresh(rng, used: set, maker) -> str:
    while True:
        w = maker(rng)
        if w.casefold() not in used:
            used.add(w.casefold())
            return w


def _build_vocab(spec: SyntheticSpec, rng) -> _Vocab:
    used = set()
    v = _Vocab()
    v.context = [_fresh(rng, used, _pseudo_word) for _ in range(spec.n_context_words)]
    v.triggers = v.context[:_N_TRIGGERS]

    n_amb, n_short, n_multi, n_plain = spec.name_counts()

    # ambiguous names: uppercase forms of (non-trigger) dictionary words
    amb_pool = v.context[_N_TRIGGERS:]
    amb_words = [amb_pool[i] for i in rng.choice(len(amb_pool), size=n_amb, replace=False)]
    amb_names = [w.upper() for w in amb_words]

    short_names = [_fresh(rng, used, lambda r: _upper_core(r, 2, 3)) for _ in range(n_short)]

    def plain_maker(r):
        core = _upper_core(r, 4, 6)
        if r.random() < 0.3:
            core += str(r.choice(_DIGITS))
        return core

    plain_names = [_fresh(rng, used, plain_maker) for _ in range(n_plain)]
    multi_names = [
        _fresh(rng, used, lambda r: _upper_core(r, 3, 5)) + " " + _fresh(rng, used, lambda r: _upper_core(r, 3, 5))
        for _ in range(n_multi)
    ]

    v.names = plain_names + amb_names + short_names + multi_names
    v.amb_surfaces = amb_names
    v.short_surfaces = short_names
    v.distractors = [_fresh(rng, used, lambda r: _upper_core(r, 3, 6)) for _ in range(spec.n_distractors)]
    v.modifiers = [_fresh(rng, used, _pseudo_word).capitalize() for _ in range(5)]
    return v


def _context_token(rng, v: _Vocab, ambiguous: bool) -> str:
    """One O-tagged token. Name-as-plain-word usages (the uppercase
    dictionary homographs and the short acronyms) only occur when the
    corpus has ambiguity planted at all."""
    r = rng.random()
    if ambiguous:
        if r < _AMBIGUOUS_O_RATE and v.amb_surfaces:
            return v.amb_surfaces[int(rng.integers(len(v.amb_surfaces)))]
        if r < _AMBIGUOUS_O_RATE + _SHORT_O_RATE and v.short_surfaces:
            return v.short_surfaces[int(rng.integers(len(v.short_surfaces)))]
    if r < _AMBIGUOUS_O_RATE + _SHORT_O_RATE + _DISTRACTOR_RATE:
        return v.distractors[int(rng.integers(len(v.distractors)))]
    return v.context[int(rng.integers(len(v.context)))]


def _mention_tokens(rng, v: _Vocab, spec: SyntheticSpec):
    name = v.names[int(rng.integers(len(v.names)))]
    toks = name.split(" ")
    if len(toks) == 1 and rng.random() < spec.hyphenation_rate:
        mod = v.modifiers[int(rng.integers(len(v.modifiers)))]
        if rng.random() < 0.5:
            toks = [f"{mod}-tagged-{name}"]
        else:
            toks = [f"{mod}-{name}"]
    return toks


def generate_synthetic(spec: SyntheticSpec):
    """Generate (gold dataset, reference set of ALL entity names, dictionary).

    The dictionary is the full context vocabulary (lowercase), so the
    lowercase form of every ambiguous name is in it. Deterministic given
    spec.rng_seed.
    """
    rng = np.random.default_rng(spec.rng_seed)
    v = _build_vocab(spec, rng)
    tags = TagSet((spec.entity_type,))

    sentences, labels = [], []
    mention_counts = np.arange(len(_MENTION_WEIGHTS))
    ambiguous = spec.ambiguity_rate > 0
    for _ in range(spec.n_sentences):
        n_mentions = int(rng.choice(mention_counts, p=_MENTION_WEIGHTS))
        cells = [
            ["ctx", _context_token(rng, v, ambiguous)]
            for _ in range(int(rng.integers(6, 11)))
        ]
        for _ in range(n_mentions):
            toks = _mention_tokens(rng, v, spec)
            at = int(rng.integers(len(cells) + 1))
            cells.insert(at, ["ent", toks])
        # trigger words right before mentions, where a context slot allows
        for j, cell in enumerate(cells):
            if cell[0] == "ent" and j > 0 and cells[j - 1][0] == "ctx":
                if rng.random() < _TRIGGER_RATE:
                    cells[j - 1][1] = v.triggers[int(rng.integers(len(v.triggers)))]
        if rng.random() < _FINAL_PERIOD_RATE:
            cells.append(["ctx", "."])

        texts, spans = [], []
        for kind, payload in cells:
            if kind == "ctx":
                texts.append(payload)
            else:
                first = len(texts)
                texts.extend(payload)
                spans.append(EntitySpan(0, first, len(texts) - 1, spec.entity_type))
        sentences.append(sentence_from_texts(texts))
        labels.append(bio_encode(spans, len(texts), tags))

    gold = Dataset(sentences, labels)
    refset = ReferenceSet(frozenset(v.names), spec.entity_type)
    dictionary = frozenset(v.context)
    return gold, refset, dictionary
