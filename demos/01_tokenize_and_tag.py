"""Tokenization, BIO labels, and the two prediction modes of the tagger.

Run:  python demos/01_tokenize_and_tag.py
"""

import numpy as np

from weakner import (
    Dataset,
    TagSet,
    TrainConfig,
    bio_decode,
    harden,
    tokenize,
    train,
)

# -- tokenize some text ------------------------------------------------------
# Punctuation splits off, but hyphen/slash compounds stay whole, so a
# compound like "Flag-tagged-TIGAR" remains one matchable token.
for text in ["p53 binds MDM2.", "The (Flag-tagged-TIGAR) construct works."]:
    sent = tokenize(text)
    print(f"{text!r:45} -> {sent.texts()}")

# -- a tiny labeled dataset --------------------------------------------------
tags = TagSet(("PROT",))
print("\ntag inventory:", tags.tags)

sentences = [
    tokenize("p53 binds MDM2."),
    tokenize("TIGAR suppresses glycolysis."),
    tokenize("the assay ran overnight."),
    tokenize("MDM2 degrades p53."),
]
labels = [
    [1, 0, 1, 0],      # B-PROT O B-PROT O
    [1, 0, 0, 0],
    [0, 0, 0, 0, 0],
    [1, 0, 1, 0],
]
data = Dataset(sentences, labels)

model = train(data, tags, TrainConfig(epochs=20, learning_rate=0.3, rng_seed=0))

# -- soft mode: per-token posterior marginals --------------------------------
probe = tokenize("MDM2 binds TIGAR.")
soft = model.predict_soft([probe])[0]
print(f"\nmarginals for {probe.texts()}:")
with np.printoptions(precision=3, suppress=True):
    for tok, row in zip(probe.tokens, soft.dist):
        print(f"  {tok:8} {row}")

# -- hard mode: Viterbi decoding ---------------------------------------------
hard = model.predict_hard([probe])[0]
print("\nViterbi tags:", [tags.tags[t] for t in hard])
print("entity spans:", bio_decode(hard, tags))

# argmax of the marginals (with BIO repair) usually agrees on easy inputs
print("argmax(soft):", [tags.tags[t] for t in harden(soft, tags)])
