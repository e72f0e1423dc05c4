"""Gazetteer search policies: why naive exact lookup is dangerous and how
dictionary + length filtering with case-insensitive partial search fixes it.

Run:  python demos/02_gazetteer_matching.py
"""

from weakner import (
    Dataset,
    MatchPolicy,
    ReferenceSet,
    TagSet,
    audit_matcher,
    exact_policy,
    filter_names,
    filtered_policy,
    find_matches,
    generate_synthetic,
    SyntheticSpec,
    tokenize,
)

tags = TagSet(("PROT",))

# -- the two classic failure cases on a toy example ---------------------------
# ANOVA is a real protein name AND an everyday word; TIGAR mentions often
# hide inside compounds.
refset = ReferenceSet(frozenset({"ANOVA", "TIGAR", "p53"}), "PROT")
sents = [
    tokenize("we ran ANOVA on the assay"),          # statistical usage: not an entity
    tokenize("the Flag-tagged-TIGAR construct"),    # embedded mention
    tokenize("p53 binds TIGAR today"),
]
corpus = Dataset(list(sents), [None] * len(sents))

print("exact case-sensitive search:")
for m in find_matches(corpus, refset, exact_policy()):
    print(f"  sentence {m.sentence}, tokens [{m.first},{m.last}]: {m.name}")
print("  -> hits the spurious ANOVA, misses the embedded TIGAR\n")

dictionary = frozenset({"anova", "we", "ran", "on", "the", "assay", "binds", "today"})
policy = filtered_policy(dictionary, min_name_length=4)
print(f"filtered names (dictionary + length>=4): {sorted(filter_names(refset, policy).names)}")
print("filtered, case-insensitive, partial search:")
for m in find_matches(corpus, refset, policy):
    print(f"  sentence {m.sentence}, tokens [{m.first},{m.last}]: {m.name}")
print("  -> no false positive, and the compound is matched\n")

# -- measured on a corpus with planted ambiguity ------------------------------
spec = SyntheticSpec(n_sentences=400, ambiguity_rate=0.3, hyphenation_rate=0.2, rng_seed=0)
gold, refset, dictionary = generate_synthetic(spec)

m_exact = find_matches(gold, refset, exact_policy())
p, r = audit_matcher(m_exact, gold, tags)
print(f"exact search      : P={100 * p:5.2f} R={100 * r:5.2f}  ({len(m_exact)} matches)")

policy = filtered_policy(dictionary, 4)
m_filt = find_matches(gold, refset, policy)
p, r = audit_matcher(m_filt, gold, tags)
print(f"filtered + partial: P={100 * p:5.2f} R={100 * r:5.2f}  ({len(m_filt)} matches)")
print("\nfiltering trades recall on ambiguous names for near-perfect precision,")
print("which is what makes the matches usable as training pins.")
