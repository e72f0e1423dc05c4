"""The full weakly-supervised loop: seed training, gazetteer pins, iterative
soft-label refinement, and the final sequence-mode retrain.

Run:  python demos/03_bootstrap_loop.py      (about 5 s on 2 cores)
"""

from weakner import (
    BootstrapConfig,
    SyntheticSpec,
    TagSet,
    evaluate_model,
    filtered_policy,
    finalize,
    find_matches,
    generate_synthetic,
    iterative_train,
    split_seed,
)

tags = TagSet(("PROT",))

# -- data: a fully labeled corpus we artificially impoverish -------------------
spec = SyntheticSpec(n_sentences=800, rng_seed=0)
gold, refset, dictionary = generate_synthetic(spec)
train_gold, _, test = split_seed(gold, 0.8, rng_seed=0)
seed, corpus, corpus_gold = split_seed(train_gold, 0.05, rng_seed=1)
print(f"{len(seed)} labeled seed sentences, {len(corpus)} unlabeled, {len(test)} test")

# -- high-precision pins from the filtered gazetteer ---------------------------
policy = filtered_policy(dictionary)
pins = find_matches(corpus, refset, policy)
print(f"{len(pins)} pinned mentions in the corpus\n")

# -- the iterative loop --------------------------------------------------------
# one SGD schedule for every training call; the small seed gets more epochs
cfg = BootstrapConfig(iterations=6, seed_epochs=12, round_epochs=3, final_epochs=6,
                      learning_rate=0.25, decay=0.08, l2=1e-4, rng_seed=0)
model, trace = iterative_train(seed, corpus, tags, cfg, pins=pins, heldout=test)

print("iter  pinned  mean-entropy   held-out")
for row in trace:
    ent = f"{row.mean_entropy:.3f}" if row.iteration else "  -  "
    print(f"{row.iteration:4d}  {row.pinned_tokens:6d}  {ent:>12}   {row.report}")

# -- finishing step: relabel, retrain a CRF-mode model on the hardened labels --
final = finalize(model, seed, corpus, cfg, pins=pins)
print("\nsoft-output model :", evaluate_model(model, test, mode="soft"))
print("final CRF model   :", evaluate_model(final, test, mode="hard"))
print("\nthe jump from iteration 0 to 1 is the pins + predictions kicking in;")
print("later rounds refine the predicted part of the labels.")
