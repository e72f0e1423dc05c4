"""The ablation grid: how much each augmentation source contributes.

E1/E2 train on all labels (upper bound), E3/E4 on one true entity per
sentence, E5/E6 add iterative refinement over perfect partial pins, and
E7/E8/E9 use gazetteer pins (exact vs filtered search, softmax vs CRF
output).

Run:  python demos/04_experiment_grid.py     (5-9 s on 2 cores)
"""

from weakner import (
    GridConfig,
    SyntheticSpec,
    TagSet,
    format_grid_table,
    generate_synthetic,
    run_experiment_grid,
)

spec = SyntheticSpec(n_sentences=600, rng_seed=7)
gold, refset, dictionary = generate_synthetic(spec)

cfg = GridConfig(
    seed_fraction=0.05,
    iterations=4,
    seed_epochs=10,
    round_epochs=2,
    full_epochs=5,
    final_epochs=5,
    rng_seed=7,
)
rows = run_experiment_grid(gold, TagSet(("PROT",)), refset, dictionary, cfg=cfg)
print(format_grid_table(rows))
print()
print("reading the table: on every seed row, 'seed' columns score the soft")
print("output of the model trained on the small seed alone. 'aug' columns score")
print("the row's final model: the bootstrapped model's soft output on softmax")
print("rows, the Viterbi output of the CRF-style retrain on crf rows. The filtered")
print("policy (c2) keeps matcher precision high, which is what lets the")
print("pinned bootstrap close most of the gap to full supervision (E1).")
