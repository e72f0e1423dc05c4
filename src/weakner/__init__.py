"""Weakly-supervised NER: train on a small labeled seed, weak-label a large
unlabeled corpus with gazetteer pins plus model predictions, and refine the
soft labels by iterative retraining.
"""

from .corpus import (
    Dataset,
    EntitySpan,
    Provenance,
    Sentence,
    SoftLabeling,
    TagSet,
    bio_decode,
    bio_encode,
    bio_repair,
    harden,
    read_conll,
    sentence_from_texts,
    split_seed,
    tokenize,
    write_conll,
)
from .refset import (
    MatchPolicy,
    RefMatch,
    ReferenceSet,
    audit_matcher,
    exact_policy,
    filter_names,
    filtered_policy,
    find_matches,
    load_dictionary,
    load_reference_set,
)
from .tagger import (
    FeatureExtractor,
    Objective,
    TaggerModel,
    TrainConfig,
    predict_dataset_hard,
    predict_dataset_soft,
    train,
)
from .bootstrap import (
    BootstrapConfig,
    finalize,
    iterative_train,
    relabel,
)
from .metrics import EvalReport, evaluate_model, score_datasets, score_entities
from .synthetic import SyntheticSpec, generate_synthetic
from .experiments import (
    Condition,
    GridConfig,
    default_conditions,
    format_grid_table,
    run_experiment_grid,
    write_grid_tsv,
)

__version__ = "0.1.0"
