"""Animacy classification for noun phrases.

Two classifiers over a WordNet-style taxonomy (a rule cascade on
unique-beginner sense counts and a memory-based learner over a taxonomy
enriched with per-synset animacy), optional information-content sense
weighting, intrinsic scoring, and an extrinsic pronoun-resolution harness
with a controlled-error precision/recall sweep.
"""

from .corpus import (
    CorpusError,
    Document,
    Label,
    NPRecord,
    PronounRecord,
    dump_corpus,
    load_corpus,
    pronoun_ratio,
    save_corpus,
)
from .enrichment import (
    EnrichedTaxonomy,
    Status,
    SynsetCounts,
    accumulate_counts,
    chi2_critical,
    chi_square,
    classify_node,
    enrich,
    load_enriched,
    merge_low_frequency,
    save_enriched,
)
from .evaluation import EvalReport, baseline, kappa, score
from .mbl import (
    FeatureVector,
    InstanceStore,
    MblConfig,
    build_store,
    cross_validate,
    extract_features,
    gain_ratio_weights,
    knn_classify,
)
from .resolution import (
    InfeasibleTargetError,
    candidate_set,
    filter_candidates,
    inject_errors,
    resolve_recency,
    run_harness,
    sweep,
)
from .rules import AnimacyRatios, Thresholds, classify_np, classify_rule, compute_ratios, noun_ratios, verb_ratios
from .taxonomy import (
    BeginnerClass,
    Synset,
    Taxonomy,
    TaxonomyError,
    dump_taxonomy,
    load_taxonomy,
    save_taxonomy,
)
from .wsd import (
    ICTable,
    SenseWeighting,
    disambiguation_weights,
    document_weights,
    information_content,
)

__version__ = "0.1.0"
