"""Animacy classification for noun phrases.

Two classifiers over a WordNet-style taxonomy (a rule cascade on
unique-beginner sense counts and a memory-based learner over a taxonomy
enriched with per-synset animacy), optional information-content sense
weighting, intrinsic scoring, and an extrinsic pronoun-resolution harness
with a controlled-error precision/recall sweep.  The package root exports
the entry points that the demos, the README and the benchmark's loader
timing use; everything else is imported from its own module.
"""

from .corpus import load_corpus
from .enrichment import accumulate_counts, enrich, load_enriched
from .evaluation import baseline, score
from .mbl import build_store, cross_validate
from .resolution import run_harness
from .taxonomy import load_taxonomy

__version__ = "0.1.0"
