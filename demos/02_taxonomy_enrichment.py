"""How corpus annotations become per-synset animacy statuses.

Every sense-annotated occurrence counts toward its synset and all of its
ancestors.  Unanimous nodes are decided outright; mixed nodes get two
goodness-of-fit tests (is this subtree consistent with all-animate? with
all-inanimate?), both read from one table of the observed hyponyms in
which low-frequency sibling senses are merged first.
"""

from animacy import accumulate_counts, enrich, load_corpus, load_taxonomy
from animacy.enrichment import Status, chi2_critical, chi_square
from animacy.data import mini_corpus_path, toy_taxonomy_path

taxonomy = load_taxonomy(toy_taxonomy_path())
docs = load_corpus(mini_corpus_path())

counts, skipped = accumulate_counts(docs, taxonomy)
print(f"accumulated counts for {len(counts.observed_ids())} synsets "
      f"({len(skipped)} records skipped)")

print("\nAggregated counts high in the noun hierarchy:")
for sid in ("n-person", "n-animal", "n-artifact", "n-device"):
    print(f"  {sid:>12}: animate {counts.animate(sid):2d}, "
          f"inanimate {counts.inanimate(sid):2d}")

print("\nThe n-artifact table under the all-inanimate hypothesis:")
children = [
    (child, counts.animate(child), counts.inanimate(child))
    for child in taxonomy.hyponyms("n-artifact")
    if counts.total(child) > 0
]
for child, ani, inani in children:
    print(f"  {child:>12}: observed {inani:2d}, expected {ani + inani:2d}")
result = chi_square(children)  # both hypotheses' statistics from one merged table
statistic, critical = result.inanimate_statistic, chi2_critical(result.df)
print(f"  statistic {statistic:.3f} vs critical {critical:.3f} "
      f"(df {result.df}) -> {'passes' if statistic < critical else 'fails'}")

enriched = enrich(taxonomy, docs)
print(f"\ncoverage: {enriched.coverage():.2%} of synsets decided")
print("undecided synsets:",
      ", ".join(sid for sid in taxonomy if enriched.status(sid) is Status.UNDECIDED))
