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

# two count columns, animate and inanimate, in taxonomy order
(animate, inanimate), skipped = accumulate_counts(docs, taxonomy)
position = {sid: i for i, sid in enumerate(taxonomy)}
print(f"accumulated counts for {int((animate + inanimate > 0).sum())} synsets "
      f"({len(skipped)} records skipped)")

print("\nAggregated counts high in the noun hierarchy:")
for sid in ("n-person", "n-animal", "n-artifact", "n-device"):
    i = position[sid]
    print(f"  {sid:>12}: animate {animate[i]:2d}, inanimate {inanimate[i]:2d}")

print("\nThe n-artifact table under the all-inanimate hypothesis:")
children = []
for child in taxonomy.hyponyms("n-artifact"):
    i = position[child]
    if animate[i] + inanimate[i] > 0:
        children.append((child, int(animate[i]), int(inanimate[i])))
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
