"""Softening sense counts with corpus-driven sense weights.

Information content comes from propagated occurrence frequencies.  For the
nouns of one document, each pair's most informative shared ancestor lends
its information content as support to the senses it covers, turning hard
sense counts into a per-sense distribution.
"""

from animacy import load_corpus, load_taxonomy
from animacy.data import mini_corpus_path, toy_taxonomy_path
from animacy.rules import noun_ratios, sense_table
from animacy.wsd import document_weights, information_content

taxonomy = load_taxonomy(toy_taxonomy_path())
docs = load_corpus(mini_corpus_path())

ic = information_content(docs, taxonomy)
print("information content (higher = more specific):")
for sid in ("n-person", "n-worker", "n-teacher", "n-artifact", "n-cat-animal"):
    print(f"  {sid:>14}: {ic.of(sid):.3f}")

# d1 talks about teachers, children and pets; see what that does to 'cat'
d1 = docs[0]
weights = document_weights(d1, taxonomy, ic)
print("\nsense weights for 'cat' in the pet-heavy document d1:")
for sid in taxonomy.senses("cat", "n"):
    print(f"  {sid:>14}: {weights.weight('cat', sid):.3f}")

senses = sense_table(taxonomy)
plain = noun_ratios("cat", senses)
weighted = noun_ratios("cat", senses, weighting=weights)
print(f"\nanimate fraction for 'cat': {plain.animate:.2f} unweighted, "
      f"{weighted.animate:.2f} with context weighting")
