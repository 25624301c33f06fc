"""The memory-based classifier: stored instances, gain-ratio weights and
nearest-distance voting, evaluated with seeded 10-fold cross-validation.
"""

from animacy import (
    baseline,
    build_store,
    cross_validate,
    enrich,
    load_corpus,
    load_taxonomy,
    score,
)
from animacy.corpus import Label
from animacy.data import mini_corpus_path, toy_taxonomy_path
from animacy.mbl import extract_features

taxonomy = load_taxonomy(toy_taxonomy_path())
docs = load_corpus(mini_corpus_path())
enriched = enrich(taxonomy, docs)
# each sense's resolved animacy, decided once and shared by every instance
senses = enriched.sense_table()

doc = docs[0]
fv = extract_features(doc.nps[0], doc, senses)
print("one instance:", fv)

store = build_store(docs, senses)
names = ("lemma", "animate senses", "inanimate senses",
         "verb animate", "verb inanimate", "pronoun ratio")
print("\ngain-ratio feature weights (training data only):")
for name, weight in zip(names, store.weights):
    print(f"  {name:>16}: {weight:.3f}")

report, _ = cross_validate(docs, senses, folds=10, seed=7)
animate = report.scores(Label.ANIMATE)
print(f"\n10-fold cross-validation: accuracy {report.accuracy:.3f}, "
      f"animate F {animate.f_measure:.3f}")

gold = [np.gold for d in docs for np in d.nps]
for mode, seed in (("dummy", None), ("random", 0), ("weighted", 0)):
    b = score(gold, baseline(mode, docs, seed=seed))
    f = b.scores(Label.ANIMATE).f_measure
    shown = "-" if f is None else f"{f:.3f}"
    print(f"  {mode:>8} baseline: accuracy {b.accuracy:.3f}, animate F {shown}")
