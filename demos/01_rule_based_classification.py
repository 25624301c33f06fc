"""Walk through the rule-based classifier on the bundled toy data.

The classifier looks at every sense of a head noun, asks which unique
beginners (top-level taxonomy roots) they fall under, and compares the
animate fraction against fixed thresholds, with the governing verb and a
couple of context flags as tie-breakers.
"""

from animacy import load_corpus, load_taxonomy, score
from animacy.corpus import Label
from animacy.data import mini_corpus_path, toy_taxonomy_path
from animacy.rules import classify_np, compute_ratios, noun_ratios, sense_table, verb_ratios

taxonomy = load_taxonomy(toy_taxonomy_path())
docs = load_corpus(mini_corpus_path())
# each sense's beginner class, decided once and shared by every lookup
senses = sense_table(taxonomy)
print(taxonomy)

print("\nSense fractions for some polysemous lemmas:")
for lemma in ("cat", "mouse", "head", "teacher", "gizmo"):
    animate, inanimate, total = noun_ratios(lemma, senses)
    print(f"  {lemma:>8}: {total} senses, animate fraction {animate:.2f}")

print("\nVerb evidence works the same way over subject NPs:")
for verb in ("speak", "run", "address", "contain"):
    animate, _, total = verb_ratios(verb, senses)
    print(f"  {verb:>8}: {total} senses, animate fraction {animate:.2f}")

print("\nClassifying every NP of the mini corpus:")
gold, predicted = [], []
for doc in docs:
    for np in doc.nps:
        label = classify_np(np, senses)
        gold.append(np.gold)
        predicted.append(label)
        if doc.doc_id == "d1" and np.sent_id <= 1:
            r = compute_ratios(np, senses)
            print(f"  {np.surface!r}: noun animacy {r.noun_animacy:.2f}, "
                  f"verb animacy {r.verb_animacy:.2f} -> {label.name}")

report = score(gold, predicted)
animate = report.scores(Label.ANIMATE)
print(f"\naccuracy {report.accuracy:.3f}, "
      f"animate precision {animate.precision and round(animate.precision, 3)}, "
      f"animate recall {animate.recall and round(animate.recall, 3)}, "
      f"{report.unknown_predictions} NPs out of vocabulary")
