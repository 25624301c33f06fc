"""Extrinsic view: how animacy labels help a pronoun resolver.

Candidates that disagree with the pronoun's animacy are dropped before a
deliberately simple recency resolver picks the closest survivor.  Good
labels remove distractors without removing true antecedents.
"""

from animacy import load_corpus, load_taxonomy, run_harness
from animacy.corpus import Label
from animacy.data import mini_corpus_path, toy_taxonomy_path
from animacy.resolution import gold_assignment
from animacy.rules import classify_np, sense_table

taxonomy = load_taxonomy(toy_taxonomy_path())
docs = load_corpus(mini_corpus_path())

def show(name, result):
    print(f"  {name:>12}: success {result.success_rate:.2%}, "
          f"candidates/pronoun {result.avg_candidates:.2f}, "
          f"no antecedent left {result.pct_no_antecedent:.2%}")

print(f"{sum(len(d.pronouns) for d in docs)} pronouns across {len(docs)} documents\n")

show("no filter", run_harness(docs, {}))  # everything survives as UNKNOWN
show("gold labels", run_harness(docs, gold_assignment(docs)))

senses = sense_table(taxonomy)
rule_labels = {
    np.key: classify_np(np, senses) for d in docs for np in d.nps
}
show("rule labels", run_harness(docs, rule_labels))

dummy = {np.key: Label.INANIMATE for d in docs for np in d.nps}
show("all-inanimate", run_harness(docs, dummy))
print("\nthe all-inanimate filter strands every animate pronoun, which is"
      "\nwhy plain accuracy alone says little about filtering quality")
