"""Shape statistics and repetition shares of the generated inputs.

Usage: python3 benchmarks/stats.py --seed 1

Prints one JSON object: the generator's shape statistics on the paper
corpus, and the input properties that caching optimizations would rely
on (README.md quotes them):

* wsd_repeated_pair_share: of the (document, lemma pair) occurrences that
  IC sense weighting scores (distinct in-vocabulary head pairs of one
  document), the share whose pair already occurred in an earlier
  document;
* ml_repeated_sense_share: of the paper corpus's resolvable sense-key
  occurrences, the share whose sense already occurred earlier;
* ml_repeated_lemma_share: the same for the head lemmas that feature
  extraction resolves.
"""

from __future__ import annotations

import argparse
import itertools
import json

import synth
import workloads


def repeated_pair_share(tax: synth.SynthTaxonomy, docs) -> tuple[float, int]:
    seen: set[tuple[str, str]] = set()
    total = repeated = 0
    for doc in docs:
        lemmas = sorted({x.head for x in doc.nps if x.head in tax.senses["n"]})
        for pair in itertools.combinations(lemmas, 2):
            total += 1
            repeated += pair in seen
            seen.add(pair)
    return repeated / total, total


def repeated_share(values) -> float:
    seen = set()
    repeated = 0
    values = list(values)
    for v in values:
        repeated += v in seen
        seen.add(v)
    return repeated / len(values)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    tax = synth.make_taxonomy(args.seed)
    paper = synth.make_corpus(tax, args.seed, "p", *workloads.PAPER)
    wsd = synth.make_corpus(tax, args.seed, "w", *workloads.WSD_NPS, nps_per_doc=25)
    pair_share, pairs = repeated_pair_share(tax, wsd)
    nps = synth.labelled_nps(paper)
    out = synth.shape_stats(tax, paper)
    out.update({
        "wsd_documents": len(wsd),
        "wsd_lemma_pairs": pairs,
        "wsd_repeated_pair_share": pair_share,
        "ml_repeated_sense_share": repeated_share(
            x.sense_idx for x in nps if x.sense_idx is not None),
        "ml_repeated_lemma_share": repeated_share(
            x.head for x in nps if x.head in tax.senses["n"]),
    })
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
