"""Seeded, WordNet-3.0-shaped synthetic inputs for the benchmark.

Everything here is a pure function of the seed.  The program under test
only ever sees the files that `write_*` produce; the in-memory structures
(parent map, planted labels, lemma ranks) are the ground truth the
benchmark's own checks work from.

Shape targets (WordNet 3.0, checked by `shape_stats` and the tests):

* 82,115 noun and 13,767 verb synsets, split over the lexicographer files
  in WordNet's own proportions, one unique beginner per noun lexfile and
  a few dozen verb roots per verb lexfile;
* hypernym depth at most 17 edges (18 levels) for nouns, 11 for verbs;
* about 2% of synsets with a second hypernym;
* Zipfian head frequency, with polysemy falling with frequency rank from
  30 senses at rank 1 to 1 sense in the long tail;
* about 40% of NPs are subjects with a governing verb;
* every pronoun's antecedent lies within its own sentence or the two
  before it (the default candidate window);
* about 1.5% out-of-vocabulary heads and 0.5% sense keys absent from the
  taxonomy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

# WordNet 3.0 synset counts per lexicographer file.
NOUN_LEXFILES = {
    3: 51, 4: 6650, 5: 7510, 6: 11587, 7: 3039, 8: 2016, 9: 2952, 10: 5607,
    11: 1074, 12: 428, 13: 2573, 14: 2624, 15: 3209, 16: 42, 17: 1545,
    18: 11088, 19: 641, 20: 8156, 21: 1061, 22: 770, 23: 1274, 24: 437,
    25: 344, 26: 3544, 27: 2983, 28: 1127,
}
VERB_LEXFILES = {
    29: 557, 30: 2380, 31: 696, 32: 1548, 33: 459, 34: 251, 35: 2194,
    36: 700, 37: 343, 38: 1410, 39: 461, 40: 848, 41: 1116, 42: 756, 43: 48,
}
# The program's default unique-beginner classes (animacy.taxonomy).
ANIMATE_NOUN_LEXFILES = frozenset({5, 18, 24})
ANIMATE_VERB_LEXFILES = frozenset({31, 32, 37, 41})

NOUN_MAX_DEPTH = 17
VERB_MAX_DEPTH = 11
VERB_ROOT_SHARE = 0.04
MULTI_PARENT_SHARE = 0.02
MAX_POLYSEMY = 30
# Sense slots per synset: WordNet 3.0 has 146,312 noun and 25,047 verb
# word-sense pairs.
NOUN_SLOTS_PER_SYNSET = 1.78
VERB_SLOTS_PER_SYNSET = 1.82
NOUN_POLYSEMY_DECAY = 0.42
VERB_POLYSEMY_DECAY = 0.36

ANIMATE_SHARE_PAPER = (2321, 17380)  # labelled A / I of the paper corpus
SUBJECT_WITH_VERB = 0.40
SUBJECT_WITHOUT_VERB = 0.05
OOV_HEAD_SHARE = 0.015
ABSENT_SENSE_SHARE = 0.005
LABEL_NOISE = 0.01
# P(k-th listed sense of a lemma) is proportional to k**-SENSE_DECAY, so
# the first sense takes about 80% of a polysemous lemma's occurrences.
SENSE_DECAY = 3.0
WINDOW = 2


@dataclass
class SynthTaxonomy:
    ids: list[str] = field(default_factory=list)
    pos: list[str] = field(default_factory=list)
    lexfile: list[int] = field(default_factory=list)
    parents: list[tuple[int, ...]] = field(default_factory=list)
    depth: list[int] = field(default_factory=list)
    lemmas: list[list[str]] = field(default_factory=list)
    # lemma -> synset indices in file order, per pos
    senses: dict[str, dict[str, list[int]]] = field(default_factory=dict)
    # lemma -> frequency rank (1 = most frequent), per pos
    rank: dict[str, dict[str, int]] = field(default_factory=dict)

    def animate(self, idx: int) -> bool:
        """Planted animacy: the unique-beginner class of the synset."""
        lex = self.lexfile[idx]
        if self.pos[idx] == "n":
            return lex in ANIMATE_NOUN_LEXFILES
        return lex in ANIMATE_VERB_LEXFILES


@dataclass
class SynthNP:
    doc: str
    sent: int
    np: int
    head: str
    subject: bool
    verb: str | None
    who: bool
    refl: bool
    gold: str  # "A" or "I"
    sense: str | None
    sense_idx: int | None  # None for OOV heads and absent sense keys


@dataclass
class SynthPronoun:
    doc: str
    sent: int
    animate: bool
    antecedent: tuple[int, int] | None


@dataclass
class SynthDoc:
    doc_id: str
    nps: list[SynthNP]
    pronouns: list[SynthPronoun]

    @property
    def pronoun_counts(self) -> tuple[int, int]:
        animate = sum(1 for p in self.pronouns if p.animate)
        return animate, len(self.pronouns) - animate


# --- taxonomy ---------------------------------------------------------------


def _grow(rng: random.Random, tax: SynthTaxonomy, pos: str,
          lexfiles: dict[int, int], max_depth: int, root_share: float) -> None:
    """Random recursive trees, one per lexfile, depth-capped, plus a second
    hypernym for a small share of nodes (always an earlier node, so the
    graph stays acyclic)."""
    for lex, count in lexfiles.items():
        roots = max(1, int(count * root_share))
        local: list[int] = []
        for i in range(count):
            idx = len(tax.ids)
            tax.ids.append(f"{pos}{idx:08d}")
            tax.pos.append(pos)
            tax.lexfile.append(lex)
            tax.lemmas.append([])
            if i < roots:
                tax.parents.append(())
                tax.depth.append(0)
                local.append(idx)
                continue
            parent = local[rng.randrange(i)]
            while tax.depth[parent] >= max_depth:
                parent = tax.parents[parent][0]
            parents = [parent]
            if rng.random() < MULTI_PARENT_SHARE:
                pool = local if rng.random() < 0.8 else None
                for _ in range(8):
                    if pool is not None:
                        other = pool[rng.randrange(i)]
                    else:
                        other = rng.randrange(idx)
                        if tax.pos[other] != pos:
                            continue
                    if other != parent and tax.depth[other] < max_depth:
                        parents.append(other)
                        break
            tax.parents.append(tuple(parents))
            tax.depth.append(1 + max(tax.depth[p] for p in parents))
            local.append(idx)


def _polysemy(rank: int, decay: float) -> int:
    return min(MAX_POLYSEMY, round(1 + (MAX_POLYSEMY - 1) * rank ** -decay))


def _assign_lemmas(rng: random.Random, tax: SynthTaxonomy, pos: str,
                   slots_per_synset: float, decay: float) -> None:
    members = [i for i, p in enumerate(tax.pos) if p == pos]
    target = int(len(members) * slots_per_synset)
    slots: list[int] = []
    rank = 0
    while len(slots) < target:
        rank += 1
        slots.extend([rank] * _polysemy(rank, decay))
    rng.shuffle(slots)
    owners = list(members)
    # every synset gets one lemma; the remaining slots land anywhere
    owners.extend(rng.choice(members) for _ in range(len(slots) - len(members)))
    for owner, r in zip(owners, slots):
        lemma = f"{pos}w{r}"
        if lemma not in tax.lemmas[owner]:
            tax.lemmas[owner].append(lemma)
    senses: dict[str, list[int]] = {}
    for idx in members:
        for lemma in tax.lemmas[idx]:
            senses.setdefault(lemma, []).append(idx)
    tax.senses[pos] = senses
    tax.rank[pos] = {lemma: int(lemma[2:]) for lemma in senses}


def make_taxonomy(seed: int) -> SynthTaxonomy:
    rng = random.Random(f"taxonomy-{seed}")
    tax = SynthTaxonomy()
    _grow(rng, tax, "n", NOUN_LEXFILES, NOUN_MAX_DEPTH, 0.0)
    _grow(rng, tax, "v", VERB_LEXFILES, VERB_MAX_DEPTH, VERB_ROOT_SHARE)
    _assign_lemmas(rng, tax, "n", NOUN_SLOTS_PER_SYNSET, NOUN_POLYSEMY_DECAY)
    _assign_lemmas(rng, tax, "v", VERB_SLOTS_PER_SYNSET, VERB_POLYSEMY_DECAY)
    return tax


def write_taxonomy(tax: SynthTaxonomy, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# synthetic WordNet-3.0-shaped taxonomy\n")
        for idx, sid in enumerate(tax.ids):
            handle.write("SYNSET\t%s\t%s\t%d\t%s\t%s\n" % (
                sid, tax.pos[idx], tax.lexfile[idx], ",".join(tax.lemmas[idx]),
                ",".join(tax.ids[p] for p in tax.parents[idx]),
            ))


# --- corpora ----------------------------------------------------------------


class _LemmaSampler:
    """Zipfian lemma draws (weight falls with frequency rank), then a sense
    of the lemma with the first-listed sense dominant, as in sense-tagged
    text."""

    def __init__(self, tax: SynthTaxonomy, pos: str, only_animate: bool = False):
        self.tax = tax
        self.pos = pos
        lemmas = []
        weights = []
        for lemma, idxs in tax.senses[pos].items():
            if only_animate and not any(tax.animate(i) for i in idxs):
                continue
            lemmas.append(lemma)
            weights.append((tax.rank[pos][lemma] + 2) ** -1.05)
        self.lemmas = lemmas
        self.cumulative = np.cumsum(weights)
        self.only_animate = only_animate

    def draw(self, nprng: np.random.Generator, n: int) -> list[tuple[str, int]]:
        points = nprng.random(n) * self.cumulative[-1]
        out = []
        for i, u in zip(np.searchsorted(self.cumulative, points, side="right"),
                        nprng.random(n)):
            lemma = self.lemmas[int(i)]
            idxs = self.tax.senses[self.pos][lemma]
            if self.only_animate:
                idxs = [x for x in idxs if self.tax.animate(x)]
            w = [(k + 1) ** -SENSE_DECAY for k in range(len(idxs))]
            target = u * sum(w)
            k = 0
            while k < len(idxs) - 1 and target >= w[k]:
                target -= w[k]
                k += 1
            out.append((lemma, idxs[k]))
        return out


def _class_pools(tax: SynthTaxonomy, nprng: np.random.Generator, rng: random.Random,
                 n_animate: int, n_inanimate: int) -> dict[str, list[tuple[str, int]]]:
    """Noun draws split by planted label (the sense's class, flipped with
    probability LABEL_NOISE), drawn until each class has enough."""
    sampler = _LemmaSampler(tax, "n")
    pools: dict[str, list[tuple[str, int]]] = {"A": [], "I": []}
    while len(pools["A"]) < n_animate or len(pools["I"]) < n_inanimate:
        for lemma, idx in sampler.draw(nprng, 4 * (n_animate + n_inanimate) + 1000):
            label = tax.animate(idx) != (rng.random() < LABEL_NOISE)
            pools["A" if label else "I"].append((lemma, idx))
    pools["A"] = pools["A"][:n_animate]
    pools["I"] = pools["I"][:n_inanimate]
    return pools


def make_corpus(tax: SynthTaxonomy, seed: int, name: str, n_animate: int,
                n_inanimate: int, nps_per_doc: int = 40,
                pronoun_rate: float = 0.6) -> list[SynthDoc]:
    """Labelled documents with exactly `n_animate` + `n_inanimate` NPs.

    Gold labels are planted in exact numbers and in random order; each NP
    takes the next noun draw of its class from `_class_pools`.
    """
    rng = random.Random(f"{name}-{seed}")
    nprng = np.random.default_rng(rng.getrandbits(64))
    gold = ["A"] * n_animate + ["I"] * n_inanimate
    rng.shuffle(gold)
    n = len(gold)

    pools = _class_pools(tax, nprng, rng, n_animate, n_inanimate)
    draws = {label: iter(pool) for label, pool in pools.items()}
    verb_draws = iter(_LemmaSampler(tax, "v").draw(nprng, n))
    animate_verb_draws = iter(_LemmaSampler(tax, "v", only_animate=True).draw(nprng, n))
    max_id = len(tax.ids)

    docs: list[SynthDoc] = []
    pos = 0
    oov = 0
    while pos < n:
        doc_id = f"{name}{len(docs):05d}"
        size = min(n - pos, max(5, int(rng.gauss(nps_per_doc, nps_per_doc / 4))))
        nps: list[SynthNP] = []
        sent = 0
        while len(nps) < size:
            for k in range(min(size - len(nps), rng.randint(1, 5))):
                g = gold[pos]
                lemma, idx = next(draws[g])
                sense = tax.ids[idx]
                sense_idx: int | None = idx
                roll = rng.random()
                if roll < OOV_HEAD_SHARE:
                    oov += 1
                    lemma, sense, sense_idx = f"oov{oov}", None, None
                elif roll < OOV_HEAD_SHARE + ABSENT_SENSE_SHARE:
                    sense, sense_idx = f"n{max_id + rng.randrange(10**6):08d}", None
                roll = rng.random()
                subject = roll < SUBJECT_WITH_VERB + SUBJECT_WITHOUT_VERB
                verb = None
                if roll < SUBJECT_WITH_VERB:
                    use_animate = g == "A" and rng.random() < 0.5
                    verb = next(animate_verb_draws if use_animate else verb_draws)[0]
                who = rng.random() < (0.03 if g == "A" else 0.002)
                refl = rng.random() < (0.01 if g == "A" else 0.001)
                nps.append(SynthNP(doc_id, sent, k, lemma, subject, verb, who,
                                   refl, g, sense, sense_idx))
                pos += 1
            sent += 1
        pronouns = []
        for s in range(sent):
            if rng.random() >= pronoun_rate:
                continue
            if rng.random() < 0.02:
                pronouns.append(SynthPronoun(doc_id, s, rng.random() < 0.5, None))
                continue
            window = [x for x in nps if s - WINDOW <= x.sent <= s]
            weights = [4 if x.gold == "A" else 1 for x in window]
            ante = rng.choices(window, weights)[0]
            pronouns.append(SynthPronoun(doc_id, s, ante.gold == "A", (ante.sent, ante.np)))
        docs.append(SynthDoc(doc_id, nps, pronouns))
    return docs


def write_corpus(docs: list[SynthDoc], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for doc in docs:
            animate, inanimate = doc.pronoun_counts
            handle.write(f"DOC\t{doc.doc_id}\t{animate}\t{inanimate}\n")
            for x in doc.nps:
                handle.write("NP\t%s\t%d\t%d\t%s\t%d\t%s\t%d\t%d\t%s\t%s\tthe %s\n" % (
                    x.doc, x.sent, x.np, x.head, int(x.subject), x.verb or "-",
                    int(x.who), int(x.refl), x.gold,
                    x.sense or "-", x.head,
                ))
            for p in doc.pronouns:
                ante = p.antecedent
                handle.write("PRON\t%s\t%d\t%s\t%d\t%s\t%s\n" % (
                    p.doc, p.sent, "he" if p.animate else "it", int(p.animate),
                    ante[0] if ante else "-", ante[1] if ante else "-",
                ))


def labelled_nps(docs: list[SynthDoc]) -> list[SynthNP]:
    return [x for doc in docs for x in doc.nps]


# --- shape statistics -------------------------------------------------------


def shape_stats(tax: SynthTaxonomy, docs: list[SynthDoc]) -> dict:
    """The properties the generator promises, measured on its output."""
    nouns = [i for i, p in enumerate(tax.pos) if p == "n"]
    verbs = [i for i, p in enumerate(tax.pos) if p == "v"]
    nps = labelled_nps(docs)
    poly = {lemma: len(idxs) for lemma, idxs in tax.senses["n"].items()}
    head_freq: dict[str, int] = {}
    for x in nps:
        head_freq[x.head] = head_freq.get(x.head, 0) + 1
    known = sorted((h for h in head_freq if h in poly), key=lambda h: -head_freq[h])
    top = known[:50]
    prons = [p for doc in docs for p in doc.pronouns]
    lexmix: dict[int, int] = {}
    for i in nouns:
        lexmix[tax.lexfile[i]] = lexmix.get(tax.lexfile[i], 0) + 1
    return {
        "noun_synsets": len(nouns),
        "verb_synsets": len(verbs),
        "noun_max_depth": max(tax.depth[i] for i in nouns),
        "verb_max_depth": max(tax.depth[i] for i in verbs),
        "noun_mean_depth": sum(tax.depth[i] for i in nouns) / len(nouns),
        "multi_parent_share": sum(1 for p in tax.parents if len(p) > 1) / len(tax.ids),
        "noun_lemmas": len(poly),
        "noun_senses_per_lemma": sum(poly.values()) / len(poly),
        "max_polysemy": max(poly.values()),
        "polysemous_lemma_share": sum(1 for v in poly.values() if v > 1) / len(poly),
        "person_share": lexmix.get(18, 0) / len(nouns),
        "artifact_share": lexmix.get(6, 0) / len(nouns),
        "top50_heads_mean_polysemy": sum(poly[h] for h in top) / max(1, len(top)),
        "all_heads_mean_polysemy": sum(poly.get(x.head, 0) for x in nps) / len(nps),
        "labelled_nps": len(nps),
        "animate_nps": sum(1 for x in nps if x.gold == "A"),
        "documents": len(docs),
        "subject_with_verb_share": sum(1 for x in nps if x.verb) / len(nps),
        "oov_head_share": sum(1 for x in nps if x.head not in poly) / len(nps),
        "absent_sense_share": sum(
            1 for x in nps if x.sense is not None and x.sense_idx is None) / len(nps),
        "pronouns": len(prons),
        "pronouns_with_antecedent_in_window": sum(
            1 for p in prons if p.antecedent and p.sent - WINDOW <= p.antecedent[0] <= p.sent),
        "pronouns_with_antecedent": sum(1 for p in prons if p.antecedent),
    }
