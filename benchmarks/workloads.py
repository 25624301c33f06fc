"""The four workloads: their inputs, sizes and CLI calls.

Each workload is a fixed sequence of `animacy` CLI calls over files that
`prepare` generates from the seed.  Sizes are chosen so that one round
(one fresh process running the whole sequence) takes a few seconds on a
2-vCPU machine, and so that the layer each workload is meant to stress
does most of the work:

* xval: 10-fold cross-validation; the kNN instance scan dominates.
* wsd-rule: rule cascade with IC sense weighting, then scoring; the
  pairwise most-informative-subsumer search dominates.  Also carries the
  fixed percentage probe (`PROBE_GOLD`, `PROBE_PRED`).
* ml-paper: enrichment at paper scale (19,701 labelled NPs), then the
  memory-based classifier with one large store and a small test corpus.
* sweep-paper: the error-injection sweep over the paper-scale corpus on a
  reduced grid that includes an infeasible cell.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import synth

NAMES = ("xval", "wsd-rule", "ml-paper", "sweep-paper")

# Bump when the generator's output changes, so cached inputs are rebuilt.
GENERATOR_VERSION = 3

PAPER = synth.ANIMATE_SHARE_PAPER  # (2321, 17380)
XVAL_NPS = (235, 1765)  # paper animate share at 2k labelled NPs
WSD_NPS = (442, 3308)  # 150 documents of 25 NPs
TEST_NPS = (3, 21)
XVAL_SEED = 7
SWEEP_GRID = {"p": (10, 100, 45), "r": (50, 100, 25)}
SWEEP_RUNS = 4

# An eval over fixed inputs whose accuracy is 29/50: the exact truncated
# percentage is 58.00, and `as_percent` round-off reports 57.99.  It
# fails on every seed until that fault is fixed, so it stays in the
# wsd-rule round as the workload's one failing operation.
PROBE_GOLD = ["A"] * 20 + ["I"] * 30
PROBE_PRED = ["A"] * 15 + ["I"] * 5 + ["I"] * 14 + ["A"] * 16


@dataclass
class Inputs:
    """Generated files plus the in-memory ground truth behind them."""

    workload: str
    files: dict[str, str] = field(default_factory=dict)
    taxonomy: synth.SynthTaxonomy | None = None
    corpora: dict[str, list[synth.SynthDoc]] = field(default_factory=dict)


def _atomic_write(path: str, writer) -> None:
    if os.path.exists(path):
        return
    tmp = f"{path}.tmp{os.getpid()}"
    writer(tmp)
    os.replace(tmp, path)


def _write_probe(path_gold: str, path_pred: str) -> None:
    def lines(labels):
        return "".join(f"probe\t0\t{i}\t{lab}\n" for i, lab in enumerate(labels))

    for path, labels in ((path_gold, PROBE_GOLD), (path_pred, PROBE_PRED)):
        def write(tmp, labels=labels):
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(lines(labels))
        _atomic_write(path, write)


def prepare(workload: str, seed: int, cache_dir: str) -> Inputs:
    """Generate (or reuse from the cache) the input files of a workload."""
    if workload not in NAMES:
        raise ValueError(f"unknown workload {workload!r}")
    base = os.path.join(cache_dir, f"inputs-v{GENERATOR_VERSION}-seed{seed}")
    os.makedirs(base, exist_ok=True)
    inputs = Inputs(workload)
    tax = synth.make_taxonomy(seed)
    inputs.taxonomy = tax
    if workload != "sweep-paper":
        inputs.files["taxonomy"] = os.path.join(base, "wordnet.tax")
        _atomic_write(inputs.files["taxonomy"], lambda p: synth.write_taxonomy(tax, p))

    def corpus(key: str, name: str, sizes: tuple[int, int], **kwargs) -> None:
        docs = synth.make_corpus(tax, seed, name, *sizes, **kwargs)
        inputs.corpora[key] = docs
        inputs.files[key] = os.path.join(base, f"{key}.tsv")
        _atomic_write(inputs.files[key], lambda p: synth.write_corpus(docs, p))

    if workload == "xval":
        corpus("xval", "x", XVAL_NPS)
    elif workload == "wsd-rule":
        corpus("wsd", "w", WSD_NPS, nps_per_doc=25)
        inputs.files["probe_gold"] = os.path.join(base, "probe-gold.tsv")
        inputs.files["probe_pred"] = os.path.join(base, "probe-pred.tsv")
        _write_probe(inputs.files["probe_gold"], inputs.files["probe_pred"])
    else:
        corpus("paper", "p", PAPER)
        if workload == "ml-paper":
            corpus("test", "q", TEST_NPS)
    return inputs


def calls(workload: str, files: dict[str, str], out: str, seed: int) -> list[list[str]]:
    """The CLI argument lists of one round; outputs go under `out`."""
    o = lambda name: os.path.join(out, name)  # noqa: E731
    if workload == "xval":
        return [["xval", "--taxonomy", files["taxonomy"], "--corpus", files["xval"],
                 "--folds", "10", "--seed", str(XVAL_SEED), "--out", o("xval.tsv")]]
    if workload == "wsd-rule":
        return [
            ["classify", "--method", "rule", "--wsd", "--taxonomy", files["taxonomy"],
             "--corpus", files["wsd"], "--out", o("pred.tsv")],
            ["eval", "--gold", files["wsd"], "--pred", o("pred.tsv"), "--out", o("eval.tsv")],
            ["eval", "--gold", files["probe_gold"], "--pred", files["probe_pred"],
             "--out", o("probe.tsv")],
        ]
    if workload == "ml-paper":
        return [
            ["enrich", "--taxonomy", files["taxonomy"], "--corpus", files["paper"],
             "--out", o("statuses.tsv")],
            ["classify", "--method", "ml", "--taxonomy", files["taxonomy"],
             "--enriched", o("statuses.tsv"), "--train", files["paper"],
             "--test", files["test"], "--out", o("pred.tsv")],
        ]
    (p_from, p_to, p_step), (r_from, r_to, r_step) = SWEEP_GRID["p"], SWEEP_GRID["r"]
    return [["sweep", "--corpus", files["paper"],
             "--p-from", str(p_from), "--p-to", str(p_to), "--p-step", str(p_step),
             "--r-from", str(r_from), "--r-to", str(r_to), "--r-step", str(r_step),
             "--runs", str(SWEEP_RUNS), "--seed", str(seed),
             "--out", o("grid.csv"), "--marginals", o("marginals.csv")]]
