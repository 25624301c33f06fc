"""Extrinsic harness: animacy filtering of pronoun candidates, a recency
resolver, and the controlled-error precision/recall sweep.

The resolver here is a deliberately simple stand-in (most recent surviving
candidate) behind a pluggable interface; absolute success rates therefore
characterize the harness, not any particular anaphora resolver.  What the
sweep measures is how resolution degrades as animacy labels are perturbed
to hit chosen precision/recall targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .corpus import Document, Label, NPRecord, PronounRecord, iter_nps

NPKey = tuple[str, int, int]
Resolver = Callable[[PronounRecord, Sequence[NPRecord]], "NPRecord | None"]


class InfeasibleTargetError(ValueError):
    """The requested precision/recall pair cannot be realized on this corpus."""


@dataclass(frozen=True)
class HarnessResult:
    success_rate: float
    avg_candidates: float
    pct_no_antecedent: float


@dataclass(frozen=True)
class CellStats:
    mean_success: float
    std_success: float
    runs: int
    feasible: bool


@dataclass(frozen=True)
class SweepGrid:
    cells: dict[tuple[int, int], CellStats]  # keyed by (precision %, recall %)


def candidate_set(
    pronoun: PronounRecord, doc: Document, window: int = 2
) -> list[NPRecord]:
    """Candidate NPs: the pronoun's sentence plus the preceding `window`
    sentences, in text order.

    The corpus format does not locate pronouns within their sentence, so
    a pronoun is taken to follow every NP of its own sentence.
    """
    if window < 0:
        raise ValueError("window must be >= 0")
    lo = pronoun.sent_id - window
    return [np for np in doc.nps if lo <= np.sent_id <= pronoun.sent_id]


def filter_candidates(
    pronoun_animate: bool,
    candidates: Iterable[tuple[NPRecord, Label]],
) -> list[NPRecord]:
    """Drop candidates whose animacy disagrees with the pronoun.

    UNKNOWN candidates always survive; a word the classifier had to skip
    must not cost the resolver its antecedent.
    """
    drop = Label.INANIMATE if pronoun_animate else Label.ANIMATE
    return [np for np, label in candidates if label is not drop]


def resolve_recency(
    pronoun: PronounRecord, candidates: Sequence[NPRecord]
) -> NPRecord | None:
    """Most recent surviving candidate, or None when the set is empty."""
    return candidates[-1] if candidates else None


def gold_assignment(docs: Iterable[Document]) -> dict[NPKey, Label]:
    """NP key -> gold label for every labelled NP of a corpus."""
    return {
        np.key: np.gold for _, np in iter_nps(docs) if np.gold is not None
    }


def run_harness(
    docs: Sequence[Document],
    labels: Mapping[NPKey, Label],
    window: int = 2,
    resolver: Resolver = resolve_recency,
    count_prefilter_misses: bool = True,
) -> HarnessResult:
    """Resolve every pronoun of the corpus under animacy filtering.

    success_rate: correctly resolved / all pronouns.  avg_candidates: mean
    size of the post-filter candidate set.  pct_no_antecedent: fraction of
    pronouns whose post-filter set lacks the gold antecedent; by default
    this includes pronouns that lacked it before filtering too, and
    `count_prefilter_misses=False` restricts it to losses the filter
    itself caused.  NPs missing from `labels` count as UNKNOWN.
    """
    total = resolved = kept = missing = 0
    for doc in docs:
        for pronoun in doc.pronouns:
            before = candidate_set(pronoun, doc, window)
            after = filter_candidates(
                pronoun.animate,
                [(np, labels.get(np.key, Label.UNKNOWN)) for np in before],
            )
            chosen = resolver(pronoun, after)
            gold = pronoun.antecedent
            total += 1
            kept += len(after)
            if gold is None:
                missing += count_prefilter_misses
                continue
            if chosen is not None and (chosen.sent_id, chosen.np_id) == gold:
                resolved += 1
            if not any((np.sent_id, np.np_id) == gold for np in after) and (
                count_prefilter_misses
                or any((np.sent_id, np.np_id) == gold for np in before)
            ):
                missing += 1
    if not total:
        raise ValueError("corpus contains no pronoun records")
    return HarnessResult(
        success_rate=resolved / total,
        avg_candidates=kept / total,
        pct_no_antecedent=missing / total,
    )


def inject_errors(
    labels: Sequence[Label],
    precision: float,
    recall: float,
    seed,
) -> list[Label]:
    """Perturb a gold label stream to hit animate precision/recall targets.

    round((1-recall) * A) animate labels flip to inanimate and
    round(recall * A * (1-precision)/precision) inanimate labels flip the
    other way, so the measured figures land within 1/A of the targets.
    The (1, 1) pair is the identity.  Raises InfeasibleTargetError when
    the required false positives exceed the available inanimate labels.
    """
    if not 0.0 < precision <= 1.0 or not 0.0 < recall <= 1.0:
        raise ValueError("precision and recall must be in (0, 1]")
    animate_at = [i for i, lab in enumerate(labels) if lab is Label.ANIMATE]
    inanimate_at = [i for i, lab in enumerate(labels) if lab is Label.INANIMATE]
    n_animate = len(animate_at)

    drop = round((1.0 - recall) * n_animate)
    fake = round(recall * n_animate * (1.0 - precision) / precision)
    if fake > len(inanimate_at):
        raise InfeasibleTargetError(
            f"targets (p={precision}, r={recall}) need {fake} false positives "
            f"but only {len(inanimate_at)} inanimate labels exist"
        )

    out = list(labels)
    rng = np.random.default_rng(seed)
    for i in rng.choice(len(animate_at), size=drop, replace=False):
        out[animate_at[int(i)]] = Label.INANIMATE
    for i in rng.choice(len(inanimate_at), size=fake, replace=False):
        out[inanimate_at[int(i)]] = Label.ANIMATE
    return out


def measured_precision_recall(
    gold: Sequence[Label], perturbed: Sequence[Label]
) -> tuple[float, float]:
    """Animate-class precision and recall of a perturbed stream."""
    tp = sum(1 for g, p in zip(gold, perturbed)
             if g is Label.ANIMATE and p is Label.ANIMATE)
    fp = sum(1 for g, p in zip(gold, perturbed)
             if g is not Label.ANIMATE and p is Label.ANIMATE)
    fn = sum(1 for g, p in zip(gold, perturbed)
             if g is Label.ANIMATE and p is not Label.ANIMATE)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return precision, recall


def _run_seed(master_seed: int, p_pct: int, r_pct: int, run: int):
    # independent per-run generators keep parallel scheduling irrelevant
    return np.random.SeedSequence([master_seed, p_pct, r_pct, run])


def sweep(
    docs: Sequence[Document],
    precision_percents: Sequence[int],
    recall_percents: Sequence[int],
    runs: int = 50,
    seed: int = 0,
    window: int = 2,
) -> SweepGrid:
    """Success-rate grid over precision/recall targets.

    Each cell perturbs the gold labels `runs` times (each run seeded from
    the master seed and the cell coordinates), feeds the perturbed labels
    through filtering and the recency resolver, and records the mean and
    population standard deviation of the success rate.  Infeasible cells
    are marked rather than fatal.
    """
    ordered_nps = [np for _, np in iter_nps(docs) if np.gold is not None]
    gold_labels = [np.gold for np in ordered_nps]
    keys = [np.key for np in ordered_nps]

    cells = {}
    for p_pct in precision_percents:
        for r_pct in recall_percents:
            rates = []
            feasible = True
            for run in range(runs):
                try:
                    perturbed = inject_errors(
                        gold_labels, p_pct / 100.0, r_pct / 100.0,
                        _run_seed(seed, p_pct, r_pct, run),
                    )
                except InfeasibleTargetError:
                    feasible = False
                    break
                assignment = dict(zip(keys, perturbed))
                result = run_harness(docs, assignment, window)
                rates.append(result.success_rate)
            if feasible:
                stats = CellStats(
                    mean_success=float(np.mean(rates)),
                    std_success=float(np.std(rates)),
                    runs=runs,
                    feasible=True,
                )
            else:
                stats = CellStats(float("nan"), float("nan"), 0, False)
            cells[(p_pct, r_pct)] = stats
    return SweepGrid(cells)


def sweep_csv(grid: SweepGrid) -> str:
    lines = ["precision,recall,mean_success,std_success,runs,feasible"]
    for (p_pct, r_pct) in sorted(grid.cells):
        stats = grid.cells[(p_pct, r_pct)]
        if stats.feasible:
            lines.append(
                f"{p_pct},{r_pct},{stats.mean_success!r},{stats.std_success!r},"
                f"{stats.runs},1"
            )
        else:
            lines.append(f"{p_pct},{r_pct},,,0,0")
    return "\n".join(lines) + "\n"


def marginal_csv(grid: SweepGrid) -> str:
    """Success rate averaged along one axis at a time, over feasible cells."""
    lines = ["axis,value,mean_success"]
    by_p: dict[int, list[float]] = {}
    by_r: dict[int, list[float]] = {}
    for (p_pct, r_pct), stats in grid.cells.items():
        if not stats.feasible:
            continue
        by_p.setdefault(p_pct, []).append(stats.mean_success)
        by_r.setdefault(r_pct, []).append(stats.mean_success)
    for p_pct in sorted(by_p):
        lines.append(f"precision,{p_pct},{float(np.mean(by_p[p_pct]))!r}")
    for r_pct in sorted(by_r):
        lines.append(f"recall,{r_pct},{float(np.mean(by_r[r_pct]))!r}")
    return "\n".join(lines) + "\n"
