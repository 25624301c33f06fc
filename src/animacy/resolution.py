"""Extrinsic harness: animacy filtering of pronoun candidates in front of a
recency resolver, and the controlled-error precision/recall sweep.

The resolver is a deliberately simple stand-in (the most recent surviving
candidate); absolute success rates therefore characterize the harness, not
any particular anaphora resolver.  What the sweep measures is how
resolution degrades as animacy labels are perturbed to hit chosen
precision/recall targets.  It perturbs the gold labels as label codes, one
per NP, and passes them to the harness as codes.

Candidate windows are compiled for all pronouns at once: NPs are sorted by
document and sentence, and each window is found by binary search, so no
document is scanned per pronoun.  `candidate_set` is the one-pronoun
definition of a window.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np
from numpy.random import SeedSequence, default_rng

from .corpus import Document, Label, NPRecord, PronounRecord, np_columns

NPKey = tuple[str, int, int]


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


def gold_assignment(docs: Iterable[Document]) -> dict[NPKey, Label]:
    """NP key -> gold label for every labelled NP of a corpus."""
    columns, _ = np_columns(docs)
    return {key: gold for key, gold in zip(columns.keys, columns.gold) if gold is not None}


# per-NP codes of a compiled pass; any label but these two is never dropped
_ANIMATE, _INANIMATE = 1, 2


@dataclass(frozen=True, eq=False)
class CompiledCorpus:
    """A corpus flattened for repeated harness passes at one window.

    `keys` holds, in text order, the keys of the NPs that fall in some
    pronoun's window.  `candidates` lists each pronoun's candidates in
    turn, in `candidate_set` order, as indices into `keys`, and
    `drop_code` repeats, once per candidate, the label
    code its pronoun's filter drops.  For each pronoun whose gold
    antecedent is in its window, `gold_at` is that antecedent's index into
    `candidates` and `gold_end` the end of the window there.

    `compile_corpus` finds the windows with one stable sort of the NPs by
    (document, sentence) and a `searchsorted` per window bound, never by
    pairing a pronoun with every NP of its document.  It reads the NPs
    through `np_columns`, so it builds no `NPRecord`.
    """

    window: int
    keys: tuple[NPKey, ...]
    pronouns: tuple[PronounRecord, ...]
    candidates: np.ndarray
    drop_code: np.ndarray
    gold_at: np.ndarray
    gold_end: np.ndarray


def _id_columns(*columns):
    """Integer id lists as int64 arrays, or all as object arrays (exact
    Python ints) when some id lies beyond int64."""
    try:
        return [np.array(column, dtype=np.int64) for column in columns]
    except OverflowError:
        return [np.array(column, dtype=object) for column in columns]


def compile_corpus(docs: Sequence[Document], window: int = 2) -> CompiledCorpus:
    """Build every pronoun's candidate window once, for `run_harness`.

    Time and memory grow with NPs + pronouns + candidates, up to sorts.
    """
    columns, np_counts = np_columns(docs)
    pronouns = [pronoun for doc in docs for pronoun in doc.pronouns]
    if window < 0 and pronouns:
        raise ValueError("window must be >= 0")
    np_doc = np.repeat(np.arange(len(docs)), np_counts)
    pron_doc = np.repeat(np.arange(len(docs)), [len(doc.pronouns) for doc in docs])
    linked = [p.antecedent or (0, 0) for p in pronouns]
    sent, np_id, hi, lo, gold_sent, gold_np = _id_columns(
        columns.sent_id, columns.np_id,
        [p.sent_id for p in pronouns], [p.sent_id - window for p in pronouns],
        [s for s, _ in linked], [n for _, n in linked],
    )
    # a sentence id's rank is the count of NP sentence ids below it, so
    # one int64 key orders (document, sentence) whatever the ids are
    values = np.sort(sent)
    span = len(values) + 1
    key = np_doc * span + np.searchsorted(values, sent)
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    start = np.searchsorted(sorted_key, pron_doc * span + np.searchsorted(values, lo))
    stop = np.searchsorted(
        sorted_key, pron_doc * span + np.searchsorted(values, hi, side="right")
    )
    counts = stop - start
    ends = np.cumsum(counts)
    owner = np.repeat(np.arange(len(pronouns)), counts)
    # the k-th candidate of pronoun p is NP order[start[p] + k] ...
    flat = order[np.arange(counts.sum()) - np.repeat(ends - counts - start, counts)]
    # ... until each window is put back in text order
    flat = flat[np.lexsort((flat, owner))]
    has_gold = np.fromiter((p.antecedent is not None for p in pronouns), bool,
                           len(pronouns))
    gold_at = np.flatnonzero(
        (sent[flat] == gold_sent[owner]) & (np_id[flat] == gold_np[owner])
        & has_gold[owner]
    )
    used = np.zeros(len(columns.keys), dtype=bool)
    used[flat] = True
    animate = np.fromiter((p.animate for p in pronouns), bool, len(pronouns))
    return CompiledCorpus(
        window=window,
        keys=tuple(map(columns.keys.__getitem__, np.flatnonzero(used).tolist())),
        pronouns=tuple(pronouns),
        candidates=(np.cumsum(used, dtype=np.intp) - 1)[flat],
        drop_code=np.where(animate, _INANIMATE, _ANIMATE).astype(np.int8)[owner],
        gold_at=gold_at,
        gold_end=ends[owner[gold_at]],
    )


def _label_codes(compiled: CompiledCorpus, labels: Mapping[NPKey, Label]):
    """One int8 code per compiled NP (0 for missing keys and UNKNOWN)."""
    found = list(map(labels.get, compiled.keys))
    # compared by identity, through each label's id
    ids = np.fromiter(map(id, found), dtype=np.uint64, count=len(found))
    codes = np.zeros(len(ids), dtype=np.int8)
    codes[ids == id(Label.ANIMATE)] = _ANIMATE
    codes[ids == id(Label.INANIMATE)] = _INANIMATE
    return codes


def run_harness(
    docs: Sequence[Document] | CompiledCorpus,
    labels: Mapping[NPKey, Label] | np.ndarray,
    window: int = 2,
    count_prefilter_misses: bool = True,
) -> HarnessResult:
    """Resolve every pronoun of the corpus to its most recent candidate
    that survives animacy filtering.

    The filter drops a candidate whose label disagrees with the pronoun;
    UNKNOWN candidates, and NPs missing from `labels`, always survive.
    success_rate: correctly resolved / all pronouns.  avg_candidates: mean
    size of the post-filter candidate set.  pct_no_antecedent: fraction of
    pronouns whose post-filter set lacks the gold antecedent; by default
    this includes pronouns that lacked it before filtering too, and
    `count_prefilter_misses=False` restricts it to losses the filter
    itself caused.

    `docs` may be a `compile_corpus` result for this window, which saves
    rebuilding the candidate windows when one corpus is run many times.
    `labels` may then also be an int8 array of one code per `compiled.keys`:
    1 animate, 2 inanimate, 0 otherwise.
    """
    if isinstance(docs, CompiledCorpus):
        compiled = docs
        if compiled.window != window:
            raise ValueError(
                f"corpus compiled for window {compiled.window}, not {window}"
            )
    else:
        compiled = compile_corpus(docs, window)
    total = len(compiled.pronouns)
    if not total:
        raise ValueError("corpus contains no pronoun records")
    if isinstance(labels, np.ndarray):
        if labels.shape != (len(compiled.keys),):
            raise ValueError(
                f"expected {len(compiled.keys)} label codes, one per compiled "
                f"NP, got an array of shape {labels.shape}"
            )
        codes = labels
    else:
        codes = _label_codes(compiled, labels)
    kept = codes[compiled.candidates] != compiled.drop_code
    survived = kept[compiled.gold_at]
    missing = (
        (total if count_prefilter_misses else len(survived))
        - int(np.count_nonzero(survived))
    )
    # the last survivor is the gold antecedent exactly when that survives
    # and every later candidate of its window is dropped
    kept_before = np.concatenate(([0], np.cumsum(kept)))
    resolved = int(np.count_nonzero(
        survived
        & (kept_before[compiled.gold_end] == kept_before[compiled.gold_at + 1])
    ))
    return HarnessResult(
        success_rate=resolved / total,
        avg_candidates=int(np.count_nonzero(kept)) / total,
        pct_no_antecedent=missing / total,
    )


def _flip_counts(
    n_animate: int, n_inanimate: int, precision: float, recall: float
) -> tuple[int, int]:
    """(animate -> inanimate, inanimate -> animate) flips for the targets."""
    if not 0.0 < precision <= 1.0 or not 0.0 < recall <= 1.0:
        raise ValueError("precision and recall must be in (0, 1]")
    drop = round((1.0 - recall) * n_animate)
    fake = round(recall * n_animate * (1.0 - precision) / precision)
    if fake > n_inanimate:
        raise InfeasibleTargetError(
            f"targets (p={precision}, r={recall}) need {fake} false positives "
            f"but only {n_inanimate} inanimate labels exist"
        )
    return drop, fake


def _draw_flips(rng, animate_at, inanimate_at, drop: int, fake: int):
    """Positions to flip to inanimate, then to animate.  The two draws and
    their order fix each `_run_seed` stream's outcome."""
    return (
        animate_at[rng.choice(len(animate_at), size=drop, replace=False)],
        inanimate_at[rng.choice(len(inanimate_at), size=fake, replace=False)],
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
    animate_at = np.flatnonzero([lab is Label.ANIMATE for lab in labels])
    inanimate_at = np.flatnonzero([lab is Label.INANIMATE for lab in labels])
    drop, fake = _flip_counts(len(animate_at), len(inanimate_at), precision, recall)
    to_inanimate, to_animate = _draw_flips(
        default_rng(seed), animate_at, inanimate_at, drop, fake
    )
    out = list(labels)
    for i in to_inanimate.tolist():
        out[i] = Label.INANIMATE
    for i in to_animate.tolist():
        out[i] = Label.ANIMATE
    return out


def _run_seed(master_seed: int, p_pct: int, r_pct: int, run: int):
    # independent per-run generators keep parallel scheduling irrelevant
    return SeedSequence([master_seed, p_pct, r_pct, run])


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
    are marked rather than fatal.  The corpus is compiled once, and each
    run is one `run_harness` pass over it, with the labels as codes.  The
    labels are read from the NP columns (`np_columns`).
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    columns, _ = np_columns(docs)
    labelled = [i for i, gold in enumerate(columns.gold) if gold is not None]
    # one code per labelled NP, then a 0 slot for compiled NPs without gold
    code_of = {Label.ANIMATE: _ANIMATE, Label.INANIMATE: _INANIMATE}
    gold = np.array([code_of.get(columns.gold[i], 0) for i in labelled] + [0],
                    dtype=np.int8)
    animate_at = np.flatnonzero(gold == _ANIMATE)
    inanimate_at = np.flatnonzero(gold == _INANIMATE)

    compiled = source = None
    cells = {}
    for p_pct in precision_percents:
        for r_pct in recall_percents:
            try:
                drop, fake = _flip_counts(
                    len(animate_at), len(inanimate_at), p_pct / 100.0, r_pct / 100.0
                )
            except InfeasibleTargetError:
                cells[(p_pct, r_pct)] = CellStats(float("nan"), float("nan"), 0, False)
                continue
            if compiled is None:
                # at the first feasible cell: a grid without one never
                # reads the pronouns, so it raises nothing about them
                compiled = compile_corpus(docs, window)
                # each compiled NP reads the last labelled NP with its key,
                # as a key -> label map would, so a flip of an earlier twin
                # never takes effect
                last = {columns.keys[row]: i for i, row in enumerate(labelled)}
                source = np.array(
                    [last.get(key, len(labelled)) for key in compiled.keys],
                    dtype=np.intp,
                )
            rates = []
            for run in range(runs):
                rng = default_rng(_run_seed(seed, p_pct, r_pct, run))
                to_inanimate, to_animate = _draw_flips(
                    rng, animate_at, inanimate_at, drop, fake
                )
                perturbed = gold.copy()
                perturbed[to_inanimate] = _INANIMATE
                perturbed[to_animate] = _ANIMATE
                rates.append(
                    run_harness(compiled, perturbed[source], window).success_rate
                )
            cells[(p_pct, r_pct)] = CellStats(
                mean_success=float(np.mean(rates)),
                std_success=float(np.std(rates)),
                runs=runs,
                feasible=True,
            )
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
