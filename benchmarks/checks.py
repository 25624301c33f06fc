"""Output checks, each against a computation the benchmark makes itself.

Nothing here copies the program's current output.  Percentages are
compared by exact integer truncation, ``n * 10**4 // d``.  `animacy`'s
`as_percent` truncates a float and reports one hundredth too little when
the exact value sits on a hundredth (29/50 gives 57.99, not 58.00).  On
seeded reports such a boundary is hit or not depending on the seed, so a
figure that is exactly one hundredth low *at an exact boundary* is
tallied as a sighting of that known fault rather than failed; any other
difference fails.  The fixed 29/50 probe in the wsd-rule round is checked
strictly and fails on every seed while the fault lasts.

Each `check_*` returns a `Verdict`: the operations (CLI calls) that failed
because of a named program fault, the problems that make the output
wrong, and the number of round-off sightings.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import synth
import workloads

ROUNDOFF_FAULT = "evaluation.as_percent truncates a float: exact boundaries lose 0.01"
REPORT_HEADER = [
    "accuracy", "animate_precision", "animate_recall", "animate_f",
    "inanimate_precision", "inanimate_recall", "inanimate_f", "unknown_predictions",
]
SWEEP_HEADER = "precision,recall,mean_success,std_success,runs,feasible"


@dataclass
class Verdict:
    failed_calls: dict[int, str] = field(default_factory=dict)  # call index -> fault
    problems: list[str] = field(default_factory=list)
    roundoff: int = 0

    def merge(self, other: "Verdict") -> None:
        self.failed_calls.update(other.failed_calls)
        self.problems.extend(other.problems)
        self.roundoff += other.roundoff


# --- percentages and reports ------------------------------------------------


def _fmt(hundredths: int) -> str:
    return f"{hundredths // 100}.{hundredths % 100:02d}"


def exact_percent(n: int, d: int) -> str:
    """Percentage of n/d truncated to two decimals, or '-' when d is 0."""
    return "-" if d == 0 else _fmt(n * 10**4 // d)


def percent_verdict(reported: str, n: int, d: int) -> str:
    """'ok', 'roundoff' (the known as_percent fault) or 'bad'."""
    expected = exact_percent(n, d)
    if reported == expected:
        return "ok"
    if d and (n * 10**4) % d == 0 and n and reported == _fmt(n * 10**4 // d - 1):
        return "roundoff"
    return "bad"


@dataclass(frozen=True)
class Confusion:
    """Two-class confusion counts; U predictions are misses of the gold class."""

    tp_a: int
    fp_a: int
    fn_a: int
    tp_i: int
    fp_i: int
    fn_i: int
    unknown: int

    @property
    def total(self) -> int:
        return self.tp_a + self.fn_a + self.tp_i + self.fn_i

    def figures(self) -> list[tuple[int, int] | None]:
        """(numerator, denominator) of each percentage column, None for '-'."""
        out: list[tuple[int, int] | None] = [(self.tp_a + self.tp_i, self.total)]
        for tp, fp, fn in ((self.tp_a, self.fp_a, self.fn_a),
                           (self.tp_i, self.fp_i, self.fn_i)):
            precision = (tp, tp + fp) if tp + fp else None
            recall = (tp, tp + fn) if tp + fn else None
            f = (2 * tp, 2 * tp + fp + fn) if precision and recall and tp else None
            out += [precision, recall, f]
        return out


def parse_report(text: str) -> list[str] | None:
    lines = text.split("\n")
    if len(lines) != 3 or lines[2] != "" or lines[0].split("\t") != REPORT_HEADER:
        return None
    row = lines[1].split("\t")
    return row if len(row) == len(REPORT_HEADER) else None


def report_verdict(row: list[str], confusion: Confusion) -> tuple[list[str], int]:
    """Problems with a report row against a confusion matrix, and the
    number of round-off sightings."""
    problems = []
    roundoff = 0
    for name, cell, figure in zip(REPORT_HEADER, row, confusion.figures()):
        if figure is None:
            if cell != "-":
                problems.append(f"{name}: reported {cell}, expected '-'")
            continue
        verdict = percent_verdict(cell, *figure)
        if verdict == "roundoff":
            roundoff += 1
        elif verdict == "bad":
            problems.append(f"{name}: reported {cell}, exact {exact_percent(*figure)}")
    if row[-1] != str(confusion.unknown):
        problems.append(f"unknown_predictions: reported {row[-1]}, expected {confusion.unknown}")
    return problems, roundoff


def confusion_of(gold: list[str], predicted: list[str]) -> Confusion:
    c = {"tp_a": 0, "fp_a": 0, "fn_a": 0, "tp_i": 0, "fp_i": 0, "fn_i": 0, "unknown": 0}
    for g, p in zip(gold, predicted):
        key = g.lower()
        if p == "U":
            c["unknown"] += 1
            c[f"fn_{key}"] += 1
        elif p == g:
            c[f"tp_{key}"] += 1
        else:
            c[f"fp_{p.lower()}"] += 1
            c[f"fn_{key}"] += 1
    return Confusion(**c)


def parse_predictions(text: str) -> tuple[list[tuple[tuple[str, int, int], str]], list[str]]:
    rows = []
    problems = []
    for lineno, line in enumerate(text.splitlines(), 1):
        fields = line.split("\t")
        if len(fields) != 4 or fields[3] not in ("A", "I", "U"):
            problems.append(f"prediction line {lineno} malformed: {line!r}")
            continue
        try:
            key = (fields[0], int(fields[1]), int(fields[2]))
        except ValueError:
            problems.append(f"prediction line {lineno} malformed: {line!r}")
            continue
        rows.append((key, fields[3]))
    return rows, problems


def _one_per_np(rows, docs: list[synth.SynthDoc]) -> list[str]:
    keys = [key for key, _ in rows]
    expected = [(x.doc, x.sent, x.np) for x in synth.labelled_nps(docs)]
    if len(keys) != len(set(keys)):
        return ["duplicate prediction keys"]
    if set(keys) != set(expected):
        return [f"{len(set(keys) ^ set(expected))} NP keys predicted or missing wrongly"]
    return []


# --- xval -------------------------------------------------------------------


def check_xval(inputs: workloads.Inputs, outputs: dict[str, str]) -> Verdict:
    """The report figures form one confusion matrix over the labelled NPs,
    with no U predictions, whose accuracy beats always-inanimate."""
    verdict = Verdict()
    nps = synth.labelled_nps(inputs.corpora["xval"])
    n_a = sum(1 for x in nps if x.gold == "A")
    n_i = len(nps) - n_a
    row = parse_report(outputs["xval.tsv"])
    if row is None:
        verdict.problems.append("xval report is not a two-line report")
        return verdict
    if row[-1] != "0":
        verdict.problems.append(f"xval report has {row[-1]} unknown predictions")
    recall_a, recall_i = row[2], row[5]
    tps = [tp for tp in range(n_a + 1) if percent_verdict(recall_a, tp, n_a) != "bad"]
    tns = [tn for tn in range(n_i + 1) if percent_verdict(recall_i, tn, n_i) != "bad"]
    fits = []
    for tp, tn in itertools.product(tps, tns):
        confusion = Confusion(tp, n_i - tn, n_a - tp, tn, n_a - tp, n_i - tn, 0)
        problems, roundoff = report_verdict(row, confusion)
        if not problems:
            fits.append((confusion, roundoff))
    if not fits:
        verdict.problems.append(f"no confusion matrix over {n_a} A / {n_i} I fits {row}")
        return verdict
    verdict.roundoff = min(r for _, r in fits)
    for confusion, _ in fits:
        if confusion.tp_a + confusion.tp_i <= n_i:
            verdict.problems.append(
                f"accuracy {row[0]} does not beat always-inanimate {exact_percent(n_i, len(nps))}")
            break
    return verdict


# --- wsd-rule ---------------------------------------------------------------


def _verb_animacy(tax: synth.SynthTaxonomy, verb: str | None) -> Fraction:
    senses = tax.senses["v"].get(verb, []) if verb else []
    if not senses:
        return Fraction(0)
    return Fraction(sum(1 for i in senses if tax.animate(i)), len(senses))


def check_wsd_rule(inputs: workloads.Inputs, outputs: dict[str, str]) -> Verdict:
    verdict = Verdict()
    tax = inputs.taxonomy
    docs = inputs.corpora["wsd"]
    rows, problems = parse_predictions(outputs["pred.tsv"])
    verdict.problems += problems + _one_per_np(rows, docs)
    if verdict.problems:
        return verdict
    predicted = dict(rows)
    nps = synth.labelled_nps(docs)
    for x in nps:
        label = predicted[(x.doc, x.sent, x.np)]
        senses = tax.senses["n"].get(x.head, [])
        contextual = x.who or x.refl or _verb_animacy(tax, x.verb) > Fraction(9, 10)
        if (label == "U") != (not senses and not contextual):
            verdict.problems.append(f"{x.doc}/{x.sent}/{x.np} ({x.head}): U misplaced, got {label}")
        classes = {tax.animate(i) for i in senses}
        if len(classes) == 1:
            # every sense on one side: the first two thresholds decide,
            # whatever the sense weights are
            expected = "A" if classes == {True} else "I"
            if label != expected:
                verdict.problems.append(
                    f"{x.doc}/{x.sent}/{x.np} ({x.head}): single-class head got {label}")
    gold = [x.gold for x in nps]
    confusion = confusion_of(gold, [predicted[(x.doc, x.sent, x.np)] for x in nps])
    row = parse_report(outputs["eval.tsv"])
    if row is None:
        verdict.problems.append("eval report is not a two-line report")
    else:
        problems, verdict.roundoff = report_verdict(row, confusion)
        verdict.problems += [f"eval {p}" for p in problems]

    probe = confusion_of(workloads.PROBE_GOLD, workloads.PROBE_PRED)
    row = parse_report(outputs["probe.tsv"])
    problems, roundoff = report_verdict(row, probe) if row else (["not a report"], 0)
    if problems:
        verdict.problems.append("probe report: " + "; ".join(problems))
    elif roundoff:
        verdict.failed_calls[2] = f"{ROUNDOFF_FAULT} (probe 29/50)"
    return verdict


# --- ml-paper ---------------------------------------------------------------


class Closures:
    """Hypernym closure (with self) per synset, from the generator's parent map."""

    def __init__(self, tax: synth.SynthTaxonomy):
        self.parents = tax.parents
        self.memo: dict[int, frozenset[int]] = {}

    def __call__(self, idx: int) -> frozenset[int]:
        found = self.memo.get(idx)
        if found is None:
            found = frozenset({idx}).union(*(self(p) for p in self.parents[idx]))
            self.memo[idx] = found
        return found


def propagated_evidence(tax: synth.SynthTaxonomy, docs) -> dict[int, set[str]]:
    """Classes of the gold evidence reaching each synset: a noun occurrence
    counts at its sense and every ancestor; a subject with a verb counts at
    every sense of the verb and their ancestors."""
    closure = Closures(tax)
    evidence: dict[int, set[str]] = {}
    for x in synth.labelled_nps(docs):
        touched: set[int] = set()
        if x.sense_idx is not None:
            touched |= closure(x.sense_idx)
        if x.verb is not None:
            for v in tax.senses["v"].get(x.verb, []):
                touched |= closure(v)
        for idx in touched:
            evidence.setdefault(idx, set()).add(x.gold)
    return evidence


def check_ml_paper(inputs: workloads.Inputs, outputs: dict[str, str]) -> Verdict:
    verdict = Verdict()
    tax = inputs.taxonomy
    statuses: dict[str, str] = {}
    for lineno, line in enumerate(outputs["statuses.tsv"].splitlines(), 1):
        fields = line.split("\t")
        if len(fields) != 3 or fields[0] != "STATUS" or fields[2] not in ("A", "I", "U"):
            verdict.problems.append(f"statuses line {lineno} malformed: {line!r}")
        elif fields[1] in statuses:
            verdict.problems.append(f"synset {fields[1]} has two STATUS lines")
        else:
            statuses[fields[1]] = fields[2]
    if set(statuses) != set(tax.ids):
        verdict.problems.append(
            f"{len(set(statuses) ^ set(tax.ids))} synsets lack a STATUS line or are unknown")
    evidence = propagated_evidence(tax, inputs.corpora["paper"])
    wrong = 0
    for idx, sid in enumerate(tax.ids):
        seen = evidence.get(idx, set())
        if len(seen) == 2:
            continue  # mixed evidence: decided by the chi-square tests
        expected = "U" if not seen else next(iter(seen))
        if statuses.get(sid, expected) != expected:
            wrong += 1
            if wrong <= 3:
                verdict.problems.append(f"{sid}: status {statuses[sid]}, evidence {sorted(seen)}")
    if wrong > 3:
        verdict.problems.append(f"... {wrong} statuses contradict their evidence")

    rows, problems = parse_predictions(outputs["pred.tsv"])
    verdict.problems += problems + _one_per_np(rows, inputs.corpora["test"])
    unknown = sum(1 for _, label in rows if label == "U")
    if unknown:
        verdict.problems.append(f"{unknown} U predictions from the memory-based classifier")
    return verdict


# --- sweep-paper ------------------------------------------------------------


def grid_points() -> list[tuple[int, int]]:
    (p_from, p_to, p_step), (r_from, r_to, r_step) = (
        workloads.SWEEP_GRID["p"], workloads.SWEEP_GRID["r"])
    return [(p, r) for p in range(p_from, p_to + 1, p_step)
            for r in range(r_from, r_to + 1, r_step)]


def feasible(p_pct: int, r_pct: int, n_a: int, n_i: int) -> bool:
    """False exactly when round(r*A*(1-p)/p) false positives exceed #I."""
    p, r = Fraction(p_pct, 100), Fraction(r_pct, 100)
    return round(r * n_a * (1 - p) / p) <= n_i


def recency_success(docs: list[synth.SynthDoc]) -> Fraction:
    """Share of pronouns whose most recent window NP of a compatible gold
    class is the gold antecedent."""
    correct = total = 0
    for doc in docs:
        for pron in doc.pronouns:
            total += 1
            dropped = "I" if pron.animate else "A"
            chosen = None
            for x in reversed(doc.nps):
                if pron.sent - synth.WINDOW <= x.sent <= pron.sent and x.gold != dropped:
                    chosen = (x.sent, x.np)
                    break
            correct += chosen is not None and chosen == pron.antecedent
    return Fraction(correct, total)


def paper_counts(inputs: workloads.Inputs) -> tuple[int, int]:
    nps = synth.labelled_nps(inputs.corpora["paper"])
    n_a = sum(1 for x in nps if x.gold == "A")
    return n_a, len(nps) - n_a


def harness_passes(inputs: workloads.Inputs) -> int:
    n_a, n_i = paper_counts(inputs)
    return workloads.SWEEP_RUNS * sum(feasible(p, r, n_a, n_i) for p, r in grid_points())


def check_sweep_paper(inputs: workloads.Inputs, outputs: dict[str, str]) -> Verdict:
    verdict = Verdict()
    n_a, n_i = paper_counts(inputs)
    lines = outputs["grid.csv"].split("\n")
    if lines[0] != SWEEP_HEADER or lines[-1] != "":
        verdict.problems.append("sweep grid header or final newline wrong")
        return verdict
    cells: dict[tuple[int, int], tuple[float, float, int, bool]] = {}
    for line in lines[1:-1]:
        try:
            p, r, mean, std, runs, flag = line.split(",")
            key = (int(p), int(r))
            cell = (float(mean) if mean else math.nan, float(std) if std else math.nan,
                    int(runs), flag == "1")
        except ValueError:
            verdict.problems.append(f"sweep row malformed: {line!r}")
            continue
        if key in cells:
            verdict.problems.append(f"sweep row {key} repeated")
        cells[key] = cell
    if sorted(cells) != grid_points():
        verdict.problems.append(f"sweep rows {sorted(cells)} differ from the grid")
        return verdict
    for (p, r), (mean, std, runs, flag) in cells.items():
        if flag != feasible(p, r, n_a, n_i):
            verdict.problems.append(f"cell ({p},{r}) feasibility {flag} is wrong")
        elif flag and not (runs == workloads.SWEEP_RUNS and 0 <= mean <= 1 and std >= 0):
            verdict.problems.append(f"cell ({p},{r}) figures out of range")
        elif not flag and not (runs == 0 and math.isnan(mean) and math.isnan(std)):
            verdict.problems.append(f"infeasible cell ({p},{r}) carries figures")
    if all(flag for *_, flag in cells.values()):
        verdict.problems.append("the grid has no infeasible cell")
    mean, std, _, _ = cells[(100, 100)]
    expected = recency_success(inputs.corpora["paper"])
    if std != 0.0 or not math.isclose(mean, expected, rel_tol=1e-12, abs_tol=0.0):
        verdict.problems.append(
            f"identity cell (100,100) is {mean}/{std}, recency under gold gives {float(expected)}")

    axes: dict[tuple[str, int], list[float]] = {}
    for (p, r), (mean, _, _, flag) in cells.items():
        if flag:
            axes.setdefault(("precision", p), []).append(mean)
            axes.setdefault(("recall", r), []).append(mean)
    lines = outputs["marginals.csv"].split("\n")
    rows = {}
    for line in lines[1:-1]:
        try:
            axis, value, mean = line.split(",")
            rows[(axis, int(value))] = float(mean)
        except ValueError:
            verdict.problems.append(f"marginals row malformed: {line!r}")
    if lines[0] != "axis,value,mean_success" or set(rows) != set(axes):
        verdict.problems.append("marginals rows differ from the feasible axis values")
    else:
        for key, values in axes.items():
            if not math.isclose(rows[key], math.fsum(values) / len(values), rel_tol=1e-12):
                verdict.problems.append(f"marginal {key} is {rows[key]}, grid mean differs")
    return verdict


CHECKS = {
    "xval": check_xval,
    "wsd-rule": check_wsd_rule,
    "ml-paper": check_ml_paper,
    "sweep-paper": check_sweep_paper,
}
OUTPUTS = {
    "xval": ("xval.tsv",),
    "wsd-rule": ("pred.tsv", "eval.tsv", "probe.tsv"),
    "ml-paper": ("statuses.tsv", "pred.tsv"),
    "sweep-paper": ("grid.csv", "marginals.csv"),
}


def expected_calls(inputs: workloads.Inputs) -> dict[str, int]:
    """Per-layer call counts the traced round must show: counts derived
    from the inputs, and zero for the layers the workload must not run."""
    if inputs.workload == "xval":
        return {"mbl.knn_classify_calls": len(synth.labelled_nps(inputs.corpora["xval"])),
                "wsd.document_weights_calls": 0, "resolution.run_harness_calls": 0}
    if inputs.workload == "wsd-rule":
        return {"wsd.document_weights_calls": len(inputs.corpora["wsd"]),
                "mbl.knn_classify_calls": 0, "enrichment.resolve_animate_calls": 0}
    if inputs.workload == "ml-paper":
        return {"mbl.knn_classify_calls": len(synth.labelled_nps(inputs.corpora["test"])),
                "wsd.document_weights_calls": 0, "resolution.run_harness_calls": 0}
    return {"resolution.run_harness_calls": harness_passes(inputs),
            "taxonomy.ancestors_calls": 0, "enrichment.resolve_animate_calls": 0,
            "mbl.knn_classify_calls": 0}
