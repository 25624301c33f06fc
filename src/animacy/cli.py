"""Command line entry point.

Subcommands mirror the pipeline: import-wndb, annotate, enrich, classify,
xval, eval, kappa, simulate, sweep.  Data goes to stdout or --out files;
diagnostics go to stderr.  Exit codes: 0 success, 1 runtime error, 2 usage
error.  Stochastic subcommands require an explicit --seed so that equal
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import astuple
from itertools import chain

from . import evaluation, mbl, resolution, rules, wndb, wsd
from .corpus import Label, dump_corpus, load_corpus, np_columns, run_annotation_session
from .enrichment import dump_statuses, enrich, load_enriched
from .fileio import is_int, read_lines, write_atomic
from .taxonomy import BeginnerClass, dump_taxonomy, load_taxonomy


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        write_atomic(out_path, text)


def _load_predictions(path) -> dict[tuple[str, int, int], Label]:
    out = {}
    for lineno, line in read_lines(path):
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        try:
            if len(fields) != 4:
                raise ValueError("expected 4 fields")
            # ids spelled as the corpus loader takes them, not as `int` does
            for text, what in ((fields[1], "sentence id"), (fields[2], "np id")):
                if not is_int(text):
                    raise ValueError(f"bad {what} {text!r}")
            key = (fields[0], int(fields[1]), int(fields[2]))
            label = Label(fields[3])
            if key in out:
                raise ValueError(f"duplicate NP key {key}")
            out[key] = label
        except ValueError as exc:
            raise ValueError(f"{path} line {lineno}: {exc}") from None
    return out


def _labels_for(path) -> dict[tuple[str, int, int], Label]:
    """Label assignment from either a prediction TSV or an annotated corpus."""
    first = ""
    for _, line in read_lines(path):
        if line.strip() and not line.startswith("#"):
            first = line
            break
    if first.split("\t", 1)[0] in ("DOC", "NP", "PRON"):
        docs = load_corpus(path)
        return resolution.gold_assignment(docs)
    return _load_predictions(path)


def _beginners(args) -> BeginnerClass:
    # an empty lexfile list keeps the default set
    default = BeginnerClass()
    return BeginnerClass(
        args.animate_noun_lexfiles or default.animate_noun_lexfiles,
        args.animate_verb_lexfiles or default.animate_verb_lexfiles,
    )


def lexfile_list(text: str) -> frozenset[int]:
    """argparse type of the --animate-*-lexfiles flags."""
    return frozenset(int(x) for x in text.split(",")) if text else frozenset()


def bounded(kind: type, low, high=math.inf, closed: bool = True):
    """argparse type: a finite `kind` number from `low` to `high`.

    The bounds are included unless `closed` is false; NaN and infinities
    never pass.
    """
    span = f">= {low}" if high == math.inf else (
        f"in [{low}, {high}]" if closed else f"in ({low}, {high})")

    def parse(text: str):
        value = kind(text)
        inside = low <= value <= high if closed else low < value < high
        if not inside or abs(value) == math.inf:  # NaN is never inside
            raise argparse.ArgumentTypeError(f"must be {span}, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def _ic_table(args, taxonomy, ic_docs, *corpora):
    """The information-content table under --wsd, holding the sense
    closures of every head lemma of `corpora`, else None.

    Information content comes from the --ic count file or from `ic_docs`.
    """
    if not args.wsd:
        return None
    ic_table = (
        wsd.load_counts(args.ic, taxonomy)
        if args.ic
        else wsd.information_content(ic_docs, taxonomy)
    )
    ic_table.prepare(chain.from_iterable(np_columns(docs)[0].head_lemma for docs in corpora))
    return ic_table


def _wsd_weightings(args, taxonomy, ic_docs, *corpora):
    """Per-document sense weightings for each corpus under --wsd, else Nones."""
    ic_table = _ic_table(args, taxonomy, ic_docs, *corpora)
    if ic_table is None:
        return [None] * len(corpora)
    return [
        {doc.doc_id: wsd.document_weights(doc, taxonomy, ic_table) for doc in docs}
        for docs in corpora
    ]


def _rule_labels(docs, taxonomy, ic_table, senses, thresholds, reflexive_counts):
    """The rule label of each NP of `docs`, in corpus order; under --wsd
    each document is weighed just before its NPs and dropped after them."""
    for doc in docs:
        weighting = wsd.document_weights(doc, taxonomy, ic_table) if ic_table else None
        for np in doc.nps:
            yield rules.classify_np(np, senses, thresholds, weighting,
                                    reflexive_counts=reflexive_counts)


class UsageError(Exception):
    pass


def cmd_import_wndb(args) -> int:
    taxonomy, warnings = wndb.import_wndb(
        noun_path=args.noun,
        verb_path=args.verb,
        index_noun_path=args.index_noun,
        index_verb_path=args.index_verb,
    )
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    _write_output(dump_taxonomy(taxonomy), args.out)
    return 0


def cmd_annotate(args) -> int:
    docs = load_corpus(args.corpus)
    keystrokes = iter(sys.stdin.readline, "")
    try:
        updated, assigned = run_annotation_session(docs, keystrokes)
    except KeyboardInterrupt:
        print("interrupted; saving progress", file=sys.stderr)
        updated, assigned = docs, 0
    _write_output(dump_corpus(updated), args.out)
    print(f"{assigned} labels assigned -> {args.out}", file=sys.stderr)
    return 0


def cmd_enrich(args) -> int:
    taxonomy = load_taxonomy(args.taxonomy)
    docs = load_corpus(args.corpus)
    enriched = enrich(taxonomy, docs, alpha=args.alpha)
    _write_output(dump_statuses(enriched), args.out)
    coverage = enriched.coverage()
    print(f"coverage: {coverage:.4f}", file=sys.stderr)
    print(f"unresolved sense keys: {len(enriched.skipped)}", file=sys.stderr)
    return 0


def _check_ic(args) -> None:
    if args.ic and not args.wsd:
        raise UsageError("--ic requires --wsd")


def _statuses(args, taxonomy, docs):
    """The --enriched statuses, else those `enrich` finds in `docs`."""
    if args.enriched:
        return load_enriched(args.enriched, taxonomy)
    return enrich(taxonomy, docs)


# the flags each classify --method requires, then those it reads if given;
# all are checked before any file is read, and a method rejects every
# other flag of the table
_SENSE_FLAGS = ("wsd", "ic", "animate_noun_lexfiles", "animate_verb_lexfiles")
_METHOD_FLAGS = {
    "rule": (("taxonomy", "corpus"), ("t1", "t2", "t3", "no_reflexive", *_SENSE_FLAGS)),
    "ml": (("taxonomy", "train", "test"), ("enriched", "k", *_SENSE_FLAGS)),
    "random": (("seed", "corpus"), ()),
    "weighted": (("seed", "corpus"), ()),
    "dummy": (("corpus",), ()),
}
_FLAGS = dict.fromkeys(chain.from_iterable(
    flags[part] for part in (0, 1) for flags in _METHOD_FLAGS.values()))


def _check_method_flags(args) -> None:
    required, optional = _METHOD_FLAGS[args.method]
    missing = [f"--{name}" for name in required if getattr(args, name) is None]
    if missing:
        raise UsageError(f"--method {args.method} requires {' and '.join(missing)}")
    unread = [f"--{name.replace('_', '-')}" for name in _FLAGS
              if name not in required + optional and getattr(args, name) is not None]
    if unread:
        raise UsageError(f"--method {args.method} does not read {' or '.join(unread)}")


def cmd_classify(args) -> int:
    _check_ic(args)
    _check_method_flags(args)
    beginners = _beginners(args)

    # one label per NP of `docs`, in corpus order
    if args.method in ("random", "weighted", "dummy"):
        docs = load_corpus(args.corpus)
        labels = evaluation.baseline(args.method, docs, seed=args.seed)
    elif args.method == "rule":
        taxonomy = load_taxonomy(args.taxonomy)
        thresholds = rules.Thresholds(*[
            default if given is None else given
            for given, default in zip((args.t1, args.t2, args.t3), astuple(rules.Thresholds()))])
        docs = load_corpus(args.corpus)
        ic_table = _ic_table(args, taxonomy, docs, docs)
        labels = _rule_labels(docs, taxonomy, ic_table, rules.sense_table(taxonomy, beginners),
                              thresholds, not args.no_reflexive)
    else:
        # memory-based: train on --train, predict --test
        taxonomy = load_taxonomy(args.taxonomy)
        train_docs = load_corpus(args.train)
        docs = load_corpus(args.test)
        senses = _statuses(args, taxonomy, train_docs).sense_table(beginners)
        train_weightings, weightings = _wsd_weightings(args, taxonomy, train_docs, train_docs, docs)
        store = mbl.build_store(train_docs, senses, train_weightings)
        config = mbl.MblConfig() if args.k is None else mbl.MblConfig(k=args.k)
        queries = mbl.feature_table(docs, senses, weightings, store.table.lemma_ids)
        labels = (mbl.knn_classify(queries, row, store, config)
                  for row in range(len(queries.codes)))

    # one prediction line per NP: doc_id, sent_id, np_id, label
    keys = np_columns(docs)[0].keys
    _write_output("".join("%s\t%d\t%d\t%s\n" % (*key, label.value)
                          for key, label in zip(keys, labels, strict=True)), args.out)
    return 0


def cmd_xval(args) -> int:
    _check_ic(args)
    taxonomy = load_taxonomy(args.taxonomy)
    docs = load_corpus(args.corpus)
    senses = _statuses(args, taxonomy, docs).sense_table(_beginners(args))
    (weightings,) = _wsd_weightings(args, taxonomy, docs, docs)
    report, _ = mbl.cross_validate(
        docs, senses, folds=args.folds, config=mbl.MblConfig(k=args.k),
        seed=args.seed, weightings=weightings,
    )
    _write_output(evaluation.format_report(report), args.out)
    return 0


def cmd_eval(args) -> int:
    gold_labels = _labels_for(args.gold)
    predicted = _labels_for(args.pred)
    missing = [key for key in gold_labels if key not in predicted]
    if missing:
        raise ValueError(f"{len(missing)} gold NPs lack predictions, e.g. {missing[0]}")
    keys = sorted(gold_labels)
    report = evaluation.score(
        [gold_labels[k] for k in keys],
        [predicted[k] for k in keys],
        include_unknown=not args.ignore_unknown,
    )
    _write_output(evaluation.format_report(report), args.out)
    return 0


def cmd_kappa(args) -> int:
    first = _labels_for(args.a)
    second = _labels_for(args.b)
    keys = sorted(set(first) & set(second))
    if not keys:
        raise ValueError("the two annotations share no NP keys")
    value, agreement = evaluation.kappa(
        [first[k] for k in keys], [second[k] for k in keys]
    )
    kappa_text = "-" if value is None else repr(value)
    _write_output(
        "kappa\traw_agreement\titems\n%s\t%r\t%d\n" % (kappa_text, agreement, len(keys)),
        args.out,
    )
    return 0


def cmd_simulate(args) -> int:
    docs = load_corpus(args.corpus)
    labels = _labels_for(args.labels) if args.labels else resolution.gold_assignment(docs)
    result = resolution.run_harness(
        docs, labels, window=args.window,
        count_prefilter_misses=not args.only_filter_losses,
    )
    _write_output(
        "success_rate\tavg_candidates\tpct_no_antecedent\n%r\t%r\t%r\n"
        % (result.success_rate, result.avg_candidates, result.pct_no_antecedent),
        args.out,
    )
    return 0


def cmd_sweep(args) -> int:
    for axis in ("p", "r"):
        low, high = getattr(args, f"{axis}_from"), getattr(args, f"{axis}_to")
        if low > high:
            raise UsageError(f"empty range: --{axis}-from {low} is above --{axis}-to {high}")
    docs = load_corpus(args.corpus)
    grid = resolution.sweep(
        docs,
        precision_percents=range(args.p_from, args.p_to + 1, args.p_step),
        recall_percents=range(args.r_from, args.r_to + 1, args.r_step),
        runs=args.runs,
        seed=args.seed,
        window=args.window,
    )
    _write_output(resolution.sweep_csv(grid), args.out)
    if args.marginals:
        _write_output(resolution.marginal_csv(grid), args.marginals)
    return 0


def _add_learner_flags(parser, enriched_help: str) -> None:
    """The flags that classify and xval share."""
    parser.add_argument("--enriched", help=enriched_help)
    # None until given, so classify can tell a given flag from an unset one
    parser.add_argument("--k", type=bounded(int, 1),
                        help=f"nearest distances (ml; default {mbl.MblConfig.k})")
    parser.add_argument("--wsd", action="store_true", default=None,
                        help="weight senses by context")
    parser.add_argument("--ic", help="COUNT file overriding the frequency source")
    parser.add_argument("--out", default=None)
    for pos in ("noun", "verb"):
        parser.add_argument(
            f"--animate-{pos}-lexfiles", type=lexfile_list,
            help=f"comma-separated lexfile numbers treated as animate for {pos}s",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="animacy",
        description="Animacy classification and its evaluation harnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("import-wndb", help="convert WordNet database files")
    p.add_argument("--noun", help="path to data.noun")
    p.add_argument("--verb", help="path to data.verb")
    p.add_argument("--index-noun", help="optional index.noun for cross-checking")
    p.add_argument("--index-verb", help="optional index.verb for cross-checking")
    p.add_argument("--out", help="output taxonomy file (default stdout)")
    p.set_defaults(func=cmd_import_wndb)

    p = sub.add_parser("annotate", help="interactively label a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("enrich", help="compute per-synset animacy statuses")
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--alpha", type=bounded(float, 0, 1, closed=False), default=0.05,
                   help="significance level for the chi-square tests")
    p.set_defaults(func=cmd_enrich)

    p = sub.add_parser("classify", help="predict NP animacy")
    p.add_argument("--method", required=True, choices=list(_METHOD_FLAGS))
    p.add_argument("--taxonomy", help="taxonomy file (rule and ml)")
    p.add_argument("--corpus", help="corpus to classify (rule and baselines)")
    p.add_argument("--train", help="training corpus (ml)")
    p.add_argument("--test", help="corpus to classify (ml)")
    for flag, default, meaning in zip(("--t1", "--t2", "--t3"), astuple(rules.Thresholds()),
                                      ("noun animacy", "noun inanimacy", "verb animacy")):
        p.add_argument(flag, type=bounded(float, 0, 1),
                       help=f"{meaning} threshold (rule; default {default})")
    p.add_argument("--seed", type=bounded(int, 0), default=None,
                   help="rng seed (required for random/weighted)")
    p.add_argument("--no-reflexive", action="store_true", default=None,
                   help="contextual rule checks the who-complementizer only")
    _add_learner_flags(p, "statuses file (ml; default: enrich --train)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("xval", help="k-fold cross-validation of the ml method")
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--folds", type=bounded(int, 2), default=10)
    p.add_argument("--seed", type=bounded(int, 0), required=True)
    _add_learner_flags(p, "statuses file (default: enrich --corpus)")
    p.set_defaults(func=cmd_xval, k=mbl.MblConfig.k)

    p = sub.add_parser("eval", help="score predictions against gold labels")
    p.add_argument("--gold", required=True,
                   help="annotated corpus or prediction TSV with gold labels")
    p.add_argument("--pred", required=True, help="prediction TSV")
    p.add_argument("--ignore-unknown", action="store_true",
                   help="drop unknown predictions instead of counting them as errors")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("kappa", help="inter-annotator agreement")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser("simulate", help="run the candidate-filtering harness once")
    p.add_argument("--corpus", required=True)
    p.add_argument("--labels", help="label assignment (default: gold labels)")
    p.add_argument("--window", type=bounded(int, 0), default=2,
                   help="preceding sentences searched for candidates")
    p.add_argument("--only-filter-losses", action="store_true",
                   help="count as antecedent-less only pronouns the filter broke")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="precision/recall error-injection sweep")
    p.add_argument("--corpus", required=True)
    for axis, low in (("p", 10), ("r", 50)):
        p.add_argument(f"--{axis}-from", type=bounded(int, 1, 100), default=low)
        p.add_argument(f"--{axis}-to", type=bounded(int, 1, 100), default=100)
        p.add_argument(f"--{axis}-step", type=bounded(int, 1), default=1)
    p.add_argument("--runs", type=bounded(int, 1), default=50)
    p.add_argument("--seed", type=bounded(int, 0), required=True)
    p.add_argument("--window", type=bounded(int, 0), default=2)
    p.add_argument("--marginals", help="also write axis-averaged curves here")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
