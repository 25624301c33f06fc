import dataclasses
import random
import re
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from animacy.cli import main
from animacy.corpus import (
    CorpusError,
    Document,
    Label,
    NPColumns,
    NPRecord,
    PronounRecord,
    dump_corpus,
    load_corpus,
    pronoun_ratio,
    run_annotation_session,
)
from animacy.data import mini_corpus_path, toy_taxonomy_path
from animacy.enrichment import accumulate_counts
from animacy.fileio import read_lines, write_atomic
from animacy.mbl import build_store, cross_validate, feature_table
from animacy.resolution import gold_assignment, sweep


def iter_nps(docs):
    """All NPs of a corpus in text order, paired with their document."""
    for doc in docs:
        for np in doc.nps:
            yield doc, np


def make_np(doc="d", sent=0, np=0, head="thing", gold=None, **kwargs):
    defaults = dict(
        doc_id=doc, sent_id=sent, np_id=np, head_lemma=head,
        is_subject=False, verb_lemma=None, has_who=False,
        has_reflexive=False, gold=gold, sense_key=None, surface=head,
    )
    defaults.update(kwargs)
    return NPRecord(**defaults)


class TestLoading:
    def test_two_document_sample(self, tmp_path):
        path = tmp_path / "sample.tsv"
        path.write_text(
            "DOC\ta\t1\t3\n"
            "NP\ta\t0\t0\tman\t1\tspeak\t0\t0\tA\t-\tthe man\n"
            "NP\ta\t0\t1\trock\t0\t-\t0\t0\tI\t-\ta rock\n"
            "DOC\tb\t0\t0\n"
            "NP\tb\t0\t0\ttable\t0\t-\t0\t0\t-\t-\tthe table\n"
        )
        docs = load_corpus(path)
        assert [d.doc_id for d in docs] == ["a", "b"]
        assert [len(d.nps) for d in docs] == [2, 1]
        assert docs[0].nps[0].gold is Label.ANIMATE
        assert docs[1].nps[0].gold is None

    def test_dangling_antecedent(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text(
            "DOC\ta\t1\t0\n"
            "NP\ta\t0\t0\tman\t0\t-\t0\t0\tA\t-\tthe man\n"
            "PRON\ta\t1\the\t1\t0\t9\n"
        )
        with pytest.raises(CorpusError, match="line 3: a: .* missing antecedent"):
            load_corpus(path)

    def test_duplicate_np_key(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text(
            "DOC\ta\t0\t0\n"
            "NP\ta\t0\t0\tman\t0\t-\t0\t0\tA\t-\tx\n"
            "NP\ta\t0\t0\tman\t0\t-\t0\t0\tA\t-\ty\n"
        )
        with pytest.raises(CorpusError, match=r"line 3: duplicate NP key \('a', 0, 0\)"):
            load_corpus(path)

    def test_first_duplicate_is_named(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text(EDGE_CASES["first of three duplicates"])
        with pytest.raises(CorpusError, match="line 4: duplicate NP key"):
            load_corpus(path)

    def test_verb_on_non_subject_rejected(self, tmp_path):
        path = tmp_path / "verb.tsv"
        path.write_text(
            "DOC\ta\t0\t0\n"
            "NP\ta\t0\t0\tman\t0\tspeak\t0\t0\tA\t-\tx\n"
        )
        with pytest.raises(CorpusError, match="non-subject"):
            load_corpus(path)

    def test_round_trip(self, mini_corpus, tmp_path):
        path = tmp_path / "copy.tsv"
        write_atomic(path, dump_corpus(mini_corpus))
        again = load_corpus(path)
        assert again == mini_corpus
        # and a second serialization is byte-identical
        assert dump_corpus(again) == dump_corpus(mini_corpus)

    def test_surface_may_contain_tabs_free_text(self, mini_corpus):
        assert all("\n" not in np.surface for d in mini_corpus for np in d.nps)


class TestPronounRatio:
    def test_quarter(self):
        doc = Document("d", (), 10, 30)
        assert pronoun_ratio(doc) == 0.25

    def test_no_pronouns_is_zero(self):
        assert pronoun_ratio(Document("d", (), 0, 0)) == 0.0

    def test_all_animate(self):
        assert pronoun_ratio(Document("d", (), 5, 0)) == 1.0

    def test_range(self, mini_corpus):
        for doc in mini_corpus:
            assert 0.0 <= pronoun_ratio(doc) <= 1.0


class TestAnnotationSession:
    def docs(self, n=3):
        nps = tuple(make_np(sent=0, np=i, head=f"w{i}") for i in range(n))
        return [Document("d", nps, 0, 0)]

    def labels(self, docs):
        return [np.gold for np in docs[0].nps]

    def test_a_i_q_leaves_third_unlabelled(self):
        out, assigned = run_annotation_session(self.docs(3), iter("aiq"), echo=lambda _: None)
        assert assigned == 2
        assert self.labels(out) == [Label.ANIMATE, Label.INANIMATE, None]

    def test_undo_replaces_label(self):
        out, assigned = run_annotation_session(self.docs(1), iter("auiq"), echo=lambda _: None)
        assert assigned == 1
        assert self.labels(out) == [Label.INANIMATE]

    def test_fully_annotated_corpus_is_untouched(self):
        docs = [Document(
            "d",
            tuple(make_np(np=i, gold=Label.ANIMATE) for i in range(2)),
            0, 0,
        )]
        out, assigned = run_annotation_session(docs, iter("iq"), echo=lambda _: None)
        assert assigned == 0
        assert out == docs

    def test_exhausted_keys_save_partial_progress(self):
        out, assigned = run_annotation_session(self.docs(3), iter("a"), echo=lambda _: None)
        assert assigned == 1
        assert self.labels(out) == [Label.ANIMATE, None, None]

    def test_existing_labels_never_modified(self):
        nps = (make_np(np=0, gold=Label.INANIMATE), make_np(np=1))
        docs = [Document("d", nps, 0, 0)]
        out, _ = run_annotation_session(docs, iter("aq"), echo=lambda _: None)
        assert out[0].nps[0].gold is Label.INANIMATE
        assert out[0].nps[1].gold is Label.ANIMATE

    def test_interrupt_behaves_like_quit_with_save(self):
        def keys():
            yield "a"
            raise KeyboardInterrupt

        out, assigned = run_annotation_session(self.docs(3), keys(), echo=lambda _: None)
        assert assigned == 1
        assert self.labels(out) == [Label.ANIMATE, None, None]


def test_key_is_built_once_and_is_not_a_field():
    record = make_np(doc="d", sent=2, np=5)
    assert record.key == ("d", 2, 5)
    assert record.key is record.key
    assert "key" not in {field.name for field in dataclasses.fields(NPRecord)}
    assert record == make_np(doc="d", sent=2, np=5)
    assert dataclasses.replace(record, np_id=6).key == ("d", 2, 6)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.key = ("d", 0, 0)


def test_gold_unknown_rejected():
    with pytest.raises(CorpusError):
        make_np(gold=Label.UNKNOWN)


def test_np_columns_follow_the_record_fields():
    assert NPColumns._fields == (*(f.name for f in dataclasses.fields(NPRecord)), "keys")


@pytest.fixture
def built(monkeypatch):
    """Every `NPRecord` built while the test runs, in order."""
    records = []
    check = NPRecord.__post_init__
    monkeypatch.setattr(NPRecord, "__post_init__",
                        lambda record: (records.append(record), check(record))[1])
    return records


def test_loaded_documents_build_records_on_first_read(built):
    docs = load_corpus(mini_corpus_path())
    assert built == []
    first = docs[0].nps
    assert list(first) == built and docs[0].nps is first
    assert docs[1] == dataclasses.replace(docs[1])
    assert len(built) == len(first) + len(docs[1].nps)


def test_corpus_passes_build_no_records(built, toy_taxonomy, enriched):
    """`gold_assignment`, `accumulate_counts`, `build_store`,
    `cross_validate`, `feature_table` (the query rows of `classify --method
    ml`) and `sweep` read a loaded corpus from its NP columns."""
    docs = load_corpus(mini_corpus_path())
    labels = gold_assignment(docs)
    counts, _ = accumulate_counts(docs, toy_taxonomy)
    store = build_store(docs, enriched.sense_table())
    _, predicted = cross_validate(docs, enriched.sense_table(), seed=7)
    queries = feature_table(docs, enriched.sense_table(), lemma_ids=store.table.lemma_ids)
    grid = sweep(docs, [50, 100], [100], runs=2)
    assert built == []
    assert labels and counts.observed_ids() and grid.cells
    assert len(store.table.codes) == len(predicted) == 60 == len(queries.codes)


@pytest.mark.parametrize("argv", [
    ["xval", "--seed", "7", "--corpus", "{corpus}"],
    ["classify", "--method", "ml", "--train", "{corpus}", "--test", "{corpus}"],
])
@pytest.mark.parametrize("wsd", [[], ["--wsd"]])
def test_ml_commands_build_no_records(built, tmp_path, argv, wsd):
    """`xval` and `classify --method ml` run on the corpus columns."""
    out = tmp_path / "out.tsv"
    argv = [arg.format(corpus=mini_corpus_path()) for arg in argv]
    assert main([*argv, *wsd, "--taxonomy", toy_taxonomy_path(), "--out", str(out)]) == 0
    assert built == [] and out.read_text()


@pytest.mark.parametrize("method", [["dummy"], ["random", "--seed", "1"],
                                    ["weighted", "--seed", "1"]])
def test_baseline_commands_build_no_records(built, tmp_path, method):
    """`classify --method dummy|random|weighted` read the NP counts from
    the corpus columns."""
    out = tmp_path / "out.tsv"
    assert main(["classify", "--method", *method, "--corpus", mini_corpus_path(),
                 "--out", str(out)]) == 0
    assert built == [] and len(out.read_text().splitlines()) == 60


# --- the record-by-record loader, kept as an oracle for `load_corpus` --------

def oracle_flag(value, what):
    if value == "0":
        return False
    if value == "1":
        return True
    raise CorpusError(f"{what} must be 0 or 1, got {value!r}")


def oracle_int(value, what):
    # the writers' spelling: ASCII digits, optionally negative
    if not re.fullmatch(r"-?[0-9]+", value, re.ASCII):
        raise CorpusError(f"bad {what} {value!r}")
    return int(value)


def oracle_load_corpus(path):
    """Every record through its dataclass constructor, then every document
    through `Document`, whose checks walk its NPs a second time."""
    order, counts, nps, prons = [], {}, {}, {}
    for lineno, line in read_lines(path, CorpusError):
        if not line or line.startswith("#"):
            continue
        kind = line.split("\t", 1)[0]
        try:
            if kind == "DOC":
                fields = line.split("\t")
                if len(fields) != 4:
                    raise CorpusError("DOC record needs 4 fields")
                doc_id = fields[1]
                if doc_id in counts:
                    raise CorpusError(f"duplicate document {doc_id}")
                counts[doc_id] = (
                    oracle_int(fields[2], "pronoun count"),
                    oracle_int(fields[3], "pronoun count"),
                )
                order.append(doc_id)
                nps[doc_id] = []
                prons[doc_id] = []
            elif kind == "NP":
                fields = line.split("\t", 11)
                if len(fields) != 12:
                    raise CorpusError("NP record needs 12 fields")
                (_, doc_id, sent, npid, head, subj, verb, who, refl,
                 gold, sense, surface) = fields
                if doc_id not in counts:
                    raise CorpusError(f"NP before DOC {doc_id}")
                nps[doc_id].append(NPRecord(
                    doc_id=doc_id,
                    sent_id=oracle_int(sent, "sentence id"),
                    np_id=oracle_int(npid, "np id"),
                    head_lemma=head,
                    is_subject=oracle_flag(subj, "subject flag"),
                    verb_lemma=None if verb == "-" else verb,
                    has_who=oracle_flag(who, "who flag"),
                    has_reflexive=oracle_flag(refl, "reflexive flag"),
                    gold=None if gold == "-" else Label(gold),
                    sense_key=None if sense == "-" else sense,
                    surface=surface,
                ))
            elif kind == "PRON":
                fields = line.split("\t")
                if len(fields) != 7:
                    raise CorpusError("PRON record needs 7 fields")
                _, doc_id, sent, surface, animate, ant_sent, ant_np = fields
                if doc_id not in counts:
                    raise CorpusError(f"PRON before DOC {doc_id}")
                if (ant_sent == "-") != (ant_np == "-"):
                    raise CorpusError("antecedent fields must both be set or both '-'")
                antecedent = None
                if ant_sent != "-":
                    antecedent = (
                        oracle_int(ant_sent, "antecedent sentence"),
                        oracle_int(ant_np, "antecedent np"),
                    )
                prons[doc_id].append(PronounRecord(
                    sent_id=oracle_int(sent, "sentence id"),
                    surface=surface,
                    animate=oracle_flag(animate, "animate flag"),
                    antecedent=antecedent,
                ))
            else:
                raise CorpusError(f"unknown record kind {kind!r}")
        except ValueError as exc:
            raise CorpusError(f"{path} line {lineno}: {exc}") from None

    documents = []
    for doc_id in order:
        ani, inani = counts[doc_id]
        try:
            documents.append(Document(
                doc_id=doc_id,
                nps=tuple(nps[doc_id]),
                animate_pronoun_count=ani,
                inanimate_pronoun_count=inani,
                pronouns=tuple(prons[doc_id]),
            ))
        except CorpusError as exc:
            raise CorpusError(f"{path}: {exc}") from None
    return documents


# The fast loader names the line of these three errors; the oracle cannot.
LINE_NAMED = re.compile(
    r" line \d+(?=: (duplicate NP key |[^:]*: pronoun at sentence |[^:]*: negative pronoun count))"
)


def load_outcome(load, path):
    """The documents `load` reads from `path`, or its error message with
    the line dropped from the three errors only the fast loader places."""
    try:
        return load(path)
    except CorpusError as exc:
        return LINE_NAMED.sub("", str(exc), count=1)


def assert_same_documents(docs, expected):
    assert docs == expected
    assert hash(tuple(docs)) == hash(tuple(expected))
    assert repr(docs) == repr(expected)


# ids that fit int64 and ids beyond it
IDS = st.integers(0, 3) | st.sampled_from([2**63, 2**64 + 1, -(2**63) - 1])
# surfaces with a tab, with characters that `str.splitlines` (but not a
# corpus file) takes for line breaks, and with a non-ASCII letter
SURFACES = ["the man", "a rock\twith a tab", "it", "page\x0bbreak", "file\x1csep",
            "next\x85line", "line\u2028sep", "the caf\u00e9"]


@st.composite
def corpus_lines(draw, min_docs=0, unique_docs=False):
    """Corpus lines over a small id space: doc ids may repeat unless
    `unique_docs`, sentence and NP ids may lie beyond int64, NPs may be
    unlabelled or carry verbs and sense keys, pronouns may lack an
    antecedent, and a document's NP and PRON lines come in any order.
    With `min_docs`, every document has an NP."""
    doc_ids = draw(st.lists(st.sampled_from(["d1", "d2", "d3", "d4", "d5"]),
                            min_size=min_docs, max_size=4, unique=unique_docs))
    lines = []
    for doc_id in doc_ids:
        lines.append("DOC\t%s\t%d\t%d" % (
            doc_id, draw(st.integers(0, 5)), draw(st.integers(0, 5))))
        keys = draw(st.lists(st.tuples(IDS, IDS),
                             min_size=min_docs, max_size=6, unique=True))
        body = []
        for sent, npid in keys:
            subject = draw(st.booleans())
            verb = draw(st.sampled_from(["say", "run"])) if subject and draw(
                st.booleans()) else "-"
            body.append("NP\t%s\t%d\t%d\t%s\t%d\t%s\t%d\t%d\t%s\t%s\t%s" % (
                doc_id, sent, npid, draw(st.sampled_from(["man", "rock", "dog"])),
                subject, verb, draw(st.booleans()), draw(st.booleans()),
                draw(st.sampled_from("AI-")), draw(st.sampled_from(["n1", "n2", "-"])),
                draw(st.sampled_from(SURFACES)),
            ))
        for _ in range(draw(st.integers(0, 3))):
            antecedent = draw(st.none() | st.sampled_from(keys)) if keys else None
            ant_sent, ant_np = map(str, antecedent) if antecedent else ("-", "-")
            body.append("PRON\t%s\t%d\t%s\t%d\t%s\t%s" % (
                doc_id, draw(IDS), draw(st.sampled_from(["he", "it"])),
                draw(st.booleans()), ant_sent, ant_np,
            ))
        lines.extend(draw(st.permutations(body)))
    return lines


def write_lines(directory, lines):
    path = f"{directory}/corpus.tsv"
    with open(path, "w", encoding="utf-8", errors="surrogateescape") as handle:
        handle.write("".join(line + "\n" for line in lines))
    return path


def reloaded(docs):
    """`docs` after `dump_corpus` and `load_corpus`: documents that hold
    their NPs as columns.  A corpus file cannot repeat a document id, so
    each run of documents with distinct ids goes through a file of its
    own, and a corpus that repeats one comes back in several sets of
    columns."""
    runs = []
    for doc in docs:
        if not runs or doc.doc_id in {d.doc_id for d in runs[-1]}:
            runs.append([])
        runs[-1].append(doc)
    loaded = []
    with tempfile.TemporaryDirectory() as tmp:
        for run in runs:
            path = f"{tmp}/corpus.tsv"
            write_atomic(path, dump_corpus(run))
            loaded += load_corpus(path)
    return loaded


class TestLoaderMatchesOracle:
    @settings(max_examples=100, deadline=None)
    @given(lines=corpus_lines())
    def test_same_documents_or_error(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_lines(tmp, lines)
            expected = load_outcome(oracle_load_corpus, path)
            got = load_outcome(load_corpus, path)
            if isinstance(expected, str):
                assert got == expected
            else:
                assert_same_documents(got, expected)

    def test_bundled_corpus(self):
        assert_same_documents(load_corpus(mini_corpus_path()),
                              oracle_load_corpus(mini_corpus_path()))

    def test_loaded_records_are_frozen(self, mini_corpus):
        doc = mini_corpus[0]
        for record in (doc, doc.nps[0], doc.pronouns[0]):
            with pytest.raises(dataclasses.FrozenInstanceError):
                record.surface = "changed"


CORRUPTIONS = ("bad flag", "bad int", "gold U", "verb on non-subject", "NP before DOC",
               "wrong field count", "duplicate NP key", "dangling antecedent",
               "unknown record kind", "invalid UTF-8 byte", "duplicate DOC",
               "half-set antecedent")


def corrupt(lines, kind, rng):
    """Apply one corruption in place to the lines of a saved corpus."""
    def pick(*kinds):
        return rng.choice([i for i, line in enumerate(lines)
                           if line.split("\t", 1)[0] in kinds])

    np_at = pick("NP")
    fields = lines[np_at].split("\t")
    if kind == "NP before DOC":
        fields[1] = "ghost"
        lines.insert(rng.randrange(len(lines) + 1), "\t".join(fields))
        return
    if kind == "duplicate NP key":
        fields[11] = "twin"
        lines.insert(rng.randrange(np_at + 1, len(lines) + 1), "\t".join(fields))
        return
    if kind == "dangling antecedent":
        lines.append("PRON\t%s\t9\the\t1\t9\t%d" % (fields[1], rng.randrange(2)))
        return
    if kind == "unknown record kind":
        lines.insert(rng.randrange(len(lines) + 1), "%s\t%s\t0" % (
            rng.choice(["np", "NPS", "PRONOUN", "D0C", ""]), fields[1]))
        return
    if kind == "invalid UTF-8 byte":
        # a byte no UTF-8 text holds, in a comment line or after a line's first tab
        byte = rng.choice(["\udcff", "\udcfe", "\udca9"])
        at = rng.randrange(len(lines) + 1)
        if at == len(lines) or rng.random() < 0.3:
            lines.insert(at, "# caf" + byte)
        else:
            cut = rng.randrange(lines[at].find("\t") + 1, len(lines[at]) + 1)
            lines[at] = lines[at][:cut] + byte + lines[at][cut:]
        return
    if kind == "duplicate DOC":
        lines.insert(rng.randrange(len(lines) + 1), lines[pick("DOC")])
        return
    if kind == "half-set antecedent":
        if not any(line.startswith("PRON\t") for line in lines):
            lines.append("PRON\t%s\t0\the\t1\t-\t-" % fields[1])
        at = pick("PRON")
        fields = lines[at].split("\t")
        fields[rng.choice([5, 6])] = "0" if fields[5] == "-" else "-"
        lines[at] = "\t".join(fields)
        return
    at = np_at
    if kind == "bad flag":
        at = pick("NP", "PRON")
        fields = lines[at].split("\t")
        fields[rng.choice([5, 7, 8] if fields[0] == "NP" else [4])] = rng.choice(
            ["2", "", "yes"])
    elif kind == "bad int":
        at = pick("NP", "PRON", "DOC")
        fields = lines[at].split("\t")
        places = {"NP": [2, 3], "DOC": [2, 3], "PRON": [2]}[fields[0]]
        if fields[0] == "PRON" and fields[5] != "-":
            places += [5, 6]
        # a negative count is an int, but fails the document's own check;
        # `int` alone would take the last four
        fields[rng.choice(places)] = rng.choice(
            ["x", "1.5", "", "-1", "1_0", "+3", " 3", "\u0661\u0668"])
    elif kind == "gold U":
        fields[9] = "U"
    elif kind == "verb on non-subject":
        fields[5], fields[6] = "0", "speak"
    else:
        at = rng.randrange(len(lines))
        fields = lines[at].split("\t")
        fields = rng.choice([fields[:-1], fields[:2], fields + ["extra"]])
    lines[at] = "\t".join(fields)


class TestLoaderErrorsMatchOracle:
    @settings(max_examples=100, deadline=None)
    @given(
        lines=corpus_lines(min_docs=1, unique_docs=True),
        kinds=st.lists(st.sampled_from(CORRUPTIONS), min_size=1, max_size=2),
        seed=st.integers(0, 2**16),
    )
    def test_same_first_error(self, lines, kinds, seed):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_lines(tmp, lines)
            saved = dump_corpus(oracle_load_corpus(path)).split("\n")[:-1]
            rng = random.Random(seed)
            # a wrong field count goes last, so the other corruptions find
            # well-formed fields to change
            for kind in sorted(kinds, key=lambda k: k == "wrong field count"):
                corrupt(saved, kind, rng)
            path = write_lines(tmp, saved)
            expected = load_outcome(oracle_load_corpus, path)
            got = load_outcome(load_corpus, path)
            if isinstance(expected, str):
                assert got == expected
            else:
                assert_same_documents(got, expected)


NP_LINE = "NP\t{doc}\t{sent}\t{np}\tman\t0\t-\t0\t0\tA\t-\tthe man\n"
EDGE_CASES = {
    # the first error is the first bad line, before any document's checks
    "line error after duplicate": (
        "DOC\td1\t0\t0\n" + NP_LINE.format(doc="d1", sent=0, np=0) * 2
        + "NP\td1\t1\t0\tman\t2\t-\t0\t0\tA\t-\tx\n"),
    "line error after dangling": (
        "DOC\td1\t0\t0\nPRON\td1\t0\the\t1\t5\t5\nDOC\td1\t0\t0\n"),
    # then the documents in file order, each checked in a fixed order
    "negative count before duplicate": (
        "DOC\td1\t-1\t0\n" + NP_LINE.format(doc="d1", sent=0, np=0) * 2),
    "duplicate before dangling": (
        "DOC\td1\t0\t0\nPRON\td1\t0\the\t1\t5\t5\n"
        + NP_LINE.format(doc="d1", sent=0, np=0) * 2),
    "dangling in an earlier document": (
        "DOC\td1\t0\t0\nDOC\td2\t0\t-4\n" + NP_LINE.format(doc="d2", sent=0, np=0) * 2
        + "PRON\td1\t0\the\t1\t0\t0\n"),
    "first of three duplicates": (
        "DOC\td1\t0\t0\n" + NP_LINE.format(doc="d1", sent=0, np=1)
        + NP_LINE.format(doc="d1", sent=0, np=0) * 3),
    "same key in two documents": (
        "DOC\td1\t0\t0\nDOC\td2\t0\t0\n" + NP_LINE.format(doc="d2", sent=0, np=0)
        + NP_LINE.format(doc="d1", sent=0, np=0)
        + "PRON\td1\t1\tit\t0\t0\t0\nPRON\td2\t1\tit\t0\t0\t0\n"),
    "antecedent after its pronoun": (
        "DOC\td1\t1\t0\nPRON\td1\t1\the\t1\t0\t0\n" + NP_LINE.format(doc="d1", sent=0, np=0)),
    "gold U on a non-subject with a verb": (
        "DOC\td1\t0\t0\nNP\td1\t0\t0\tman\t0\tsay\t0\t0\tU\t-\tx\n"),
    "bad gold before bad verb": (
        "DOC\td1\t0\t0\nNP\td1\t0\t0\tman\t0\tsay\t0\t0\tQ\t-\tx\n"),
    "bad int before bad flag": (
        "DOC\td1\t0\t0\nNP\td1\t0\tx\tman\t2\t-\t0\t0\tA\t-\tx\n"),
    # integers only as the writers spell them
    "underscore in a sentence id": "DOC\td1\t0\t0\n" + NP_LINE.format(doc="d1", sent="1_0", np=0),
    "plus sign on an np id": "DOC\td1\t0\t0\n" + NP_LINE.format(doc="d1", sent=0, np="+3"),
    "space before a pronoun count": "DOC\td1\t 3\t0\n",
    "arabic-indic digits in an antecedent": (
        "DOC\td1\t1\t0\n" + NP_LINE.format(doc="d1", sent=0, np=0)
        + "PRON\td1\t1\the\t1\t0\t\u0660\n"),
    "negative ids": (
        "DOC\td1\t1\t0\n" + NP_LINE.format(doc="d1", sent=-1, np=-20)
        + "PRON\td1\t-1\the\t1\t-1\t-20\n"),
    # line endings and lines that hold no record
    "lone cr line endings": (
        "DOC\td1\t1\t0\r" + NP_LINE.format(doc="d1", sent=0, np=0).replace("\n", "\r")
        + "PRON\td1\t1\the\t1\t0\t0\r"),
    "byte order mark": "\ufeffDOC\td1\t0\t0\n" + NP_LINE.format(doc="d1", sent=0, np=0),
    "blank and comment lines between records": (
        "# corpus\n\nDOC\td1\t0\t0\n\n# first NP\n" + NP_LINE.format(doc="d1", sent=0, np=0)
        + "#\n\n\nPRON\td1\t0\tit\t0\t-\t-\n# end\n"),
    "no final newline": (
        "DOC\td1\t0\t0\n" + NP_LINE.format(doc="d1", sent=0, np=0)
        + "PRON\td1\t1\the\t1\t0\t0"),
}


def test_negative_count_names_the_doc_line(tmp_path):
    # the count is read from the DOC line, so that is the line named
    path = tmp_path / "case.tsv"
    path.write_text("DOC\td1\t0\t0\n" + NP_LINE.format(doc="d1", sent=0, np=0)
                    + "DOC\td2\t2\t-1\n" + NP_LINE.format(doc="d2", sent=0, np=0))
    with pytest.raises(CorpusError) as info:
        load_corpus(path)
    assert str(info.value) == f"{path} line 3: d2: negative pronoun count"


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_hand_written_files_load_as_oracle(tmp_path, case):
    path = tmp_path / "case.tsv"
    path.write_text(EDGE_CASES[case])
    expected = load_outcome(oracle_load_corpus, path)
    got = load_outcome(load_corpus, path)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert_same_documents(got, expected)
