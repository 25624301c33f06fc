"""Annotated noun-phrase corpora: data model, TSV I/O and the labelling loop.

A corpus file holds three record kinds, one per line, tab-separated:

    DOC  <TAB> doc_id <TAB> animate_pron_count <TAB> inanimate_pron_count
    NP   <TAB> doc_id <TAB> sent_id <TAB> np_id <TAB> head_lemma <TAB> subj(0|1)
         <TAB> verb_lemma|- <TAB> who(0|1) <TAB> refl(0|1) <TAB> gold(A|I|-)
         <TAB> sense|- <TAB> surface text
    PRON <TAB> doc_id <TAB> sent_id <TAB> surface <TAB> animate(0|1)
         <TAB> antecedent_sent|- <TAB> antecedent_np|-

NP order in the file is text order.  Heads arrive already lemmatized and
singularized; no morphology happens here.

`load_corpus` reads a file once, line by line, checking each line as it
goes and adding each NP's fields to one set of columns (`NPColumns`),
which the loaded documents share, each owning a range of rows.
`Document.nps` builds a document's `NPRecord`s from its rows on first
read; passes over a whole corpus read the columns through `np_columns`
and build no records.
"""

from __future__ import annotations

import enum
import sys
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import chain
from typing import Callable, Iterable, NamedTuple, Sequence

from .fileio import is_int, read_lines


class CorpusError(ValueError):
    """Malformed or inconsistent corpus data.  A `Document` that rejects
    one of its records names it in `record`, as `("nps", i)` or
    `("pronouns", i)`; None stands for the document's own fields."""

    def __init__(self, message: str, record: tuple[str, int] | None = None):
        super().__init__(message)
        self.record = record


class Label(str, enum.Enum):
    """Animacy label. Gold annotations use ANIMATE/INANIMATE only; UNKNOWN
    marks predictions the classifier could not make (out-of-vocabulary)."""

    ANIMATE = "A"
    INANIMATE = "I"
    UNKNOWN = "U"

    def __str__(self) -> str:
        return self.value


def _check_np(key, is_subject: bool, verb_lemma: str | None, gold: Label | None) -> None:
    if verb_lemma is not None and not is_subject:
        raise CorpusError(f"{key}: governing verb recorded for a non-subject NP")
    if gold is Label.UNKNOWN:
        raise CorpusError(f"{key}: gold annotations cannot be UNKNOWN")


@dataclass(frozen=True)
class NPRecord:
    """One noun-phrase occurrence keyed by (doc_id, sent_id, np_id).

    `key` is that tuple, built once per record rather than per use: a sweep
    looks NPs up by key tens of thousands of times, and maps keyed by it
    then find each key by identity.  It is not a field, so equality,
    hashing and `repr` are unchanged.
    """

    doc_id: str
    sent_id: int
    np_id: int
    head_lemma: str
    is_subject: bool
    verb_lemma: str | None
    has_who: bool
    has_reflexive: bool
    gold: Label | None
    sense_key: str | None
    surface: str

    def __post_init__(self):
        key = (self.doc_id, self.sent_id, self.np_id)
        _check_np(key, self.is_subject, self.verb_lemma, self.gold)
        object.__setattr__(self, "key", key)


class NPColumns(NamedTuple):
    """NPs as columns: one sequence per `NPRecord` field, in field order,
    then `keys`, each NP's (doc_id, sent_id, np_id).  Entry i of every
    column belongs to NP i."""

    doc_id: Sequence[str]
    sent_id: Sequence[int]
    np_id: Sequence[int]
    head_lemma: Sequence[str]
    is_subject: Sequence[bool]
    verb_lemma: Sequence[str | None]
    has_who: Sequence[bool]
    has_reflexive: Sequence[bool]
    gold: Sequence[Label | None]
    sense_key: Sequence[str | None]
    surface: Sequence[str]
    keys: Sequence[tuple[str, int, int]]

    @classmethod
    def of(cls, columns: Sequence[Sequence]) -> "NPColumns":
        """The columns of the `NPRecord` fields, in field order, with keys."""
        return cls(*columns, list(zip(*columns[:3])))

    @classmethod
    def from_records(cls, records: Iterable[NPRecord]) -> "NPColumns":
        records = tuple(records)
        return cls(*([getattr(np, name) for np in records] for name in cls._fields[:-1]),
                   [np.key for np in records])

    def records(self, start: int, stop: int) -> tuple[NPRecord, ...]:
        """The records of rows start to stop."""
        return tuple(map(NPRecord, *(column[start:stop] for column in self[:-1])))

    def take(self, rows: Iterable[int]) -> "NPColumns":
        """The columns of `rows`, in the order given."""
        return NPColumns(*(list(map(column.__getitem__, rows)) for column in self))


@dataclass(frozen=True)
class PronounRecord:
    """A third person singular pronoun occurrence."""

    sent_id: int
    surface: str
    animate: bool
    antecedent: tuple[int, int] | None  # (sent_id, np_id) of the gold antecedent


class _Rows(NamedTuple):
    """Rows start to stop of `columns`: a document's NPs as `load_corpus`
    gives them.  `checked` tells that the loader has found no duplicate
    key among them and every antecedent of the document's pronouns."""

    columns: NPColumns
    start: int
    stop: int
    checked: bool = False


class _RecordsOnRequest:
    """`Document.nps`: the records a document was given or, when it was
    given `_Rows`, the records of those rows, built on first read and
    kept.  A read on the class raises AttributeError, so that `dataclass`
    sees a field without a default."""

    def __get__(self, doc, owner=None):
        if doc is None:
            raise AttributeError("nps")
        state = doc.__dict__
        if "nps" not in state:
            rows = state["_rows"]
            state["nps"] = rows.columns.records(rows.start, rows.stop)
        return state["nps"]

    def __set__(self, doc, value):
        doc.__dict__["_rows" if isinstance(value, _Rows) else "nps"] = value


@dataclass(frozen=True)
class Document:
    """One document: its NPs in text order, its pronoun counts and its
    pronouns.

    A loaded document holds its NPs as rows of its corpus's columns and
    builds the `NPRecord` tuple on the first read of `nps`, so equality,
    hashing, `repr` and `dataclasses.replace`, which read `nps`, see
    records as for a document built from them.  `np_columns` reads the
    rows without building records; a document built from records gets
    columns on first request.  The checks below read keys from the rows.
    """

    doc_id: str
    nps: tuple[NPRecord, ...] = _RecordsOnRequest()
    animate_pronoun_count: int
    inanimate_pronoun_count: int
    pronouns: tuple[PronounRecord, ...] = ()

    def __post_init__(self):
        if self.animate_pronoun_count < 0 or self.inanimate_pronoun_count < 0:
            raise CorpusError(f"{self.doc_id}: negative pronoun count")
        rows = self.__dict__.get("_rows")
        if rows is not None and rows.checked:
            return
        keys = (rows.columns.keys[rows.start:rows.stop] if rows is not None
                else [np.key for np in self.nps])
        seen = set()
        for i, key in enumerate(keys):
            if key in seen:
                raise CorpusError(f"duplicate NP key {key}", ("nps", i))
            seen.add(key)
        np_keys = {key[1:] for key in keys}
        for i, pron in enumerate(self.pronouns):
            if pron.antecedent is not None and pron.antecedent not in np_keys:
                raise CorpusError(
                    f"{self.doc_id}: pronoun at sentence {pron.sent_id} points to "
                    f"missing antecedent {pron.antecedent}", ("pronouns", i),
                )

    @property
    def _np_rows(self) -> _Rows:
        state = self.__dict__
        if "_rows" not in state:
            nps = self.nps
            state["_rows"] = _Rows(NPColumns.from_records(nps), 0, len(nps))
        return state["_rows"]


def np_columns(docs: Iterable[Document]) -> tuple[NPColumns, list[int]]:
    """The NPs of `docs` in corpus order as one `NPColumns`, and each
    document's NP count.

    The documents of a loaded corpus, taken whole and in order, share
    their columns, which come back as they are; any other documents' rows
    are copied into new columns.  No `NPRecord` is built for a loaded
    document.
    """
    spans = [doc._np_rows for doc in docs]
    counts = [span.stop - span.start for span in spans]
    if spans:
        shared = spans[0].columns
        if (spans[0].start == 0 and spans[-1].stop == len(shared.keys)
                and all(span.columns is shared for span in spans)
                and all(a.stop == b.start for a, b in zip(spans, spans[1:]))):
            return shared, counts
    return NPColumns(*(
        list(chain.from_iterable(span.columns[i][span.start:span.stop] for span in spans))
        for i in range(len(NPColumns._fields))
    )), counts


def pronoun_ratio(doc: Document) -> float:
    """Fraction of the document's gendered singular pronouns that are animate.

    Defined as 0 when the document contains no counted pronouns at all,
    since such a text gives no pronoun evidence either way.
    """
    total = doc.animate_pronoun_count + doc.inanimate_pronoun_count
    if total == 0:
        return 0.0
    return doc.animate_pronoun_count / total


def _flag(value: str, what: str) -> bool:
    if value not in _FLAG:
        raise CorpusError(f"{what} must be 0 or 1, got {value!r}")
    return _FLAG[value]


def _int(value: str, what: str) -> int:
    # plain digits, the common case, spare the call
    if value.isdecimal() and value.isascii() or is_int(value):
        return int(value)
    raise CorpusError(f"bad {what} {value!r}")


_FLAG = {"0": False, "1": True}
_GOLD = {"-": None, "A": Label.ANIMATE, "I": Label.INANIMATE}


def load_corpus(path) -> list[Document]:
    """Read a corpus file; returns validated documents in file order.

    Every error names the path and a line.  Errors within one line come
    first, in file order; then each document in turn is built as a
    `Document`, whose checks (a negative pronoun count, a duplicate NP key,
    a pronoun whose antecedent is not one of its NPs) name the record they
    reject, and the error gives that record's line, or the DOC line for
    the counts.

    The file is read once, line by line.  Each NP line adds one entry to
    each of the columns that become the corpus's `NPColumns`, one row per
    NP, grouped by document in file order, and the documents share them:
    no `NPRecord` is built until a document's `nps` is read.
    """
    index: dict[str, int] = {}
    docs, doc_lines = [], []
    # one column per `NPRecord` field
    columns = [[] for _ in range(11)]
    (doc_ids, sent_ids, np_ids, heads, subjects, verbs, whos, reflexives, golds,
     senses, surfaces) = columns
    np_docs, np_lines = [], []
    pronouns, pronoun_docs, pronoun_lines = [], [], []
    flag, gold_of = _FLAG, _GOLD
    for lineno, line in read_lines(path, CorpusError):
        # the surface, an NP's last field, may hold tabs
        fields = line.split("\t", 11)
        kind = fields[0]
        try:
            if kind == "NP" and len(fields) == 12:
                (_, doc_id, sent, npid, head, subj, verb, who, refl,
                 gold, sense, surface) = fields
                d = index.get(doc_id)
                if d is None:
                    raise CorpusError(f"NP before DOC {doc_id}")
                if sent.isdecimal() and npid.isdecimal() and sent.isascii() and npid.isascii():
                    sent_id, np_id = int(sent), int(npid)
                else:  # a negative id, or name the bad one
                    sent_id, np_id = _int(sent, "sentence id"), _int(npid, "np id")
                if subj not in flag or who not in flag or refl not in flag:
                    _flag(subj, "subject flag"), _flag(who, "who flag")
                    _flag(refl, "reflexive flag")
                is_subject = flag[subj]
                label = gold_of[gold] if gold in gold_of else Label(gold)
                verb = None if verb == "-" else verb
                if (verb is not None and not is_subject) or label is Label.UNKNOWN:
                    _check_np((doc_id, sent_id, np_id), is_subject, verb, label)
                doc_ids.append(doc_id)
                sent_ids.append(sent_id)
                np_ids.append(np_id)
                heads.append(head)
                subjects.append(is_subject)
                verbs.append(verb)
                whos.append(flag[who])
                reflexives.append(flag[refl])
                golds.append(label)
                senses.append(None if sense == "-" else sense)
                surfaces.append(surface)
                np_docs.append(d)
                np_lines.append(lineno)
            elif kind == "PRON":
                if len(fields) != 7:
                    raise CorpusError("PRON record needs 7 fields")
                _, doc_id, sent, surface, animate, ant_sent, ant_np = fields
                if doc_id not in index:
                    raise CorpusError(f"PRON before DOC {doc_id}")
                if (ant_sent == "-") != (ant_np == "-"):
                    raise CorpusError("antecedent fields must both be set or both '-'")
                antecedent = None if ant_sent == "-" else (
                    _int(ant_sent, "antecedent sentence"), _int(ant_np, "antecedent np"))
                pronouns.append(PronounRecord(
                    _int(sent, "sentence id"), surface, _flag(animate, "animate flag"),
                    antecedent))
                pronoun_docs.append(index[doc_id])
                pronoun_lines.append(lineno)
            elif kind == "DOC":
                if len(fields) != 4:
                    raise CorpusError("DOC record needs 4 fields")
                doc_id = fields[1]
                if doc_id in index:
                    raise CorpusError(f"duplicate document {doc_id}")
                counts = [_int(count, "pronoun count") for count in fields[2:]]
                index[doc_id] = len(docs)
                docs.append((doc_id, *counts))
                doc_lines.append(lineno)
            elif kind == "NP":
                raise CorpusError("NP record needs 12 fields")
            elif line and line[0] != "#":
                raise CorpusError(f"unknown record kind {kind!r}")
        except ValueError as exc:
            raise CorpusError(f"{path} line {lineno}: {exc}") from None

    nps = NPColumns.of(columns)
    if any(map(int.__gt__, np_docs, np_docs[1:])):
        # a document's NP lines may follow another's DOC line
        order = sorted(range(len(np_docs)), key=np_docs.__getitem__)
        nps, np_lines = nps.take(order), [np_lines[i] for i in order]
        np_docs = [np_docs[i] for i in order]
    by_doc = [[] for _ in docs]
    lines_by_doc = [[] for _ in docs]
    for pronoun, d, lineno in zip(pronouns, pronoun_docs, pronoun_lines):
        by_doc[d].append(pronoun)
        lines_by_doc[d].append(lineno)
    # the keys of two documents differ in their doc id, so one pass over
    # the corpus can spare every document its key checks; if that finds a
    # fault, each document checks itself to name the record
    keys = set(nps.keys)
    checked = len(keys) == len(nps.keys) and all(
        (docs[d][0], *pronoun.antecedent) in keys
        for pronoun, d in zip(pronouns, pronoun_docs)
        if pronoun.antecedent is not None
    )

    documents = []
    start = 0
    for d, (doc_id, animate, inanimate) in enumerate(docs):
        stop = bisect_right(np_docs, d, start)
        try:
            documents.append(Document(
                doc_id, _Rows(nps, start, stop, checked), animate, inanimate,
                tuple(by_doc[d]),
            ))
        except CorpusError as exc:
            field, i = exc.record or ("doc", 0)
            lineno = {"doc": [doc_lines[d]], "nps": np_lines[start:stop],
                      "pronouns": lines_by_doc[d]}[field][i]
            raise CorpusError(f"{path} line {lineno}: {exc}") from None
        start = stop
    return documents


def dump_corpus(docs: Iterable[Document]) -> str:
    lines = []
    for doc in docs:
        lines.append(
            "DOC\t%s\t%d\t%d"
            % (doc.doc_id, doc.animate_pronoun_count, doc.inanimate_pronoun_count)
        )
        for np in doc.nps:
            lines.append(
                "NP\t%s\t%d\t%d\t%s\t%d\t%s\t%d\t%d\t%s\t%s\t%s"
                % (
                    np.doc_id,
                    np.sent_id,
                    np.np_id,
                    np.head_lemma,
                    int(np.is_subject),
                    np.verb_lemma if np.verb_lemma is not None else "-",
                    int(np.has_who),
                    int(np.has_reflexive),
                    np.gold.value if np.gold is not None else "-",
                    np.sense_key if np.sense_key is not None else "-",
                    np.surface,
                )
            )
        for pron in doc.pronouns:
            ant_sent = str(pron.antecedent[0]) if pron.antecedent else "-"
            ant_np = str(pron.antecedent[1]) if pron.antecedent else "-"
            lines.append(
                "PRON\t%s\t%d\t%s\t%d\t%s\t%s"
                % (doc.doc_id, pron.sent_id, pron.surface, int(pron.animate),
                   ant_sent, ant_np)
            )
    return "\n".join(lines) + "\n" if lines else ""


# --- interactive annotation ------------------------------------------------

_BANNER = (
    "Animacy annotation. Keys: a = animate, i = inanimate, u = undo, "
    "q = quit and save.\n"
    "Convention reminder: collective nouns (people, team, jury, ...) are "
    "labelled inanimate."
)


def _context_line(doc: Document, np: NPRecord) -> str:
    same_sentence = [x.surface for x in doc.nps if x.sent_id == np.sent_id]
    return (
        f"[{doc.doc_id} s{np.sent_id}] NPs in sentence: "
        + " | ".join(same_sentence)
        + f"\n  --> {np.surface!r} (head: {np.head_lemma})  [a/i/u/q] "
    )


def run_annotation_session(
    docs: list[Document],
    keystrokes: Iterable[str],
    echo: Callable[[str], None] = lambda msg: print(msg, file=sys.stderr),
) -> tuple[list[Document], int]:
    """Drive one labelling pass over every NP that lacks a gold label.

    `keystrokes` yields one key per step ('a', 'i', 'u', 'q'); undo steps
    back over labels assigned in this session only.  Records that already
    carry gold labels are never touched.  Returns the updated documents
    and the number of labels assigned; the caller decides where to save.
    A KeyboardInterrupt mid-session behaves like quit-with-save.
    """
    todo = [
        (d, n)
        for d, doc in enumerate(docs)
        for n, np in enumerate(doc.nps)
        if np.gold is None
    ]
    assigned: dict[tuple[int, int], Label] = {}
    echo(_BANNER)
    if not todo:
        echo("nothing to annotate")

    keys = iter(keystrokes)
    cursor = 0
    while todo:
        if cursor < len(todo):
            d, n = todo[cursor]
            echo(_context_line(docs[d], docs[d].nps[n]))
        else:
            echo("all NPs annotated; q saves, u steps back")
        try:
            key = next(keys, "q")
        except KeyboardInterrupt:
            key = "q"
        key = key.strip()[:1]
        if key == "q":
            break
        if key == "u":
            if cursor > 0:
                cursor -= 1
                assigned.pop(todo[cursor], None)
            continue
        if key in ("a", "i") and cursor < len(todo):
            assigned[todo[cursor]] = Label.ANIMATE if key == "a" else Label.INANIMATE
            cursor += 1
        elif key:
            echo(f"unrecognized key {key!r}")

    updated = list(docs)
    for (d, n), label in assigned.items():
        doc = updated[d]
        nps = list(doc.nps)
        nps[n] = replace(nps[n], gold=label)
        updated[d] = replace(doc, nps=tuple(nps))
    return updated, len(assigned)
