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
"""

from __future__ import annotations

import enum
import sys
from array import array
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator

from .fileio import read_lines


class CorpusError(ValueError):
    """Malformed or inconsistent corpus data."""


class Label(str, enum.Enum):
    """Animacy label. Gold annotations use ANIMATE/INANIMATE only; UNKNOWN
    marks predictions the classifier could not make (out-of-vocabulary)."""

    ANIMATE = "A"
    INANIMATE = "I"
    UNKNOWN = "U"

    def __str__(self) -> str:
        return self.value


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
        if self.verb_lemma is not None and not self.is_subject:
            raise CorpusError(f"{key}: governing verb recorded for a non-subject NP")
        if self.gold is Label.UNKNOWN:
            raise CorpusError(f"{key}: gold annotations cannot be UNKNOWN")
        object.__setattr__(self, "key", key)


@dataclass(frozen=True)
class PronounRecord:
    """A third person singular pronoun occurrence."""

    sent_id: int
    surface: str
    animate: bool
    antecedent: tuple[int, int] | None  # (sent_id, np_id) of the gold antecedent


@dataclass(frozen=True)
class Document:
    doc_id: str
    nps: tuple[NPRecord, ...]
    animate_pronoun_count: int
    inanimate_pronoun_count: int
    pronouns: tuple[PronounRecord, ...] = ()

    def __post_init__(self):
        if self.animate_pronoun_count < 0 or self.inanimate_pronoun_count < 0:
            raise CorpusError(f"{self.doc_id}: negative pronoun count")
        keys = set()
        for np in self.nps:
            if np.key in keys:
                raise CorpusError(f"duplicate NP key {np.key}")
            keys.add(np.key)
        np_keys = {(np.sent_id, np.np_id) for np in self.nps}
        for pron in self.pronouns:
            if pron.antecedent is not None and pron.antecedent not in np_keys:
                raise CorpusError(
                    f"{self.doc_id}: pronoun at sentence {pron.sent_id} points to "
                    f"missing antecedent {pron.antecedent}"
                )


def pronoun_ratio(doc: Document) -> float:
    """Fraction of the document's gendered singular pronouns that are animate.

    Defined as 0 when the document contains no counted pronouns at all,
    since such a text gives no pronoun evidence either way.
    """
    total = doc.animate_pronoun_count + doc.inanimate_pronoun_count
    if total == 0:
        return 0.0
    return doc.animate_pronoun_count / total


def iter_nps(docs: Iterable[Document]) -> Iterator[tuple[Document, NPRecord]]:
    """All NPs of a corpus in text order, paired with their document."""
    for doc in docs:
        for np in doc.nps:
            yield doc, np


def _flag(value: str, what: str) -> bool:
    if value == "0":
        return False
    if value == "1":
        return True
    raise CorpusError(f"{what} must be 0 or 1, got {value!r}")


def _int(value: str, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise CorpusError(f"bad {what} {value!r}") from None


_FLAG = {"0": False, "1": True}
_GOLD = {"-": None, "A": Label.ANIMATE, "I": Label.INANIMATE}


def _loaded_document(*fields) -> Document:
    """A `Document` built without `__post_init__`, which would repeat the
    checks `load_corpus` has made on its NPs and pronouns."""
    doc = object.__new__(Document)
    for name, value in zip(Document.__dataclass_fields__, fields):
        object.__setattr__(doc, name, value)
    return doc


def load_corpus(path) -> list[Document]:
    """Read a corpus file; returns validated documents in file order.

    Errors name the path, and the line for everything but a negative
    pronoun count.  Errors within one line come first, in file order; then
    each document in turn is checked for a negative pronoun count, a
    duplicate NP key and a pronoun whose antecedent is not one of its NPs.
    """
    counts: dict[str, tuple[int, int]] = {}
    nps: dict[str, list[NPRecord]] = {}
    prons: dict[str, list[PronounRecord]] = {}
    # Line numbers go in int arrays and NP keys are checked after the last
    # line: an object kept per NP while reading sits between the records
    # and, once freed, leaves holes that later allocations fill.  With a key
    # set filled line by line, a paper-scale sweep's harness passes ran
    # about 19% slower.
    np_lines: dict[str, array] = {}
    pron_lines: dict[str, array] = {}
    flag, gold_of = _FLAG, _GOLD

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
                    _int(fields[2], "pronoun count"),
                    _int(fields[3], "pronoun count"),
                )
                nps[doc_id] = []
                prons[doc_id] = []
                np_lines[doc_id] = array("q")
                pron_lines[doc_id] = array("q")
            elif kind == "NP":
                fields = line.split("\t", 11)
                if len(fields) != 12:
                    raise CorpusError("NP record needs 12 fields")
                (_, doc_id, sent, npid, head, subj, verb, who, refl,
                 gold, sense, surface) = fields
                doc_nps = nps.get(doc_id)
                if doc_nps is None:
                    raise CorpusError(f"NP before DOC {doc_id}")
                try:
                    sent_id, np_id = int(sent), int(npid)
                    is_subject, has_who, has_reflexive = flag[subj], flag[who], flag[refl]
                    label = gold_of[gold]
                except (ValueError, KeyError):
                    # decode field by field for the first bad field's error
                    sent_id, np_id = _int(sent, "sentence id"), _int(npid, "np id")
                    is_subject = _flag(subj, "subject flag")
                    has_who = _flag(who, "who flag")
                    has_reflexive = _flag(refl, "reflexive flag")
                    label = Label(gold)  # only "U" gets past this line
                # the record checks the verb and an UNKNOWN gold label itself
                doc_nps.append(NPRecord(
                    doc_id, sent_id, np_id, head, is_subject,
                    None if verb == "-" else verb, has_who, has_reflexive, label,
                    None if sense == "-" else sense, surface,
                ))
                np_lines[doc_id].append(lineno)
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
                        _int(ant_sent, "antecedent sentence"),
                        _int(ant_np, "antecedent np"),
                    )
                prons[doc_id].append(
                    PronounRecord(
                        sent_id=_int(sent, "sentence id"),
                        surface=surface,
                        animate=_flag(animate, "animate flag"),
                        antecedent=antecedent,
                    )
                )
                pron_lines[doc_id].append(lineno)
            else:
                raise CorpusError(f"unknown record kind {kind!r}")
        except ValueError as exc:
            raise CorpusError(f"{path} line {lineno}: {exc}") from None

    documents = []
    for doc_id, (ani, inani) in counts.items():
        if ani < 0 or inani < 0:
            raise CorpusError(f"{path}: {doc_id}: negative pronoun count")
        keys: set[tuple[int, int]] = set()
        for lineno, np in zip(np_lines[doc_id], nps[doc_id]):
            key = (np.sent_id, np.np_id)
            if key in keys:
                raise CorpusError(f"{path} line {lineno}: duplicate NP key {np.key}")
            keys.add(key)
        for lineno, pron in zip(pron_lines[doc_id], prons[doc_id]):
            if pron.antecedent is not None and pron.antecedent not in keys:
                raise CorpusError(
                    f"{path} line {lineno}: {doc_id}: pronoun at sentence "
                    f"{pron.sent_id} points to missing antecedent {pron.antecedent}"
                )
        documents.append(_loaded_document(
            doc_id, tuple(nps[doc_id]), ani, inani, tuple(prons[doc_id]),
        ))
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
