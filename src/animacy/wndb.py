"""Converter from WordNet database files (data.noun / data.verb) to the
line-based taxonomy format.

Only what the taxonomy needs is read: synset offsets, lexicographer file
numbers, member words and same-pos hypernym pointers ("@" and "@i").
Synset ids are formed as pos + zero-padded offset.  Words are lowercased;
multiword entries keep their underscores.  Synsets are emitted in data
file order, so each lemma's sense order is offset order rather than the
source's frequency order.  Optional index files are used only to warn
about entries whose synsets were not seen in the data files.
"""

from __future__ import annotations

from .fileio import read_lines
from .taxonomy import Synset, Taxonomy, TaxonomyError

HYPERNYM_POINTERS = ("@", "@i")


def _parse_data_line(line: str, pos: str, path, lineno: int) -> Synset:
    where = f"{path}: data.{pos} line {lineno}"
    tokens = line.split()
    try:
        offset = int(tokens[0])
        lexfile = int(tokens[1])
        ss_type = tokens[2]
        word_count = int(tokens[3], 16)
        words = [tokens[4 + 2 * i] for i in range(word_count)]
        pointer_base = 4 + 2 * word_count
        pointer_count = int(tokens[pointer_base])
        hypernyms = []
        for i in range(pointer_count):
            symbol, target, target_pos, _ = tokens[
                pointer_base + 1 + 4 * i : pointer_base + 5 + 4 * i
            ]
            if symbol in HYPERNYM_POINTERS and target_pos == pos:
                hypernyms.append(f"{pos}{int(target):08d}")
    except (IndexError, ValueError) as exc:
        raise TaxonomyError(f"{where}: unparseable record ({exc})") from None
    if ss_type != pos:
        raise TaxonomyError(
            f"{where}: synset type {ss_type!r} does not match file"
        )
    try:
        return Synset(
            id=f"{pos}{offset:08d}",
            pos=pos,
            lemmas=tuple(dict.fromkeys(word.lower() for word in words)),
            hypernyms=tuple(hypernyms),
            lexfile=lexfile,
        )
    except TaxonomyError as exc:
        raise TaxonomyError(f"{where}: {exc}") from None


def read_data_file(path, pos: str) -> list[Synset]:
    """Parse one WordNet data file; header lines (leading spaces) are skipped."""
    synsets = []
    for lineno, line in read_lines(path, TaxonomyError):
        if line.strip() and not line.startswith(" "):
            synsets.append(_parse_data_line(line, pos, path, lineno))
    return synsets


def check_index_file(path, pos: str, known_ids: set[str]) -> list[str]:
    """Cross-check an index file; returns lemmas with unresolved synsets."""
    problems = []
    for lineno, line in read_lines(path, TaxonomyError):
        if not line.strip() or line.startswith(" "):
            continue
        tokens = line.split()
        lemma = tokens[0]
        # lemma pos synset_cnt p_cnt ... sense_cnt tagsense_cnt, then the
        # synset_cnt trailing fields are the synset offsets
        try:
            sense_count = int(tokens[2])
            if not 0 < sense_count <= len(tokens) - 6:
                raise ValueError(f"synset count {sense_count} out of range")
            ids = [f"{pos}{int(offset):08d}" for offset in tokens[-sense_count:]]
        except (IndexError, ValueError) as exc:
            raise TaxonomyError(
                f"{path}: index.{pos} line {lineno}: unparseable record ({exc})"
            ) from None
        if any(sid not in known_ids for sid in ids):
            problems.append(lemma)
    return problems


def import_wndb(
    noun_path=None,
    verb_path=None,
    index_noun_path=None,
    index_verb_path=None,
) -> tuple[Taxonomy, list[str]]:
    """Build a taxonomy from WordNet database files.

    Returns the taxonomy and any warnings from index cross-checks.
    """
    if noun_path is None and verb_path is None:
        raise TaxonomyError("at least one of data.noun / data.verb is required")
    synsets: list[Synset] = []
    if noun_path is not None:
        synsets.extend(read_data_file(noun_path, "n"))
    if verb_path is not None:
        synsets.extend(read_data_file(verb_path, "v"))
    taxonomy = Taxonomy(synsets)

    warnings = []
    known = set(taxonomy)
    for path, pos in ((index_noun_path, "n"), (index_verb_path, "v")):
        if path is None:
            continue
        for lemma in check_index_file(path, pos, known):
            warnings.append(f"index.{pos}: {lemma} lists a synset missing from data")
    return taxonomy, warnings
