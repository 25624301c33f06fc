import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from animacy.fileio import write_atomic
from animacy.taxonomy import TaxonomyError, dump_taxonomy, load_taxonomy
from animacy.wndb import import_wndb, read_data_file

DATA_NOUN = (
    "  1 header lines start with whitespace and are skipped\n"
    "00001740 03 n 01 entity 0 000 | that which exists\n"
    "00002137 18 n 02 person 0 Individual 0 001 @ 00001740 n 0000 | a human\n"
    "00002452 05 n 01 animal 0 001 @ 00001740 n 0000 | a living organism\n"
    "00003100 18 n 01 teacher 0 002 @ 00002137 n 0000 ~ 00002137 n 0000 "
    "| a person who educates\n"
)

DATA_VERB = (
    "  1 header\n"
    "00001740 31 v 02 think 0 cogitate 0 000 01 + 02 00 | use the mind\n"
    "00002325 31 v 01 reflect 0 001 @ 00001740 v 0000 01 + 02 00 | think deeply\n"
)

INDEX_NOUN = (
    "  1 header\n"
    "teacher n 1 1 @ 1 0 00003100\n"
    "ghost n 1 0 1 0 00009999\n"
)


@pytest.fixture
def wndb_dir(tmp_path):
    (tmp_path / "data.noun").write_text(DATA_NOUN)
    (tmp_path / "data.verb").write_text(DATA_VERB)
    (tmp_path / "index.noun").write_text(INDEX_NOUN)
    return tmp_path


def test_conversion_builds_expected_graph(wndb_dir):
    taxonomy, warnings = import_wndb(
        noun_path=wndb_dir / "data.noun", verb_path=wndb_dir / "data.verb"
    )
    assert warnings == []
    assert len(taxonomy) == 6
    teacher = taxonomy.get("n00003100")
    assert teacher.lemmas == ("teacher",)
    assert teacher.hypernyms == ("n00002137",)  # the ~ pointer is not hypernymy
    assert teacher.lexfile == 18
    assert taxonomy.beginner_of("n00003100") == 3  # chain reaches the 03 root
    reflect = taxonomy.get("v00002325")
    assert reflect.hypernyms == ("v00001740",)


def test_words_are_lowercased(wndb_dir):
    taxonomy, _ = import_wndb(noun_path=wndb_dir / "data.noun")
    assert taxonomy.get("n00002137").lemmas == ("person", "individual")
    assert taxonomy.senses("individual", "n") == ("n00002137",)


def test_index_cross_check_reports_missing_synsets(wndb_dir):
    _, warnings = import_wndb(
        noun_path=wndb_dir / "data.noun", index_noun_path=wndb_dir / "index.noun"
    )
    assert len(warnings) == 1
    assert "ghost" in warnings[0]


def test_requires_at_least_one_data_file():
    with pytest.raises(TaxonomyError):
        import_wndb()


def test_garbage_line_reports_position(tmp_path):
    path = tmp_path / "data.noun"
    path.write_text("00001740 03 n zz entity 0 000 | broken\n")
    with pytest.raises(TaxonomyError, match="line 1"):
        import_wndb(noun_path=path)


@pytest.mark.parametrize("kind", ["data", "index"])
def test_malformed_record_names_the_file(tmp_path, kind):
    data = tmp_path / "wordnet" / "nouns.dat"
    data.parent.mkdir()
    index = tmp_path / "wordnet" / "nouns.idx"
    if kind == "data":
        data.write_text(DATA_NOUN.replace(" 01 animal ", " zz animal "))
        expected = f"{data}: data.n line 4: unparseable record"
    else:
        data.write_text(DATA_NOUN)
        index.write_text(INDEX_NOUN.replace("ghost n 1 ", "ghost n x "))
        expected = f"{index}: index.n line 3: unparseable record"
    with pytest.raises(TaxonomyError) as raised:
        import_wndb(noun_path=data, index_noun_path=index if kind == "index" else None)
    assert str(raised.value).startswith(expected)


@pytest.mark.parametrize("record, message", [
    # a word count of 00 leaves the synset without lemmas
    ("00001800 03 n 00 000 | nothing\n", "n00001800: at least one lemma required"),
    # "@" and "@i" to one target are one hypernym listed twice
    ("00001900 03 n 01 thing 0 002 @ 00001740 n 0000 @i 00001740 n 0000 | twice\n",
     "n00001900: duplicate hypernym id"),
])
def test_synset_errors_name_file_and_line(tmp_path, record, message):
    path = tmp_path / "data.noun"
    path.write_text(DATA_NOUN + record)
    with pytest.raises(TaxonomyError) as raised:
        import_wndb(noun_path=path)
    assert str(raised.value) == f"{path}: data.n line 6: {message}"


def test_word_with_a_comma_imports_whole(tmp_path):
    # WordNet 3.0 has member words such as 2,4-D
    path = tmp_path / "data.noun"
    path.write_text(DATA_NOUN + "00001900 03 n 02 2,4-D 0 herbicide 0 000 | comma\n")
    taxonomy, _ = import_wndb(noun_path=path)
    assert taxonomy.get("n00001900").lemmas == ("2,4-d", "herbicide")
    assert taxonomy.senses("2,4-d", "n") == ("n00001900",)
    assert taxonomy.senses("2", "n") == ()
    # the file escapes the comma inside the lemma, and reads it back
    assert "SYNSET\tn00001900\tn\t3\t2%2c4-d,herbicide\t\n" in dump_taxonomy(taxonomy)
    saved = tmp_path / "wndb.tax"
    write_atomic(saved, dump_taxonomy(taxonomy))
    assert load_taxonomy(saved) == taxonomy


# Corruptions that make a drawn data line unreadable, whatever else it holds.
DATA_CORRUPTIONS = ("bad offset", "bad lexfile", "verb type", "no words",
                    "bad word count", "cut before pointers", "missing pointer",
                    "hypernym twice", "invalid utf-8")


@st.composite
def data_records(draw, offsets):
    """One data.noun line as bytes, and whether it is readable."""
    offset = draw(st.sampled_from(offsets))
    words = draw(st.lists(st.sampled_from(["cat", "Cat", "ox", "big_cat"]),
                          min_size=1, max_size=3))
    targets = draw(st.lists(st.sampled_from(offsets + [99999999]), max_size=3,
                            unique=True))
    pointers = [(draw(st.sampled_from(["@", "@i", "~", "+"])), target,
                 draw(st.sampled_from(["n", "n", "v"]))) for target in targets]
    tokens = [f"{offset:08d}", f"{draw(st.integers(0, 44)):02d}", "n",
              f"{len(words):02x}"]
    tokens += [x for word in words for x in (word, "0")]
    tokens.append(f"{len(pointers):03d}")
    tokens += [x for symbol, target, pos in pointers
               for x in (symbol, f"{target:08d}", pos, "0000")]
    tokens += ["|", "gloss"]
    kind = draw(st.sampled_from((None,) * 4 + DATA_CORRUPTIONS))
    count_at = 4 + 2 * len(words)
    if kind == "bad offset":
        tokens[0] = "0000x000"
    elif kind == "bad lexfile":
        tokens[1] = "x3"
    elif kind == "verb type":
        tokens[2] = "v"
    elif kind == "no words":
        tokens[3:count_at] = ["00"]
    elif kind == "bad word count":
        tokens[3] = "zz"
    elif kind == "cut before pointers":
        del tokens[count_at:]
    elif kind == "missing pointer":
        # one pointer more than listed: the gloss is too short to fill it
        tokens[count_at] = f"{len(pointers) + 1:03d}"
    elif kind == "hypernym twice":
        tokens[count_at] = f"{len(pointers) + 2:03d}"
        tokens[count_at + 1:count_at + 1] = ["@", f"{offset:08d}", "n", "0000",
                                             "@i", f"{offset:08d}", "n", "0000"]
    line = " ".join(tokens).encode()
    if kind == "invalid utf-8":
        line = line.replace(b"gloss", b"gl\xffss")
    return line, kind is None


@st.composite
def data_files(draw):
    offsets = draw(st.lists(st.integers(1, 99999998), min_size=1, max_size=6,
                            unique=True))
    records = draw(st.lists(data_records(offsets), min_size=1, max_size=8))
    lines = [(b"  1 header lines are skipped", True)]
    for record in records:
        lines.append(record)
        if draw(st.booleans()):
            lines.append((b"", True))
    return lines


@settings(max_examples=200, deadline=None)
@given(lines=data_files())
def test_only_file_and_line_errors_escape(lines):
    first_bad = next((n for n, (_, ok) in enumerate(lines, 1) if not ok), None)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.noun")
        with open(path, "wb") as handle:
            handle.write(b"\n".join(line for line, _ in lines) + b"\n")
        try:
            synsets = read_data_file(path, "n")
        except TaxonomyError as exc:
            assert first_bad is not None, str(exc)
            assert str(exc).startswith((f"{path}: data.n line {first_bad}: ",
                                        f"{path} line {first_bad}: invalid UTF-8 byte"))
            return
        assert first_bad is None
        assert len(synsets) == len(lines) - 1 - sum(not line for line, _ in lines)
        try:
            import_wndb(noun_path=path)
        except TaxonomyError:
            pass  # duplicate offsets and dangling targets name no line
