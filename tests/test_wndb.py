import pytest

from animacy.taxonomy import TaxonomyError
from animacy.wndb import import_wndb

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
