import os
import re

import pytest

from animacy import fileio
from animacy.cli import _labels_for, main
from animacy.corpus import CorpusError, dump_corpus, load_corpus
from animacy.data import mini_corpus_path, toy_taxonomy_path
from animacy.enrichment import dump_statuses, enrich, load_enriched
from animacy.fileio import read_lines, write_atomic
from animacy.taxonomy import dump_taxonomy, load_taxonomy
from animacy.wsd import load_counts
from tests.test_wsd import table_counts

OLD = "previous contents\n"


class HalfWrite:
    """A text handle that writes half of what it is given, then fails."""

    def __init__(self, path, mode, encoding):
        self._handle = open(path, mode, encoding=encoding)

    def write(self, text):
        self._handle.write(text[: len(text) // 2])
        self._handle.flush()
        raise OSError(28, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()


def open_failing_writes(path, mode="r", **kwargs):
    """`open` on a full disk: writes fail halfway, reads still work."""
    if "w" in mode:
        return HalfWrite(path, mode, **kwargs)
    return open(path, mode, **kwargs)


@pytest.fixture
def failing_disk(monkeypatch):
    monkeypatch.setattr(fileio, "open", open_failing_writes, raising=False)


def test_replaces_the_target_and_leaves_no_temporary(tmp_path):
    target = tmp_path / "out.tsv"
    target.write_text(OLD)
    write_atomic(target, "new\n")
    assert target.read_text() == "new\n"
    assert os.listdir(tmp_path) == ["out.tsv"]


def test_replacing_keeps_permission_bits(tmp_path):
    target = tmp_path / "private.tsv"
    target.write_text(OLD)
    target.chmod(0o600)
    write_atomic(target, "new\n")
    assert target.stat().st_mode & 0o777 == 0o600


def test_relative_path_in_working_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_atomic("out.tsv", "new\n")
    assert (tmp_path / "out.tsv").read_text() == "new\n"
    assert os.listdir(tmp_path) == ["out.tsv"]


def test_special_file_is_written_in_place():
    write_atomic(os.devnull, "discarded\n")


def toy_taxonomy():
    return load_taxonomy(toy_taxonomy_path())


def mini_corpus():
    return load_corpus(mini_corpus_path())


# each kind of file the program writes, written as the CLI writes it
SAVERS = {
    "write_atomic": lambda path: write_atomic(path, "new text\n" * 100),
    "save_taxonomy": lambda path: write_atomic(path, dump_taxonomy(toy_taxonomy())),
    "save_corpus": lambda path: write_atomic(path, dump_corpus(mini_corpus())),
    "save_enriched": lambda path: write_atomic(
        path, dump_statuses(enrich(toy_taxonomy(), mini_corpus()))),
}


@pytest.mark.parametrize("saver", sorted(SAVERS))
def test_failed_write_keeps_previous_file(tmp_path, failing_disk, saver):
    target = tmp_path / "out.tsv"
    target.write_text(OLD)
    with pytest.raises(OSError):
        SAVERS[saver](target)
    assert target.read_text() == OLD
    assert os.listdir(tmp_path) == ["out.tsv"]


@pytest.mark.parametrize("saver", sorted(SAVERS))
def test_failed_write_creates_no_file(tmp_path, failing_disk, saver):
    with pytest.raises(OSError):
        SAVERS[saver](tmp_path / "out.tsv")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("flag", ["--out", "--marginals"])
def test_cli_output_file_survives_failed_write(tmp_path, failing_disk, capsys, flag):
    target = tmp_path / "grid.csv"
    target.write_text(OLD)
    argv = ["sweep", "--corpus", mini_corpus_path(), "--seed", "1", "--runs", "1",
            "--p-from", "100", "--r-from", "100"]
    argv += [flag, str(target)]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1
    # the sweep table goes to stdout unless --out names the file
    assert out.startswith("precision") == (flag == "--marginals")
    assert err.startswith("error: ")
    assert target.read_text() == OLD
    assert sorted(os.listdir(tmp_path)) == ["grid.csv"]


class TestReadLines:
    @pytest.mark.parametrize("bundled, load", [
        (toy_taxonomy_path(), load_taxonomy),
        (mini_corpus_path(), load_corpus),
    ])
    def test_crlf_copy_of_bundled_file_loads_equal(self, tmp_path, bundled, load):
        crlf = tmp_path / "crlf.txt"
        with open(bundled, "rb") as handle:
            crlf.write_bytes(handle.read().replace(b"\n", b"\r\n"))
        assert load(crlf) == load(bundled)

    @pytest.mark.parametrize("kind", ["taxonomy", "corpus", "statuses", "counts",
                                      "predictions"])
    def test_byte_order_mark_is_dropped(self, tmp_path, kind):
        taxonomy = load_taxonomy(toy_taxonomy_path())
        text, load = {
            "taxonomy": (dump_taxonomy(taxonomy), load_taxonomy),
            "corpus": (dump_corpus(load_corpus(mini_corpus_path())), load_corpus),
            "statuses": (dump_statuses(enrich(taxonomy, load_corpus(mini_corpus_path()))),
                         lambda path: load_enriched(path, taxonomy)),
            "counts": ("COUNT\tn-cat-animal\t2\nCOUNT\tn-person\t1.5\n",
                       lambda path: table_counts(load_counts(path, taxonomy))),
            "predictions": ("d1\t0\t0\tA\nd1\t0\t1\tU\n", _labels_for),
        }[kind]
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
        assert load(marked) == load(plain)

    def test_lines_split_as_in_text_mode(self, tmp_path):
        path = tmp_path / "mixed.txt"
        path.write_bytes(b"a\r\nb\rc\n\n\xef\xbb\xbfcaf\xc3\xa9\td\n  e\r\n")
        with open(path, encoding="utf-8") as handle:
            expected = [(n, raw.rstrip("\n")) for n, raw in enumerate(handle, 1)]
        assert list(read_lines(path)) == expected
        assert [line for _, line in expected] == ["a", "b", "c", "", "\ufeffcaf\u00e9\td", "  e"]

    @pytest.mark.parametrize("raw, byte", [
        (b"bad \xff here", "0xff"),
        (b"caf\xe9", "0xe9"),
        (b"surrogate \xed\xa0\x80", "0xed"),
        (b"cut \xc3", "0xc3"),
    ])
    def test_invalid_line_raises_the_given_error(self, tmp_path, raw, byte):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"ok\r\nstill caf\xc3\xa9 ok\n" + raw + b"\nnever read\n")
        lines = read_lines(path, CorpusError)
        assert next(lines) == (1, "ok")
        assert next(lines) == (2, "still caf\u00e9 ok")
        with pytest.raises(CorpusError, match=f"^{re.escape(str(path))} line 3: invalid UTF-8 byte {byte}$"):
            next(lines)
