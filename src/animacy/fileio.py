"""Line-by-line reading of input files and atomic replacement of output files."""

import os
import shutil
from typing import Iterator


def write_atomic(path, text: str) -> None:
    """Write `text` to a temporary file beside `path`, then move it over `path`.

    Readers see the old file or the whole new one, which keeps the old
    file's permission bits; a failed write leaves no temporary file.  Pipes
    and devices cannot be replaced and are written directly.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        if os.path.exists(path):
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_lines(path, error: type[Exception] = ValueError) -> Iterator[tuple[int, str]]:
    """Yield (line number, line without its newline) for a UTF-8 text file.

    Newlines are read as in text mode, so CRLF files load like LF ones,
    and a leading byte-order mark is dropped.  Undecodable bytes become
    lone surrogates, which strict UTF-8 never yields, so a line that is
    not valid UTF-8 raises `error` as "<path> line N: ...".
    """
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.rstrip("\n")
            if not line.isascii():
                check_utf8(line, path, lineno, error)
            yield lineno, line


def is_int(text: str) -> bool:
    """True iff `text` spells an integer as the writers do: ASCII digits,
    maybe after a '-'; `int` would also take "1_0", "+3", " 3" or "١٨"."""
    digits = text[1:] if text[:1] == "-" else text
    return digits.isdecimal() and digits.isascii()


def is_utf8(text: str) -> bool:
    """False iff `read_lines` read a byte of `text` that is not UTF-8."""
    if text.isascii():
        return True
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def check_utf8(line: str, path, lineno: int, error: type[Exception]) -> None:
    """Raise `error` as "<path> line N: ..." if `line` holds an undecodable byte."""
    if not is_utf8(line):
        # surrogateescape maps an undecodable byte b to chr(0xDC00 + b)
        byte = next(ord(c) for c in line if "\udc80" <= c <= "\udcff") - 0xDC00
        raise error(f"{path} line {lineno}: invalid UTF-8 byte 0x{byte:02x}")
