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

    Newlines are read as in text mode, so CRLF files load like LF ones.  A
    line that is not valid UTF-8 raises `error` as "<path> line N: ...".
    """
    # undecodable bytes become lone surrogates, which strict UTF-8 never yields
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.rstrip("\n")
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    byte = ord(line[exc.start]) - 0xDC00
                    raise error(
                        f"{path} line {lineno}: invalid UTF-8 byte 0x{byte:02x}"
                    ) from None
            yield lineno, line
