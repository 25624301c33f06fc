"""Atomic replacement of output files."""

import os
import shutil


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
