"""The one reader and the one writer of evseq's UTF-8 text files.

``read_lines`` yields a file's lines as iterating a text file does
(universal newlines, each line with its line break); ``read_text``
returns its whole text.  A file that is not UTF-8 is a ``DataError``
at the file and line of its first bad byte: "{file}:{line}: not UTF-8:
byte 0xe9 at column 25 (invalid continuation byte)"; the column counts
bytes.  A file that cannot be read again from its start, such as a
pipe, is named without a line.  The line is looked for only on that
error path.

``write_lines`` writes each line and a "\\n", UTF-8 encoded, whole or
not at all.  A regular or new file is written to a temporary file
beside it, which replaces the file only once every byte is written:
a failure part-way removes the temporary file and leaves the target as
it was, or absent.  A replaced file keeps its mode, and a symlink stays
a symlink to its replaced target.  ``None`` means stdout, which is
written in place, as is an existing target that is not a regular file
(``/dev/null``, a FIFO), so a device is never replaced.
"""

from __future__ import annotations

import errno
import os
import stat
import sys
from typing import Iterable, Iterator


class DataError(ValueError):
    """Malformed file content; carries a ``location`` such as file:line."""

    def __init__(self, message: str, location: str | None = None):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


def _not_utf8(path, err: UnicodeDecodeError) -> DataError:
    """``err`` located in ``path``, whose bytes from the start it holds."""
    data, start = err.object, err.start
    column = start - data.rfind(b"\n", 0, start)
    line = data.count(b"\n", 0, start) + 1
    return DataError(
        f"not UTF-8: byte 0x{data[start]:02x} at column {column} ({err.reason})",
        f"{path}:{line}",
    )


def read_text(path) -> str:
    """The whole text of the UTF-8 file ``path``.  A ``DataError`` for
    bytes that are not UTF-8 keeps the codec's error as its cause."""
    with open(path, encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as err:  # one decode of the whole file
            raise _not_utf8(path, err) from err


def read_lines(path) -> Iterator[str]:
    """The lines of the UTF-8 file ``path``, each with its line break."""
    with open(path, encoding="utf-8") as handle:
        try:
            yield from handle
        except UnicodeDecodeError as err:
            # err counts its position from the chunk being decoded, so a
            # file that can be read again is decoded whole for the line
            if handle.seekable():
                handle.buffer.seek(0)
                try:
                    handle.buffer.read().decode("utf-8")
                except UnicodeDecodeError as whole:
                    raise _not_utf8(path, whole) from whole
            raise DataError(f"not UTF-8 ({err.reason})", str(path)) from err


def _write(handle, lines: Iterable[str]) -> None:
    for line in lines:
        handle.write(line)
        handle.write("\n")


def write_lines(path, lines: Iterable[str]) -> None:
    """Write each of ``lines`` and a newline to ``path``, or to stdout
    when ``path`` is None, whole or not at all (see the module doc)."""
    if path is None:
        _write(sys.stdout, lines)
        return
    path = os.fspath(path)  # for messages as open() words them
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            _write(handle, lines)
        return
    if mode is not None and not os.access(path, os.W_OK):  # as open() would refuse it
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    temp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as err:
        err.filename = path  # name the target, as open() would
        raise
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as handle:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            _write(handle, lines)
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise
