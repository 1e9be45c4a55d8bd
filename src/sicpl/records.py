"""Line-numbered reader for the plain-text record formats.

Character tables (``.grp``), ZPL catalogs, spectrum files and angular-scan
files share one syntax:

- ``#`` starts a comment that runs to the end of the line; blank lines
  are skipped.
- A whole-line ``# key = value`` comment is a header entry, and a
  whole-line ``# warning: text`` comment is a warning.
- Every other line is a record of whitespace-separated tokens.

Each format converts its own tokens and reports a bad record with
:meth:`RecordReader.locate`, as ``<source>: line N: message``.
:func:`write_records` writes a file of any of them whole, or not at all.

Every sicpl record is immutable.  Most are ``typing.NamedTuple`` classes,
and :func:`checked` makes one of them validate its fields however it is
built; :class:`FrozenSlots` is the base of a record that must not be a
tuple.  No record is a dataclass, and no sicpl command imports
``dataclasses``.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator, Mapping
from pathlib import Path

_WARNING = "warning:"


class RecordReader:
    """One pass over the records of a text, keeping its header and warnings.

    ``header`` and ``warnings`` are complete once iteration has finished.
    """

    def __init__(self, text: str, source: str) -> None:
        self._lines = text.splitlines()
        self.source = source
        self.header: dict[str, str] = {}
        self.warnings: list[str] = []

    def __iter__(self) -> Iterator[tuple[int, list[str]]]:
        """Yield ``(line number, tokens)`` for every record line, in a single pass."""
        # the lines are released when the pass ends, before callers build their results
        lines, self._lines = self._lines, []
        for lineno, line in enumerate(lines, start=1):
            # the membership test keeps comment-free rows to one split
            if "#" in line:
                line, _, comment = line.partition("#")
                if not line.strip():
                    self._comment(comment.strip())
                    continue
            tokens = line.split()
            if tokens:
                yield lineno, tokens

    def _comment(self, comment: str) -> None:
        if comment.startswith(_WARNING):
            self.warnings.append(comment[len(_WARNING):].strip())
            return
        key, equals, value = comment.partition("=")
        if equals:
            self.header[key.strip()] = value.strip()

    def locate(self, lineno: int, message: object) -> str:
        """The message with its ``<source>: line N:`` prefix."""
        return f"{self.source}: line {lineno}: {message}"


def read_records(path: str | Path, error: type[Exception]) -> RecordReader:
    """A reader over the file at ``path``; a file that is not text raises ``error``."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not a text file: {exc}") from exc
    return RecordReader(text, str(path))


def write_records(path: str | Path, text: str, error: type[Exception]) -> None:
    """Write ``text`` to ``path`` whole, or leave ``path`` as it was.

    ``error`` is raised before anything is touched for a path with no file
    name (``""``, ``"."``, ``"/"``, ``".."``), a path that is a directory (a
    symlink to one is replaced like a file), a path under something that is
    not a directory, and text that the encoding :func:`read_records` reads
    back cannot hold.  Only then are the missing parent directories made.
    The bytes go to a new file beside ``path`` that then replaces it; if
    that fails, the new file is removed.
    """
    import locale

    path = Path(path)
    if path.name in ("", ".."):
        raise error(f"output path {str(path)!r} names no file")
    if path.is_dir() and not path.is_symlink():
        raise error(f"output path {str(path)!r} is a directory")
    # the nearest parent that exists must be a directory, or making the rest fails
    for parent in path.parents:
        if parent.is_dir():
            break
        if os.path.lexists(parent):
            raise error(f"output path {str(path)!r}: {str(parent)!r} is not a directory")
    try:
        data = text.encode(locale.getpreferredencoding(False))
    except UnicodeEncodeError as exc:
        raise error(f"{path}: cannot encode the text: {exc}") from exc
    path.parent.mkdir(parents=True, exist_ok=True)
    part = path.with_name(f".{path.name}.{os.urandom(4).hex()}.part")
    file = open(part, "xb")
    try:
        with file:
            file.write(data)
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def header_lines(
    header: Mapping[str, object], warnings: Iterable[str] = (), error: type[Exception] = ValueError
) -> list[str]:
    """The comment lines that :class:`RecordReader` reads back as header and warnings.

    Every entry must read back as ``str(key) = str(value)`` and every warning
    as itself; one that would not (a line break, a key that holds ``=`` or
    starts with ``warning:``, whitespace at either end) raises ``error``.
    """
    entries = [(f"# {key} = {value}", {str(key): str(value)}, []) for key, value in header.items()]
    entries += [(f"# {_WARNING} {warning}", {}, [warning]) for warning in warnings]
    for line, want_header, want_warnings in entries:
        reader = RecordReader(line, "header")
        if list(reader) or (reader.header, reader.warnings) != (want_header, want_warnings):
            raise error(f"header line {line!r} would not read back unchanged")
    return [line for line, _, _ in entries]


class FrozenSlots:
    """Base of an immutable record whose fields are its ``__slots__``.

    A subclass names its fields in ``__slots__`` and sets them in
    ``__init__`` through each slot descriptor's own ``__set__``, bound once
    at module level (``_set_re = GaussianRational.re.__set__``), which
    bypasses this class's ``__setattr__`` at less cost than
    ``object.__setattr__``; any later assignment or deletion raises
    AttributeError.  The repr is ``Name(field=value, ...)``, and a copy or
    pickle is rebuilt through the constructor, with the fields in slot
    order.  Equality and hashing are the subclass's choice.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


def checked(cls):
    """Make the NamedTuple ``cls`` validate every record it builds.

    ``cls`` defines ``_check``, which raises on an invalid field.  The
    decorator wraps the NamedTuple's own ``__new__`` and ``_make`` so that
    each runs it; ``_replace`` builds through ``_make``, and a copy or a
    pickle through ``__new__``, so every way of building a record checks it.

    The one unchecked path is ``groups._rep``, which builds a ``RepVector``
    through ``tuple.__new__``.  It is sound because its callers pass only
    characters whose length is already known to match the group: a table's
    own irrep, tested inline by ``PointGroupTable.rep``, or the class-wise
    product or sum of vectors of one group.
    """
    new, make = cls.__new__, cls._make.__func__

    def __new__(cls, *args, **kwargs):
        self = new(cls, *args, **kwargs)
        self._check()
        return self

    def _make(cls, iterable):
        self = make(cls, iterable)
        self._check()
        return self

    cls.__new__, cls._make = staticmethod(__new__), classmethod(_make)
    return cls
