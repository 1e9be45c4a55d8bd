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

Every sicpl record is immutable.  Most are ``typing.NamedTuple`` classes;
this module also holds the two bases of the rest: :class:`FrozenSlots`
for a record that must not be a tuple, and :class:`Checked` for a
NamedTuple whose fields are validated.  No sicpl command imports
``dataclasses``.
"""

from __future__ import annotations

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


def header_lines(header: Mapping[str, object], warnings: Iterable[str] = ()) -> list[str]:
    """The comment lines that :class:`RecordReader` reads back as header and warnings."""
    lines = [f"# {key} = {value}" for key, value in header.items()]
    lines.extend(f"# {_WARNING} {warning}" for warning in warnings)
    return lines


class FrozenSlots:
    """Base of an immutable record whose fields are its ``__slots__``.

    A subclass names its fields in ``__slots__`` and sets them in
    ``__init__`` through ``object.__setattr__``; any later assignment or
    deletion raises AttributeError.  The repr is ``Name(field=value, ...)``,
    and a copy or pickle is rebuilt through the constructor, with the fields
    in slot order.  Equality and hashing are the subclass's choice.
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


class Checked:
    """Mixin that validates a NamedTuple record every time one is built.

    A record lists it before the NamedTuple holding its fields, as
    ``class Name(Checked, _NameFields)`` with ``__slots__ = ()``, and
    defines ``_check``, which raises on an invalid field.  The constructor,
    ``_make`` and ``_replace`` all run it.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        self = super()._make(iterable)
        self._check()
        return self
