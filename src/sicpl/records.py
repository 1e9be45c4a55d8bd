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
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

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


def header_lines(header: Mapping[str, object], warnings: Iterable[str] = ()) -> list[str]:
    """The comment lines that :class:`RecordReader` reads back as header and warnings."""
    lines = [f"# {key} = {value}" for key, value in header.items()]
    lines.extend(f"# {_WARNING} {warning}" for warning in warnings)
    return lines
