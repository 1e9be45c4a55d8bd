"""Plain-text exchange formats for spectra and angular scans.

Two-column delimited files with a ``#`` comment header carrying full
provenance (laser settings, angle, policy, seed, defaults), so every
emitted artifact is reproducible from its own header.  The record syntax
is that of :mod:`sicpl.records`; every row holds exactly two finite
numbers.  A file is written whole or not at all.
"""

from __future__ import annotations

import math
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

from .records import RecordReader, header_lines, read_records, write_records
from .spectrum import AngularScan, Spectrum, SpectrumError

if TYPE_CHECKING:
    import numpy as np


def _write_columns(path, header, header_warnings, columns: str, row: str, xs, ys) -> None:
    """Write the header and warning lines, the ``# columns:`` line and one ``row`` per pair.

    ``row`` is a ``%`` template of two fields.  A header entry or warning
    that would not read back raises SpectrumError before any file is touched.
    """
    import numpy as np

    lines = header_lines(header, header_warnings, SpectrumError)
    lines.append(f"# columns: {columns}\n")
    # one template over Python floats formats like numpy's float64 scalars, and
    # builds no string per row
    body = (row + "\n") * len(xs) % tuple(np.column_stack((xs, ys)).ravel().tolist())
    write_records(path, "\n".join(lines) + body, SpectrumError)


def write_spectrum(path: str | Path, spectrum: Spectrum) -> None:
    _write_columns(path, spectrum.metadata, spectrum.warnings, "energy_meV intensity",
                   "%.6f\t%.9g", spectrum.energy_mev, spectrum.intensity)


def _located_columns(reader: RecordReader) -> tuple[list[float], list[float]]:
    """The two columns of a file whose every row holds exactly two finite floats.

    Raises SpectrumError, located at the first row that does not.
    """
    isfinite = math.isfinite
    xs: list[float] = []
    ys: list[float] = []
    for lineno, tokens in reader:
        try:
            x, y = tokens
            x, y = float(x), float(y)
        except ValueError as exc:
            why = exc if len(tokens) == 2 else f"expected 2 columns, got {len(tokens)}"
            raise SpectrumError(reader.locate(lineno, why)) from exc
        if not (isfinite(x) and isfinite(y)):
            raise SpectrumError(reader.locate(lineno, f"non-finite value in '{x} {y}'"))
        xs.append(x)
        ys.append(y)
    return xs, ys


def _columns(path: str | Path) -> tuple[np.ndarray, np.ndarray, RecordReader]:
    """The two columns of the file at ``path`` and its drained reader.

    One numpy pass parses a file of at least one row whose every row holds
    two finite floats.  Any other file takes the located pass, which raises
    SpectrumError at the first row that does not.  Either way the header
    and warnings come from the returned reader.
    """
    import numpy as np

    reader = read_records(path, SpectrumError)
    lines = reader._lines
    try:
        with warnings.catch_warnings():
            # a file without rows only warns; it takes the located pass below
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(lines, comments="#", ndmin=2)
    except ValueError:
        table = None
    if table is None or table.shape[0] == 0 or table.shape[1] != 2 or not np.isfinite(table).all():
        del lines, table  # the located pass releases the lines when it ends
        xs, ys = _located_columns(reader)
        return np.array(xs), np.array(ys), reader
    # only lines holding '#' can hold a header entry or a warning
    reader = RecordReader("\n".join(line for line in lines if "#" in line), reader.source)
    del lines
    for _ in reader:
        pass
    # contiguous columns, like the located pass's
    xs, ys = np.ascontiguousarray(table.T)
    return xs, ys, reader


def read_spectrum(path: str | Path) -> Spectrum:
    energy, intensity, reader = _columns(path)
    return Spectrum(energy, intensity, reader.header, tuple(reader.warnings))


def write_angular_samples(
    path: str | Path, samples: AngularScan, metadata: dict | None = None
) -> None:
    _write_columns(path, metadata or {}, (), "phi_deg intensity",
                   "%.4f\t%.9g", samples.phi_deg, samples.intensity)


def read_angular_samples(path: str | Path) -> AngularScan:
    phi_deg, intensity, _ = _columns(path)
    return AngularScan(phi_deg, intensity)
