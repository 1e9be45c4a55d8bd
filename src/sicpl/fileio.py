"""Plain-text exchange formats for spectra and angular scans.

Two-column delimited files with a ``#`` comment header carrying full
provenance (laser settings, angle, policy, seed, defaults), so every
emitted artifact is reproducible from its own header.  The record syntax
is that of :mod:`sicpl.records`; every row holds exactly two finite
numbers.
"""

from __future__ import annotations

import math
from pathlib import Path

from .records import RecordReader, header_lines, read_records
from .spectrum import AngularScan, Spectrum, SpectrumError


def _write_columns(path, header, warnings, columns: str, row: str, xs, ys) -> None:
    """Write the header and warning lines, the ``# columns:`` line and one ``row`` per pair.

    A header entry or warning that would not read back raises SpectrumError
    before the file is opened.
    """
    lines = header_lines(header, warnings, SpectrumError)
    lines.append(f"# columns: {columns}")
    # Python floats format like numpy's float64 scalars, and faster
    lines.extend(map(row.format, xs.tolist(), ys.tolist()))
    Path(path).write_text("\n".join(lines) + "\n")


def write_spectrum(path: str | Path, spectrum: Spectrum) -> None:
    _write_columns(path, spectrum.metadata, spectrum.warnings, "energy_meV intensity",
                   "{:.6f}\t{:.9g}", spectrum.energy_mev, spectrum.intensity)


def _columns(reader: RecordReader) -> tuple[list[float], list[float]]:
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


def read_spectrum(path: str | Path) -> Spectrum:
    import numpy as np

    reader = read_records(path, SpectrumError)
    energy, intensity = _columns(reader)
    return Spectrum(np.array(energy), np.array(intensity), reader.header, tuple(reader.warnings))


def write_angular_samples(
    path: str | Path, samples: AngularScan, metadata: dict | None = None
) -> None:
    _write_columns(path, metadata or {}, (), "phi_deg intensity",
                   "{:.4f}\t{:.9g}", samples.phi_deg, samples.intensity)


def read_angular_samples(path: str | Path) -> AngularScan:
    return AngularScan(*_columns(read_records(path, SpectrumError)))
