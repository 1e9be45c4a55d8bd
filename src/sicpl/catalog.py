"""Zero-phonon-line catalog and wavelength/energy unit handling.

The built-in catalog holds the 20 VV/NV lines of the two hexagonal
polytypes with their printed air wavelengths, energies, axial/basal
geometry and lattice-site assignments.  Printed values are stored
verbatim; energies derived from wavelengths are computed on demand.
"""

from __future__ import annotations

import enum
import functools
import math
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .records import RecordReader, checked, read_records

HC_EV_NM = 1239.84198  # h*c in eV*nm
HC_MEV_NM = HC_EV_NM * 1000.0

# Single refractive index fitted by least squares to all 20 (nm, meV)
# pairs of the built-in catalog; brings the worst-case residual from
# ~0.37 meV (vacuum) down to ~0.083 meV.
DEFAULT_AIR_INDEX = 1.000276


class CatalogError(Exception):
    pass


@checked
class Medium(NamedTuple):
    refractive_index: float

    def _check(self) -> None:
        if not (math.isfinite(self.refractive_index) and self.refractive_index >= 1.0):
            raise CatalogError(
                f"refractive index must be finite and >= 1, got {self.refractive_index}"
            )

    @classmethod
    def vacuum(cls) -> "Medium":
        return cls(1.0)

    @classmethod
    def air(cls, refractive_index: float = DEFAULT_AIR_INDEX) -> "Medium":
        return cls(refractive_index)


def _require_positive(value: float, what: str) -> None:
    if not (math.isfinite(value) and value > 0):
        raise CatalogError(f"{what} must be finite and positive, got {value}")


def nm_to_mev(wavelength_nm: float, medium: Medium = Medium.vacuum()) -> float:
    _require_positive(wavelength_nm, "wavelength")
    return HC_MEV_NM / (medium.refractive_index * wavelength_nm)


def mev_to_nm(energy_mev: float, medium: Medium = Medium.vacuum()) -> float:
    _require_positive(energy_mev, "energy")
    return HC_MEV_NM / (medium.refractive_index * energy_mev)


class Polytype(enum.Enum):
    FOUR_H = "4H"
    SIX_H = "6H"


class Defect(enum.Enum):
    DIVACANCY = "VV"
    NITROGEN_VACANCY = "NV"


class Geometry(enum.Enum):
    AXIAL = "axial"
    BASAL = "basal"


SITE_TOKENS = ("k1", "k2", "h", "k")  # longest match first


def parse_sites(text: str) -> tuple[str, str]:
    """Split a compact site pair such as "hh", "k2k1" or "hk1"."""
    sites = []
    rest = text
    while rest:
        for tok in SITE_TOKENS:
            if rest.startswith(tok):
                sites.append(tok)
                rest = rest[len(tok):]
                break
        else:
            raise CatalogError(f"unparseable site pair {text!r}")
    if len(sites) != 2:
        raise CatalogError(f"site pair {text!r} does not name exactly two sites")
    return tuple(sites)


@checked
class ZplLine(NamedTuple):
    label: str
    polytype: Polytype
    defect: Defect
    wavelength_nm: float
    energy_mev: float
    geometry: Geometry
    sites: tuple[str, str]
    provenance: str = ""

    def _check(self) -> None:
        _require_positive(self.wavelength_nm, "wavelength")
        _require_positive(self.energy_mev, "energy")

    @property
    def is_axial(self) -> bool:
        return self.geometry is Geometry.AXIAL

    def derived_energy_mev(self, medium: Medium = Medium.air()) -> float:
        return nm_to_mev(self.wavelength_nm, medium)


class Catalog(NamedTuple):
    lines: tuple[ZplLine, ...]

    def lookup(self, polytype: Polytype, defect: Defect, label: str) -> ZplLine:
        for line in self.lines:
            if (
                line.polytype is polytype
                and line.defect is defect
                and line.label == label
            ):
                return line
        raise CatalogError(f"no line {label!r} for {polytype.value} {defect.value}")

    def lines_for(
        self,
        polytype: Polytype | None = None,
        defect: Defect | None = None,
        geometry: Geometry | None = None,
    ) -> list[ZplLine]:
        """Matching lines in ascending printed energy."""
        out = [
            line
            for line in self.lines
            if (polytype is None or line.polytype is polytype)
            and (defect is None or line.defect is defect)
            and (geometry is None or line.geometry is geometry)
        ]
        return sorted(out, key=lambda li: li.energy_mev)

    def unit_residuals(
        self, medium: Medium = Medium.air()
    ) -> list[tuple[ZplLine, float]]:
        """Per-line (derived - printed) energy residual in meV."""
        return [
            (line, line.derived_energy_mev(medium) - line.energy_mev)
            for line in self.lines
        ]


def _parse_record(tokens: list[str]) -> ZplLine:
    if not 7 <= len(tokens) <= 8:
        raise ValueError(f"expected 7 or 8 fields, got {len(tokens)}")
    label, poly, defect, lam, emev, geom, sites = tokens[:7]
    return ZplLine(
        label=label,
        polytype=Polytype(poly),
        defect=Defect(defect),
        wavelength_nm=float(lam),
        energy_mev=float(emev),
        geometry=Geometry(geom),
        sites=parse_sites(sites),
        provenance=tokens[7] if len(tokens) == 8 else "",
    )


def parse_catalog(text: str, source: str = "catalog") -> Catalog:
    """Parse catalog records.

    A bad record or duplicate label is a CatalogError located as
    ``<source>: line N:``.
    """
    return _read_catalog(RecordReader(text, source))


def load_catalog(path: str | Path) -> Catalog:
    return _read_catalog(read_records(path, CatalogError))


def _read_catalog(reader: RecordReader) -> Catalog:
    lines = []
    seen: set[tuple[Polytype, Defect, str]] = set()
    for lineno, tokens in reader:
        try:
            line = _parse_record(tokens)
        except (ValueError, CatalogError) as exc:
            raise CatalogError(reader.locate(lineno, exc)) from exc
        key = (line.polytype, line.defect, line.label)
        if key in seen:
            raise CatalogError(reader.locate(lineno, f"duplicate label {line.label!r}"))
        seen.add(key)
        lines.append(line)
    return Catalog(tuple(lines))


def format_catalog(catalog: Catalog) -> str:
    rows = ["# label polytype defect wavelength_nm energy_meV geometry sites provenance"]
    for li in catalog.lines:
        rows.append(
            f"{li.label} {li.polytype.value} {li.defect.value} "
            f"{li.wavelength_nm} {li.energy_mev} {li.geometry.value} "
            f"{''.join(li.sites)} {li.provenance}".rstrip()
        )
    return "\n".join(rows) + "\n"


@functools.cache
def builtin_catalog() -> Catalog:
    """The built-in 20-line VV/NV catalog."""
    text = resources.files("sicpl.data").joinpath("zpl_catalog.txt").read_text()
    return parse_catalog(text)
