"""Independent float oracles for the benchmark's output checks.

Nothing here imports sicpl.  Characters are complex floats typed in from
the standard tables, multiplicities come from the reduction formula in
floating point, the selection panels are the paper's, and spectra are
evaluated point by point in plain Python.  A check raises ``CheckFailed``.
"""

from __future__ import annotations

import math

import numpy as np

TOL = 1e-9
HC_MEV_NM = 1239841.98  # h*c in meV*nm
AIR_INDEX = 1.000276


class CheckFailed(Exception):
    """An output disagreed with its oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# group -> (order, ((class, size), ...), ((irrep, dim, characters), ...))
TABLES = {
    "C3v": (
        6,
        (("E", 1), ("2C3", 2), ("3sv", 3)),
        (("A1", 1, (1, 1, 1)), ("A2", 1, (1, 1, -1)), ("E", 2, (2, -1, 0))),
    ),
    "C1h": (
        2,
        (("E", 1), ("s", 1)),
        (("A'", 1, (1, 1)), ("A''", 1, (1, -1))),
    ),
    "C3v_double": (
        12,
        (("E", 1), ("R", 1), ("2C3", 2), ("2C3R", 2), ("3sv", 3), ("3svR", 3)),
        (
            ("A1", 1, (1, 1, 1, 1, 1, 1)),
            ("A2", 1, (1, 1, 1, 1, -1, -1)),
            ("E", 2, (2, 2, -1, -1, 0, 0)),
            ("E1/2", 2, (2, -2, 1, -1, 0, 0)),
            ("1E3/2", 1, (1, -1, -1, 1, 1j, -1j)),
            ("2E3/2", 1, (1, -1, -1, 1, -1j, 1j)),
        ),
    ),
}


def irrep_labels(group: str) -> list[str]:
    return [label for label, _, _ in TABLES[group][2]]


def _chars(group: str, label: str) -> np.ndarray:
    for lab, _, chars in TABLES[group][2]:
        if lab == label:
            return np.array(chars, dtype=complex)
    raise KeyError(label)


def multiplicities(group: str, chars: np.ndarray) -> dict[str, int]:
    """Reduction formula in complex floats; the result must be integral."""
    order, classes, irreps = TABLES[group]
    sizes = np.array([n for _, n in classes], dtype=float)
    out = {}
    for label, _, irrep_chars in irreps:
        m = complex(np.sum(sizes * chars * np.conj(np.array(irrep_chars, dtype=complex)))) / order
        expect(abs(m.imag) < TOL and abs(m.real - round(m.real)) < TOL,
               f"non-integral multiplicity {m} of {label}")
        out[label] = int(round(m.real))
    return out


def decomposition(group: str, labels: list[str]) -> dict[str, int]:
    chars = np.ones(len(TABLES[group][1]), dtype=complex)
    for label in labels:
        chars = chars * _chars(group, label)
    return multiplicities(group, chars)


def _dipole(group: str, pol: tuple) -> np.ndarray:
    kind = pol[0]
    if group in ("C3v", "C3v_double"):
        return _chars(group, "A1" if kind == "par" else "E")
    if kind == "par":
        return _chars(group, "A'")
    if kind == "in_plane":
        azimuth = pol[1] % 180.0
        if azimuth == 0.0:
            return _chars(group, "A'")
        if azimuth == 90.0:
            return _chars(group, "A''")
    return _chars(group, "A'") + _chars(group, "A''")


def _allowed(group: str, initial: str, final: str, dipole: np.ndarray,
             phonon: str | None = None) -> bool:
    chars = np.conj(_chars(group, final)) * dipole * _chars(group, initial)
    if phonon is not None:
        chars = chars * _chars(group, phonon)
    trivial = irrep_labels(group)[0]
    return multiplicities(group, chars)[trivial] >= 1


def _symbol(group_theory: bool, coupling: bool) -> str:
    if not group_theory:
        return "F"
    return "A" if coupling else "A*"


def verdict(group: str, initial: str, final: str, pol: tuple,
            phonon: tuple | None, policy: str) -> tuple[str, bool, bool]:
    """(symbol, group-theory flag, coupling flag) of a direct or phonon-assisted query.

    ``phonon`` is (irrep, displacement axis); the field couples to a phonon
    displacing along c only when parallel to c, otherwise to basal ones.
    """
    dipole = _dipole(group, pol)
    if phonon is None:
        allowed = _allowed(group, initial, final, dipole)
        return _symbol(allowed, True), allowed, True
    allowed = _allowed(group, initial, final, dipole, phonon[0])
    if policy == "group-theory-only":
        return _symbol(allowed, True), allowed, True
    couples = (phonon[1] == "along_c") == (pol[0] == "par")
    coupling = _allowed(group, initial, final, dipole) or couples
    return _symbol(allowed, coupling), allowed, coupling


# one-dimensional C3v phonons displace along c, the E phonon in the basal plane
C3V_PHONON_AXIS = {"A1": "along_c", "A2": "along_c", "E": "in_basal_plane"}

KRAMERS_SUBLEVELS ={"E1/2": ("E1/2",), "E3/2": ("1E3/2", "2E3/2")}


def kramers(initial: str, final: str, pol: tuple) -> str:
    dipole = _dipole("C3v_double", pol)
    allowed = any(
        _allowed("C3v_double", i, f, dipole)
        for i in KRAMERS_SUBLEVELS[initial]
        for f in KRAMERS_SUBLEVELS[final]
    )
    return _symbol(allowed, True)


# The paper's panels: columns ZPL, A1-, A2-, E-phonon sideband.
PANELS = {
    ("triplet-axial", "physical"): {"E_perp_c": "A A A A", "E_par_c": "F F F A*"},
    ("triplet-axial", "group-theory-only"): {"E_perp_c": "A A A A", "E_par_c": "F F F A"},
    ("vsi-single-group", "physical"): {"E_perp_c": "F F F A", "E_par_c": "A A F F"},
    ("vsi-single-group", "group-theory-only"): {"E_perp_c": "F F F A", "E_par_c": "A A F F"},
}

_TOKENS = {1: "1", -1: "-1", 2: "2", -2: "-2", 0: "0", 1j: "i", -1j: "-i"}


def table_text(group: str, class_order: list[int], irrep_order: list[int],
               perturb: tuple[int, int, complex] | None) -> tuple[str, list]:
    """A character table document with classes and irreps reordered.

    ``perturb`` = (irrep position, class position, new value) replaces one
    character.  Returns the text and the rows as (label, dim, chars).
    """
    order, classes, irreps = TABLES[group]
    rows = []
    for pos, k in enumerate(irrep_order):
        label, dim, chars = irreps[k]
        chars = [complex(chars[c]) for c in class_order]
        if perturb is not None and perturb[0] == pos:
            chars[perturb[1]] = perturb[2]
        rows.append((label, dim, chars))
    lines = [f"group {group}", f"order {order}"]
    lines += [f"class {classes[c][0]} {classes[c][1]}" for c in class_order]
    for label, dim, chars in rows:
        kind = "extra" if "/" in label else "single"
        tokens = " ".join(_TOKENS[c.real if c.imag == 0 else c] for c in chars)
        lines.append(f"irrep {label} {dim} {kind} {tokens}")
    return "\n".join(lines) + "\n", rows


def table_is_valid(group: str, class_order: list[int], rows: list) -> bool:
    """Orthogonality, dimension and class-size checks in complex floats."""
    order, classes, _ = TABLES[group]
    sizes = np.array([classes[c][1] for c in class_order], dtype=float)
    chars = np.array([r[2] for r in rows], dtype=complex)
    dims = np.array([r[1] for r in rows], dtype=float)
    gram = (chars * sizes) @ np.conj(chars).T
    cols = np.conj(chars).T @ chars
    trivial = [r for r in rows if np.allclose(r[2], 1.0)]
    return bool(
        sizes.sum() == order
        and (dims ** 2).sum() == order
        and len(rows) == len(sizes)
        and np.allclose(chars[:, 0], dims, atol=TOL)
        and np.allclose(gram, order * np.eye(len(rows)), atol=TOL)
        and np.allclose(cols, np.diag(order / sizes), atol=TOL)
        and len(trivial) == 1
    )


# The paper's ZPL table: label -> (polytype, defect, printed energy meV, axial)
CATALOG = {
    "PL1": ("4H", "VV", 1095.0, True), "PL2": ("4H", "VV", 1096.5, True),
    "PL3": ("4H", "VV", 1119.1, False), "PL4": ("4H", "VV", 1149.3, False),
    "QL1": ("6H", "VV", 1087.6, True), "QL2": ("6H", "VV", 1092.1, True),
    "QL3": ("6H", "VV", 1102.9, False), "QL4": ("6H", "VV", 1119.3, False),
    "QL5": ("6H", "VV", 1133.5, True), "QL6": ("6H", "VV", 1134.0, False),
    "NV1": ("4H", "NV", 997.5, False), "NV2": ("4H", "NV", 1013.5, True),
    "NV3": ("4H", "NV", 1050.7, True), "NV4": ("4H", "NV", 1054.0, False),
    "SL1": ("6H", "NV", 998.9, False), "SL2": ("6H", "NV", 1010.7, True),
    "SL3": ("6H", "NV", 1030.2, False), "SL4": ("6H", "NV", 1047.8, False),
    "SL5": ("6H", "NV", 1048.1, True), "SL6": ("6H", "NV", 1074.3, True),
}
SLICES = (("4H", "VV"), ("6H", "VV"), ("4H", "NV"), ("6H", "NV"))


def catalog_slice(polytype: str | None = None, defect: str | None = None,
                  geometry: str | None = None) -> list[tuple[str, float, bool]]:
    """(label, energy, axial) of the matching built-in lines, ascending in energy."""
    rows = [
        (label, energy, axial)
        for label, (poly, dfct, energy, axial) in CATALOG.items()
        if polytype in (None, poly) and defect in (None, dfct)
        and geometry in (None, "axial" if axial else "basal")
    ]
    return sorted(rows, key=lambda r: r[1])


def photon_mev(wavelength_nm: float) -> float:
    return HC_MEV_NM / (AIR_INDEX * wavelength_nm)


def efficiency(energy_mev: float, axial: bool, photon: float, phi_deg: float,
               basal_b: float = 0.33) -> float:
    """Non-resonant excitation efficiency (1 + B cos 2phi) / (1 + B), B = 1 if axial."""
    if photon <= energy_mev:
        return 0.0
    b = 1.0 if axial else basal_b
    return (1.0 + b * math.cos(math.radians(2.0 * phi_deg))) / (1.0 + b)


def check_excited(candidates: list[tuple[str, float, bool]], photon: float, phi: float,
                  got: list[tuple[str, float]]) -> None:
    """``candidates`` are (label, energy, axial); ``got`` the reported (label, efficiency)."""
    reported = dict(got)
    expect(len(reported) == len(got), "duplicate excited line")
    for label, energy, axial in candidates:
        eff = efficiency(energy, axial, photon, phi)
        if label in reported:
            expect(abs(reported[label] - eff) < TOL,
                   f"{label}: efficiency {reported[label]} vs {eff}")
        else:
            expect(eff < TOL, f"{label} with efficiency {eff} missing")
    expect(set(reported) <= {c[0] for c in candidates}, "excited line not in the set")


def _gauss(x: float, center: float, fwhm: float, area: float) -> float:
    sigma = fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    return area / (sigma * math.sqrt(2.0 * math.pi)) * math.exp(-0.5 * ((x - center) / sigma) ** 2)


def band_value(x: float, lines: list[tuple[float, float]], zpl_fwhm: float,
               sideband: tuple, dw: float) -> float:
    """Intensity at x of (energy, efficiency) lines: ZPL plus normalized sidebands."""
    total_weight = sum(w for _, _, w in sideband)
    value = 0.0
    for energy, eff in lines:
        value += _gauss(x, energy, zpl_fwhm, eff * dw)
        for offset, fwhm, weight in sideband:
            value += _gauss(x, energy - offset, fwhm, eff * (1.0 - dw) * weight / total_weight)
    return value


def trapezoid(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.dot(np.diff(x), y[1:] + y[:-1]) / 2.0)


def window_ratio(x: np.ndarray, y: np.ndarray, inner: tuple, outer: tuple) -> float:
    def area(lo, hi):
        mask = (x >= lo) & (x <= hi)
        return trapezoid(x[mask], y[mask])
    return area(*inner) / area(*outer)


def modulation_tolerance(sigma: float, amplitude: float, modulation: float, n: int) -> float:
    """Six standard errors of the fitted B for n evenly spaced angles over 180 degrees."""
    return 6.0 * sigma * math.sqrt((2.0 + modulation ** 2) / n) / amplitude + TOL
