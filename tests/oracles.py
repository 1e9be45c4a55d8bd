"""Independent brute-force oracles used by the test suite.

Everything here works from explicit matrices and element-wise sums in
floating point, deliberately avoiding the library's exact-rational path.
"""

from __future__ import annotations

import math

import numpy as np

TOL = 1e-9


def c3v_matrices() -> list[np.ndarray]:
    """The six 2x2 orthogonal matrices of the triangle symmetry group."""
    mats = []
    for k in range(3):
        th = 2.0 * math.pi * k / 3.0
        mats.append(
            np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        )
    for k in range(3):
        a = 2.0 * math.pi * k / 3.0  # reflection across the line at angle a/2
        mats.append(
            np.array([[math.cos(a), math.sin(a)], [math.sin(a), -math.cos(a)]])
        )
    return mats


def _find(mats: list[np.ndarray], target: np.ndarray) -> int:
    for i, m in enumerate(mats):
        if np.allclose(m, target, atol=TOL):
            return i
    raise AssertionError("group not closed under multiplication")


def conjugacy_classes(mats: list[np.ndarray]) -> list[list[int]]:
    """Brute-force conjugacy classes, as index lists into ``mats``."""
    n = len(mats)
    assigned = [False] * n
    classes = []
    for i in range(n):
        if assigned[i]:
            continue
        members = set()
        for g in mats:
            j = _find(mats, g @ mats[i] @ np.linalg.inv(g))
            members.add(j)
        for j in members:
            assigned[j] = True
        classes.append(sorted(members))
    return classes


def class_character(mats, classes, rep_fn) -> list[complex]:
    """Character of rep_fn on each class (checks constancy within a class)."""
    values = []
    for members in classes:
        traces = [rep_fn(mats[j]) for j in members]
        assert max(abs(t - traces[0]) for t in traces) < 1e-8
        values.append(traces[0])
    return values


def su2_double_group() -> list[dict]:
    """The 12 elements of the C3v double group as explicit SU(2) lifts.

    Each element records the spin-1/2 matrix U, the character of the
    |Sz| = 3/2 Kramers doublet (corner-block trace of the spin-3/2
    rotation matrix), and the single-valued dipole characters.
    """
    sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
    sigma_y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sigma_z = np.array([[1, 0], [0, -1]], dtype=complex)

    elements = []

    def add(u: np.ndarray, chi_dipole_par: float, chi_dipole_perp: float):
        a = u[0, 0]
        elements.append(
            {
                "u": u,
                "chi_half": np.trace(u),
                # spin-3/2 corner block: diag(a^3, conj(a)^3) for our elements
                "chi_three_half": (a ** 3 + np.conj(a) ** 3),
                "chi_dipole_par": chi_dipole_par,
                "chi_dipole_perp": chi_dipole_perp,
            }
        )

    for k in range(3):
        th = 2.0 * math.pi * k / 3.0
        u = (
            math.cos(th / 2.0) * np.eye(2, dtype=complex)
            - 1j * math.sin(th / 2.0) * sigma_z
        )
        # z-axis rotations: z-dipole invariant, in-plane dipole rotates
        add(u, 1.0, 2.0 * math.cos(th))
        add(-u, 1.0, 2.0 * math.cos(th))  # composed with the 2*pi rotation
    for k in range(3):
        phi = math.pi * k / 3.0  # in-plane normal of the k-th mirror plane
        n_sigma = math.cos(phi) * sigma_x + math.sin(phi) * sigma_y
        u = -1j * n_sigma  # reflection lift: pi rotation about the normal
        add(u, 1.0, 0.0)
        add(-u, 1.0, 0.0)
    assert len(elements) == 12
    return elements


def kramers_allowed(initial: str, final: str, parallel: bool) -> bool:
    """Element-wise reduction-formula verdict for Kramers-level transitions.

    initial/final are "half" or "three_half"; uses the full multiplet
    characters, so a transition is allowed iff any sublevel pair is.
    """
    elements = su2_double_group()
    key_i = f"chi_{initial}"
    key_f = f"chi_{final}"
    key_d = "chi_dipole_par" if parallel else "chi_dipole_perp"
    acc = 0.0 + 0.0j
    for el in elements:
        acc += np.conj(el[key_f]) * el[key_d] * el[key_i]
    m = acc / 12.0
    assert abs(m.imag) < 1e-9
    assert abs(m.real - round(m.real)) < 1e-9
    return round(m.real) >= 1


def reduction_multiplicity(
    class_sizes, rep_chars, irrep_chars, order
) -> complex:
    """Plain complex-float evaluation of the reduction formula."""
    acc = 0.0 + 0.0j
    for n, c, k in zip(class_sizes, rep_chars, irrep_chars):
        acc += n * c * np.conj(k)
    return acc / order


def orthogonality(class_sizes, rows, order) -> tuple[bool, bool]:
    """Row and column orthogonality of a character table, as float Gram matrices.

    ``rows`` holds one character list per irrep.  Rows: (chi n) chi^H = |G| I;
    columns: n_c (chi^H chi) = |G| I, with n_c scaling row c.
    """
    chi = np.array(rows, dtype=complex)
    n = np.array(class_sizes, dtype=float)
    row_gram = (chi * n) @ chi.conj().T
    col_gram = n[:, None] * (chi.conj().T @ chi)
    rows_ok = np.allclose(row_gram, order * np.eye(len(chi)), rtol=0, atol=TOL)
    cols_ok = np.allclose(col_gram, order * np.eye(len(n)), rtol=0, atol=TOL)
    return bool(rows_ok), bool(cols_ok)


def closed_form_efficiency(
    energy_mev: float,
    axial: bool,
    photon_mev: float,
    phi_deg: float,
    resonant: bool,
    basal_modulation: float,
    zpl_fwhm_mev: float = 1.0,
) -> float:
    """Closed-form efficiency (1 + B cos 2 phi) / (1 + B), with B = 1 for axial lines.

    Non-resonant light must lie strictly above the ZPL, resonant light
    within half a linewidth of it.  It reuses the library's ``cos2phi``
    on purpose, for its exact values at multiples of 45 degrees: the
    library's efficiency must match this formula bit for bit.
    """
    from sicpl.spectrum import cos2phi

    if resonant:
        if abs(photon_mev - energy_mev) > zpl_fwhm_mev / 2.0:
            return 0.0
    elif photon_mev <= energy_mev:
        return 0.0
    b = 1.0 if axial else basal_modulation
    return (1.0 + b * cos2phi(phi_deg)) / (1.0 + b)


def scalar_scan(model, phis: list[float], noise_sigma: float, seed: int | None) -> list:
    """An angular scan built one sample at a time: the scalar model, then one noise draw.

    ``angular_scan`` must return exactly these samples, bit for bit.
    """
    from sicpl.spectrum import AngularSample

    rng = np.random.default_rng(seed)
    samples = []
    for phi in phis:
        intensity = model.intensity(phi)
        if noise_sigma > 0.0:
            intensity += float(rng.normal(0.0, noise_sigma))
        samples.append(AngularSample(phi, intensity))
    return samples


def band_spectrum(
    grid, lines, zpl_fwhm: float, sideband, debye_waller: float
) -> tuple[np.ndarray, float]:
    """Untruncated ZPL-plus-sideband spectrum, point by point.

    ``lines`` holds (energy, efficiency) pairs.  Every Gaussian is
    evaluated at every grid point with ``math.exp``.  Returns the
    intensities and the sum of the peak heights of all components, the
    scale for rounding and truncation tolerances.
    """
    components = []
    total_weight = sum(w for _, _, w in sideband)
    for energy, eff in lines:
        components.append((energy, zpl_fwhm, eff * debye_waller))
        if total_weight > 0 and debye_waller < 1.0:
            for offset, fwhm, weight in sideband:
                area = eff * (1.0 - debye_waller) * weight / total_weight
                components.append((energy - offset, fwhm, area))
    values, peaks = [], 0.0
    for _, fwhm, area in components:
        sigma = fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        peaks += abs(area) / (sigma * math.sqrt(2.0 * math.pi))
    for x in grid:
        total = 0.0
        for center, fwhm, area in components:
            sigma = fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
            amp = area / (sigma * math.sqrt(2.0 * math.pi))
            total += amp * math.exp(-0.5 * ((x - center) / sigma) ** 2)
        values.append(total)
    return np.array(values), peaks


def serial_spectrum(excited, shapes, grid) -> np.ndarray:
    """Spectrum synthesis in one pass over the whole grid per line.

    Each line's band is built in a grid-sized buffer and then added to
    the total.  It reuses the library's component and Gaussian helpers
    on purpose: it pins the order of the operations at every grid point,
    which tiled synthesis must follow bit for bit, while
    ``band_spectrum`` pins the formula.
    """
    from sicpl.spectrum import TRUNCATION_SIGMAS, _gaussian, _line_components

    intensity = np.zeros_like(grid)
    band_buffer, scratch = np.empty_like(grid), np.empty_like(grid)
    for line, eff in excited:
        components = _line_components(line, eff, shapes)
        centers = np.array([center for center, _, _ in components])
        half_widths = TRUNCATION_SIGMAS * np.array([sigma for _, sigma, _ in components])
        starts = np.searchsorted(grid, centers - half_widths, side="left")
        stops = np.searchsorted(grid, centers + half_widths, side="right")
        lo, hi = starts.min(), stops.max()
        band_buffer[lo:hi] = 0.0
        for (center, sigma, area), start, stop in zip(components, starts, stops):
            band_buffer[start:stop] += _gaussian(
                grid[start:stop], center, sigma, area, scratch[start:stop]
            )
        intensity[lo:hi] += band_buffer[lo:hi]
    return intensity
