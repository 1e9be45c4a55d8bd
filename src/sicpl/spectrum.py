"""Synthetic polarized photoluminescence experiments.

Builds on the catalog and the selection rules: excitation efficiencies
versus polarizer angle, which lines a laser can excite, spectrum
synthesis with ZPL plus phonon-sideband Gaussians, Debye-Waller
measurement, angular scans, cosine-model fitting, orientation-ensemble
averaging and axial/basal classification of emitters.
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Iterator
from typing import TYPE_CHECKING, NamedTuple

from .catalog import Geometry, Medium, ZplLine, nm_to_mev
from .records import Checked, FrozenSlots
from .selection import DefectClass, selection_table

# numpy is imported inside the numeric kernels, not here: the symmetry
# and catalog commands never need it, and it dominates their start-up.
if TYPE_CHECKING:
    import numpy as np

# angle convention: phi = 0 is E perpendicular to c, phi = 90 is E parallel to c
# The C1h mirror plane contains c, so symmetry forbids neither polarization
# for a basal line.  A dipole tilted theta from c has
# B = (1 - 3 cos^2 theta) / (1 + cos^2 theta): the default 0.33 is a tilt
# of about 63.3 degrees, and cos^2 theta = 0 gives the axial B = 1.
DEFAULT_BASAL_MODULATION = 0.33
DEFAULT_ZPL_FWHM_MEV = 1.0
DEFAULT_DEBYE_WALLER = 0.3
DEFAULT_AXIAL_B_THRESHOLD = 0.95
DEFAULT_VANISH_RATIO = 0.01


class SpectrumError(Exception):
    pass


class DegenerateFitError(SpectrumError):
    pass


# exact cosines at the reduced angles 2*phi mod 360 that float radians would miss
_EXACT_COS2PHI = {0.0: 1.0, 90.0: 0.0, 180.0: -1.0, 270.0: 0.0}


def cos2phi(phi_deg: float) -> float:
    """cos(2*phi) with exact values at multiples of 45 degrees.

    The axial-vanishing law requires an exact -1 at phi = 90, which
    float radians would only approximate.  phi is reduced mod 180 before
    it is doubled, so every finite angle has a finite cosine; wherever
    2*phi is finite this equals (2*phi) mod 360 bit for bit.
    """
    angle = 2.0 * (phi_deg % 180.0)
    if angle in _EXACT_COS2PHI:
        return _EXACT_COS2PHI[angle]
    return math.cos(math.radians(angle))


def cos2phi_array(phi_deg: np.ndarray) -> np.ndarray:
    """Element-wise :func:`cos2phi`, with the same reduction and exact values."""
    import numpy as np

    angle = np.remainder(np.asarray(phi_deg, dtype=float), 180.0)
    angle *= 2.0
    values = np.radians(angle)
    np.cos(values, out=values)
    for exact_angle, value in _EXACT_COS2PHI.items():
        values[angle == exact_angle] = value
    return values


class LaserMode(enum.Enum):
    NON_RESONANT = "non-resonant"
    RESONANT = "resonant"


class _LaserConfigFields(NamedTuple):
    photon_energy_mev: float
    polarizer_angle_deg: float  # phi, in [0, 180)
    mode: LaserMode = LaserMode.NON_RESONANT


class LaserConfig(Checked, _LaserConfigFields):
    __slots__ = ()

    def _check(self) -> None:
        if not (math.isfinite(self.photon_energy_mev) and self.photon_energy_mev > 0):
            raise SpectrumError(
                f"photon energy must be finite and positive, got {self.photon_energy_mev}"
            )
        if not 0.0 <= self.polarizer_angle_deg < 180.0:
            raise SpectrumError("polarizer angle must lie in [0, 180)")

    @classmethod
    def from_wavelength(
        cls,
        wavelength_nm: float,
        polarizer_angle_deg: float,
        medium: Medium = Medium.air(),
        mode: LaserMode = LaserMode.NON_RESONANT,
    ) -> "LaserConfig":
        return cls(nm_to_mev(wavelength_nm, medium), polarizer_angle_deg, mode)


class _AngularModelFields(NamedTuple):
    amplitude: float
    modulation: float


class AngularModel(Checked, _AngularModelFields):
    """I(phi) = amplitude * (1 + modulation * cos 2 phi)."""

    __slots__ = ()

    def _check(self) -> None:
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0):
            raise SpectrumError(f"amplitude must be finite and non-negative, got {self.amplitude}")
        if not abs(self.modulation) <= 1.0:
            raise SpectrumError(f"modulation must lie in [-1, 1], got {self.modulation}")

    def intensity(self, phi_deg: float) -> float:
        return self.amplitude * (1.0 + self.modulation * cos2phi(phi_deg))


class AngularSample(NamedTuple):
    phi_deg: float
    intensity: float


class _LineShapeParamsFields(NamedTuple):
    zpl_fwhm_mev: float = DEFAULT_ZPL_FWHM_MEV
    # (red-shift offset from the ZPL in meV, fwhm in meV, relative weight)
    sideband: tuple[tuple[float, float, float], ...] = (
        (40.0, 20.0, 0.6),
        (90.0, 30.0, 0.4),
    )
    debye_waller: float = DEFAULT_DEBYE_WALLER


class LineShapeParams(Checked, _LineShapeParamsFields):
    __slots__ = ()

    def _check(self) -> None:
        if not 0.0 < self.debye_waller <= 1.0:
            raise SpectrumError("Debye-Waller fraction must lie in (0, 1]")
        if not (math.isfinite(self.zpl_fwhm_mev) and self.zpl_fwhm_mev > 0):
            raise SpectrumError("ZPL fwhm must be finite and positive")
        for offset, fwhm, weight in self.sideband:
            if not math.isfinite(offset):
                raise SpectrumError(f"sideband offset {offset} must be finite")
            if not (math.isfinite(fwhm) and fwhm > 0):
                raise SpectrumError(f"sideband fwhm {fwhm} must be finite and positive")
            if not (math.isfinite(weight) and weight >= 0):
                raise SpectrumError(f"sideband weight {weight} must be finite and non-negative")
        # the sideband carries 1 - debye_waller of each band, so it needs a weight
        if self.debye_waller < 1.0 and not any(weight > 0 for _, _, weight in self.sideband):
            raise SpectrumError(
                "a Debye-Waller fraction below 1 needs a sideband of positive weight"
            )


class Spectrum(FrozenSlots):
    """Intensity on an energy grid, with its header metadata and warnings.

    A slots class, not a tuple: a spectrum equals only itself, so no
    comparison ever touches its arrays.
    """

    __slots__ = ("energy_mev", "intensity", "metadata", "warnings")

    def __init__(
        self,
        energy_mev: np.ndarray,
        intensity: np.ndarray,
        metadata: dict | None = None,
        warnings: tuple[str, ...] = (),
    ) -> None:
        object.__setattr__(self, "energy_mev", energy_mev)
        object.__setattr__(self, "intensity", intensity)
        object.__setattr__(self, "metadata", {} if metadata is None else metadata)
        object.__setattr__(self, "warnings", warnings)


class AngularScan:
    """Intensity against polarizer angle, held as two float64 arrays of one length.

    Iterating yields one :class:`AngularSample` per angle, built only then.
    """

    __slots__ = ("phi_deg", "intensity")

    def __init__(self, phi_deg, intensity) -> None:
        import numpy as np

        self.phi_deg = np.asarray(phi_deg, dtype=float)
        self.intensity = np.asarray(intensity, dtype=float)
        if self.phi_deg.ndim != 1 or self.phi_deg.shape != self.intensity.shape:
            raise SpectrumError("a scan needs two 1-d arrays of one length")

    def __len__(self) -> int:
        return self.phi_deg.size

    def __iter__(self) -> Iterator[AngularSample]:
        return map(AngularSample, self.phi_deg.tolist(), self.intensity.tolist())


def excitation_efficiency(
    line: ZplLine,
    laser: LaserConfig,
    basal_modulation: float = DEFAULT_BASAL_MODULATION,
    zpl_fwhm_mev: float = DEFAULT_ZPL_FWHM_MEV,
) -> float:
    """Relative absorption efficiency of one line, normalized to 1 at its best angle.

    Non-resonant excitation requires the laser strictly above the ZPL
    (absorption goes into the sideband); resonant excitation requires a
    hit within half a linewidth.  Axial lines take their modulation from
    the selection table: 1, so they vanish exactly at phi = 90.  Basal
    lines take ``basal_modulation``, which must lie in [0, 1].
    """
    if not 0.0 <= basal_modulation <= 1.0:
        raise SpectrumError(f"basal modulation must lie in [0, 1], got {basal_modulation}")
    if not (math.isfinite(zpl_fwhm_mev) and zpl_fwhm_mev > 0):
        raise SpectrumError(f"ZPL fwhm must be finite and positive, got {zpl_fwhm_mev}")
    if laser.mode is LaserMode.NON_RESONANT:
        if laser.photon_energy_mev <= line.energy_mev:
            return 0.0
    else:
        if abs(laser.photon_energy_mev - line.energy_mev) > zpl_fwhm_mev / 2.0:
            return 0.0
    b = _axial_modulation(laser.mode) if line.geometry is Geometry.AXIAL else basal_modulation
    model = AngularModel(1.0, b)
    return model.intensity(laser.polarizer_angle_deg) / model.intensity(0.0)


@functools.cache
def _axial_modulation(mode: LaserMode) -> float:
    """Modulation B of an axial line, read from the triplet-axial selection table.

    Resonant light is absorbed at the ZPL, non-resonant light through a
    phonon.  When none of the E parallel c entries the mode reads is
    allowed, the line cannot absorb at phi = 90, so B = 1.
    """
    row = selection_table(DefectClass.TRIPLET_AXIAL).symbols()["E_par_c"]
    if "A" in (row[:1] if mode is LaserMode.RESONANT else row[1:]):
        raise SpectrumError(
            f"{mode.value} absorption of an axial line is allowed for E parallel to c; "
            "its modulation does not follow from the selection table"
        )
    return 1.0


def excited_lines(
    lines: list[ZplLine] | tuple[ZplLine, ...],
    laser: LaserConfig,
    basal_modulation: float = DEFAULT_BASAL_MODULATION,
    zpl_fwhm_mev: float = DEFAULT_ZPL_FWHM_MEV,
) -> list[tuple[ZplLine, float]]:
    """Lines with nonzero excitation efficiency, ascending in energy."""
    pairs = [
        (line, excitation_efficiency(line, laser, basal_modulation, zpl_fwhm_mev))
        for line in lines
    ]
    return sorted(
        [(li, eff) for li, eff in pairs if eff > 0.0],
        key=lambda p: p[0].energy_mev,
    )


# Each Gaussian is evaluated only within TRUNCATION_SIGMAS standard
# deviations of its centre: the smallest whole number for which the
# dropped tail, exp(-K**2 / 2) of the peak, lies below 2**-53 of it.
TRUNCATION_SIGMAS = 9.0
_FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))
# Synthesis walks the grid in tiles of this many points. Each Gaussian
# makes seven passes over its window; within a tile the slices of the
# grid, the intensity and the two line buffers (4 arrays x 32K points
# x 8 B = 1 MB) stay in L2 cache, where a grid-sized pass would stream
# each array from memory every time.
_TILE_POINTS = 1 << 15


def _gaussian(
    x: np.ndarray, center: float, sigma: float, area: float, out: np.ndarray
) -> np.ndarray:
    """Normalized Gaussian of the given area on ``x``, computed in place in ``out``."""
    import numpy as np

    amp = _peak(area, sigma)
    np.subtract(x, center, out=out)
    out /= sigma
    np.square(out, out=out)
    out *= -0.5
    np.exp(out, out=out)
    out *= amp
    return out


def _peak(area, sigma):
    """Peak height of a normalized Gaussian; takes floats or arrays."""
    return area / (sigma * math.sqrt(2.0 * math.pi))


def _line_components(
    line: ZplLine, eff: float, shape: LineShapeParams
) -> list[tuple[float, float, float]]:
    """(centre, sigma, area) of the ZPL and each sideband Gaussian of one line."""
    dw = shape.debye_waller
    components = [(line.energy_mev, shape.zpl_fwhm_mev / _FWHM_PER_SIGMA, eff * dw)]
    total_weight = sum(w for _, _, w in shape.sideband)
    if dw < 1.0:
        for offset, fwhm, weight in shape.sideband:
            area = eff * (1.0 - dw) * weight / total_weight
            components.append((line.energy_mev - offset, fwhm / _FWHM_PER_SIGMA, area))
    return components


def synthesize_spectrum(
    excited: list[tuple[ZplLine, float]],
    shapes: LineShapeParams,
    grid: np.ndarray,
    metadata: dict | None = None,
) -> Spectrum:
    """Sum of per-line bands: a ZPL Gaussian plus red-shifted sideband Gaussians.

    Sideband weights are normalized so the ZPL carries the configured
    Debye-Waller fraction of each line's band; the band integral of each
    line equals its excitation efficiency.

    Each Gaussian is evaluated only on the grid points within
    K = TRUNCATION_SIGMAS = 9 standard deviations of its centre and is
    zero elsewhere.  The value dropped at any grid point is therefore at
    most amp * exp(-K**2 / 2) < 2.6e-18 * amp per component, where amp
    is that component's peak height: below 2**-53 * amp, half an ulp of
    the peak.  Inside its window a component takes the same value as
    the untruncated formula.

    Each line's band is accumulated on its own and then added to the
    total, so synthesis is bit-exactly linear in the line set: the
    spectrum of a union of lines equals the sum of their separate
    spectra.

    Every line is planned first, and a component whose peak height is
    not a finite float is an error there.  The grid is then walked in
    tiles of _TILE_POINTS points, each line clipped to the tile.  Every grid
    point goes through the same operations in the same order as in one
    pass over the whole grid, so the tile size changes no bit of the
    result.
    """
    import numpy as np

    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise SpectrumError("energy grid must be a strictly ascending 1-d array")
    # the grid steps borrow the intensity's first n - 1 slots, so checking
    # the grid allocates no second grid-sized array; min() > 0 is False on NaN
    intensity = np.empty_like(grid)
    steps = np.subtract(grid[1:], grid[:-1], out=intensity[:-1])
    if not steps.min() > 0:
        raise SpectrumError("energy grid must be a strictly ascending 1-d array")
    spacing = float(steps.max())
    intensity.fill(0.0)

    # plan every line first: its components and their windows on the grid
    warnings, plans = [], []
    for line, eff in excited:
        if spacing > shapes.zpl_fwhm_mev / 4.0:
            warnings.append(
                f"grid spacing {spacing:g} meV too coarse for {line.label} "
                f"fwhm {shapes.zpl_fwhm_mev:g} meV"
            )
        components = _line_components(line, eff, shapes)
        centers, sigmas, areas = np.array(components).T
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            finite = np.isfinite(_peak(areas, sigmas))
        if not finite.all():
            i = int(np.argmin(finite))
            raise SpectrumError(
                f"{line.label}: a Gaussian of sigma {sigmas[i]:g} meV and area "
                f"{areas[i]:g} has a peak height beyond the float range"
            )
        half_widths = TRUNCATION_SIGMAS * sigmas
        starts = np.searchsorted(grid, centers - half_widths, side="left").tolist()
        stops = np.searchsorted(grid, centers + half_widths, side="right").tolist()
        windows = [(c, s, e) for c, s, e in zip(components, starts, stops) if s < e]
        if windows:
            plans.append((min(starts), max(stops), windows))

    tile = min(grid.size, _TILE_POINTS)
    # reused by every line, and indexed like the current tile
    band_buffer, scratch = np.empty(tile), np.empty(tile)
    for t0 in range(0, grid.size, tile):
        t1 = t0 + tile
        for lo, hi, windows in plans:
            if tile < grid.size:  # clip the line to this tile
                lo, hi = max(lo, t0), min(hi, t1)
                if lo >= hi:
                    continue
                windows = [
                    (c, max(s, t0), min(e, t1)) for c, s, e in windows if s < t1 and e > t0
                ]
            # accumulate the full band per line over the union of its windows,
            # then add: keeps synthesis bit-exactly linear in the line set
            band_buffer[lo - t0:hi - t0] = 0.0
            for (center, sigma, area), start, stop in windows:
                band_buffer[start - t0:stop - t0] += _gaussian(
                    grid[start:stop], center, sigma, area, scratch[start - t0:stop - t0]
                )
            intensity[lo:hi] += band_buffer[lo - t0:hi - t0]
    return Spectrum(grid, intensity, dict(metadata or {}), tuple(warnings))


def debye_waller(
    spectrum: Spectrum,
    zpl_window: tuple[float, float],
    band_window: tuple[float, float],
) -> float:
    """ZPL-window area over band-window area, by trapezoidal integration.

    The spectrum's energies must be strictly ascending: each window is
    the slice of grid points that lie inside it.  A window area that
    overflows is an error, and so is a negative intensity inside the band
    window, which would make the fraction meaningless; outside the
    windows, background-subtracted data may dip below zero.
    """
    import numpy as np

    zlo, zhi = zpl_window
    blo, bhi = band_window
    if not (blo <= zlo < zhi <= bhi):
        raise SpectrumError("ZPL window must lie inside the band window")
    grid = spectrum.energy_mev
    if not (grid[1:] > grid[:-1]).all():
        raise SpectrumError("spectrum energies must be strictly ascending")
    if grid.size == 0 or blo < grid[0] or bhi > grid[-1]:
        raise SpectrumError("band window exceeds the spectrum grid")

    def window_area(lo: float, hi: float) -> float:
        start = np.searchsorted(grid, lo, side="left")
        stop = np.searchsorted(grid, hi, side="right")
        if stop - start < 2:
            raise SpectrumError("window contains fewer than two grid points")
        values = spectrum.intensity[start:stop]
        if values.min() < 0:
            raise SpectrumError(f"window {lo:g} to {hi:g} meV holds a negative intensity")
        with np.errstate(over="ignore", invalid="ignore"):
            area = float(np.trapezoid(values, grid[start:stop]))
        if not math.isfinite(area):
            raise SpectrumError(f"window {lo:g} to {hi:g} meV has a non-finite area")
        return area

    band = window_area(blo, bhi)
    if band <= 0:
        raise SpectrumError("band window has no intensity")
    return window_area(zlo, zhi) / band


def angular_scan(
    model: AngularModel,
    phi_values: list[float] | np.ndarray,
    noise_sigma: float = 0.0,
    seed: int | None = None,
) -> AngularScan:
    """Evaluate the cosine model, optionally with seeded Gaussian noise.

    The scan owns a copy of the angles.  The noise is drawn in one call,
    which yields the same values as one draw per sample in angle order.
    An intensity that overflows to a non-finite value is an error.
    """
    import numpy as np

    if not (math.isfinite(noise_sigma) and noise_sigma >= 0):
        raise SpectrumError(f"noise sigma must be finite and non-negative, got {noise_sigma}")
    if seed is not None and seed < 0:
        raise SpectrumError(f"seed must be non-negative, got {seed}")
    phis = np.array(phi_values, dtype=float)
    # amplitude * (1 + modulation * cos 2 phi), in place in the cosine buffer
    values = cos2phi_array(phis)
    with np.errstate(over="ignore", invalid="ignore"):
        values *= model.modulation
        values += 1.0
        values *= model.amplitude
        if noise_sigma > 0.0:
            values += np.random.default_rng(seed).normal(0.0, noise_sigma, size=phis.size)
    if not np.isfinite(values).all():
        raise SpectrumError(
            f"amplitude {model.amplitude:g} with noise sigma {noise_sigma:g} "
            "gives a non-finite intensity"
        )
    return AngularScan(phis, values)


def fit_angular(samples: AngularScan) -> tuple[AngularModel, float]:
    """Least-squares fit of I(phi) = A (1 + B cos 2 phi).

    Linear in (A, A*B) on the basis {1, cos 2 phi}; B is clamped into
    [-1, 1] so noisy near-axial data still yields a valid model.  A
    residual that overflows is an error.
    """
    import numpy as np

    if len(samples) < 3:
        raise DegenerateFitError("need at least 3 samples")
    phis, intensities = samples.phi_deg, samples.intensity
    if not (np.isfinite(phis).all() and np.isfinite(intensities).all()):
        raise DegenerateFitError("samples contain a non-finite angle or intensity")
    cos_vals = cos2phi_array(phis)
    if np.ptp(np.round(cos_vals, 12)) == 0.0:
        raise DegenerateFitError("all samples share the same cos 2 phi; cannot fit")
    design = np.column_stack([np.ones_like(cos_vals), cos_vals])
    # intensities near the float limit overflow; the residual check below catches it
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs, _, _, _ = np.linalg.lstsq(design, intensities, rcond=None)
        a, ab = float(coeffs[0]), float(coeffs[1])
        if a <= 0:
            raise DegenerateFitError(f"fitted amplitude {a:g} is not positive")
        b = min(1.0, max(-1.0, ab / a))
        model = AngularModel(a, b)
        residual = float(
            np.linalg.norm(intensities - a * (1.0 + b * cos_vals))
        )
    if not math.isfinite(residual):
        raise SpectrumError("the fit residual overflows: intensities are too large to fit")
    return model, residual


class ScanPlane(enum.Enum):
    TOWARD_C = "toward-c"    # polarizer rotated from E-perp-c toward E-par-c
    IN_PLANE = "in-plane"    # polarizer rotated within the basal plane


def classify_geometry(
    model: AngularModel,
    scan_plane: ScanPlane = ScanPlane.TOWARD_C,
    axial_threshold: float = DEFAULT_AXIAL_B_THRESHOLD,
) -> Geometry:
    """Call an emitter axial or basal from its fitted angular response.

    Rotating toward c, an axial emitter modulates fully (B near 1).
    Rotating in the basal plane on a single emitter, only a basal
    emitter can go dark at some angle; an axial one keeps a nonzero
    floor however strong its modulation.  An in-plane response whose
    floor is at most DEFAULT_VANISH_RATIO of its peak is called basal.
    The axial threshold must lie in [0, 1].
    """
    if not 0.0 <= axial_threshold <= 1.0:
        raise SpectrumError(f"axial threshold must lie in [0, 1], got {axial_threshold}")
    if scan_plane is ScanPlane.TOWARD_C:
        return Geometry.AXIAL if model.modulation >= axial_threshold else Geometry.BASAL
    peak = model.amplitude * (1.0 + abs(model.modulation))
    floor = model.amplitude * (1.0 - abs(model.modulation))
    if peak <= 0:
        return Geometry.BASAL
    return Geometry.BASAL if floor / peak <= DEFAULT_VANISH_RATIO else Geometry.AXIAL


def ensemble_average(single: AngularModel) -> AngularModel:
    """Average a single-defect response over its three in-plane orientations.

    The three defect-axis orientations 120 degrees apart cancel the
    cos 2 phi term identically, so the ensemble is isotropic.
    """
    return AngularModel(single.amplitude, 0.0)
