import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sicpl import spectrum
from sicpl.catalog import Defect, Geometry, Medium, Polytype, builtin_catalog
from sicpl.selection import Policy, selection_table
from sicpl.spectrum import (
    AngularModel,
    AngularSample,
    AngularScan,
    DegenerateFitError,
    LaserConfig,
    LaserMode,
    LineShapeParams,
    ScanPlane,
    Spectrum,
    SpectrumError,
    TRUNCATION_SIGMAS,
    angular_scan,
    classify_geometry,
    cos2phi,
    cos2phi_array,
    debye_waller,
    ensemble_average,
    excitation_efficiency,
    excited_lines,
    fit_angular,
    synthesize_spectrum,
)
from oracles import band_spectrum, closed_form_efficiency, scalar_scan, serial_spectrum

CAT = builtin_catalog()
VV4H = CAT.lines_for(Polytype.FOUR_H, Defect.DIVACANCY)


def laser(nm, phi, mode=LaserMode.NON_RESONANT):
    return LaserConfig.from_wavelength(nm, phi, Medium.air(), mode)


def scan_of(samples):
    return AngularScan([s.phi_deg for s in samples], [s.intensity for s in samples])


class TestCos2Phi:
    def test_exact_special_angles(self):
        assert cos2phi(0.0) == 1.0
        assert cos2phi(45.0) == 0.0
        assert cos2phi(90.0) == -1.0
        assert cos2phi(135.0) == 0.0

    def test_generic_angle(self):
        assert cos2phi(30.0) == pytest.approx(0.5)

    @staticmethod
    def assert_array_matches_scalar(phis):
        want = np.array([cos2phi(phi) for phi in phis])
        assert cos2phi_array(np.array(phis)).tobytes() == want.tobytes()

    def test_array_exact_at_multiples_of_45(self):
        self.assert_array_matches_scalar([45.0 * k for k in range(-16, 17)])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    def test_array_matches_scalar(self, phis):
        self.assert_array_matches_scalar(phis)

    def test_large_finite_angles_have_finite_cosines(self):
        # doubling first would overflow 2 * phi to inf, and cos(inf) is NaN
        phis = [1e308, -1e308, 1.7976931348623157e308, 9e307]
        assert all(math.isfinite(cos2phi(phi)) for phi in phis)
        self.assert_array_matches_scalar(phis)

    @settings(max_examples=500, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_reduction_before_doubling_is_bitwise_the_same(self, phi):
        assume(math.isfinite(2.0 * phi))
        doubled_first = (2.0 * phi) % 360.0
        reduced_first = 2.0 * (phi % 180.0)
        assert struct.pack("<d", reduced_first) == struct.pack("<d", doubled_first)
        want = spectrum._EXACT_COS2PHI.get(doubled_first, math.cos(math.radians(doubled_first)))
        assert struct.pack("<d", cos2phi(phi)) == struct.pack("<d", want)


class TestExcitationEfficiency:
    def test_axial_vanishes_parallel(self):
        pl1 = CAT.lookup(Polytype.FOUR_H, Defect.DIVACANCY, "PL1")
        assert excitation_efficiency(pl1, laser(930, 90.0)) == 0.0
        assert excitation_efficiency(pl1, laser(930, 0.0)) == 1.0

    def test_axial_vanishing_law_all_lines(self):
        for li in CAT.lines_for(geometry=Geometry.AXIAL):
            assert excitation_efficiency(li, laser(930, 90.0)) == 0.0
            assert excitation_efficiency(li, laser(930, 0.0)) > 0.0

    def test_basal_lines_never_vanish(self):
        for li in CAT.lines_for(geometry=Geometry.BASAL):
            for phi in np.arange(0.0, 180.0, 7.5):
                assert excitation_efficiency(li, laser(930, float(phi))) > 0.0

    def test_energy_gating(self):
        pl3 = CAT.lookup(Polytype.FOUR_H, Defect.DIVACANCY, "PL3")
        pl4 = CAT.lookup(Polytype.FOUR_H, Defect.DIVACANCY, "PL4")
        between = laser(1090, 45.0)  # ~1137 meV, between PL3 and PL4
        assert excitation_efficiency(pl3, between) > 0.0
        assert excitation_efficiency(pl4, between) == 0.0

    def test_non_resonant_needs_strictly_higher_energy(self):
        pl3 = CAT.lookup(Polytype.FOUR_H, Defect.DIVACANCY, "PL3")
        at_zpl = LaserConfig(pl3.energy_mev, 0.0)
        assert excitation_efficiency(pl3, at_zpl) == 0.0

    def test_resonant_mode_matches_within_half_linewidth(self):
        pl3 = CAT.lookup(Polytype.FOUR_H, Defect.DIVACANCY, "PL3")
        hit = LaserConfig(pl3.energy_mev + 0.4, 0.0, LaserMode.RESONANT)
        miss = LaserConfig(pl3.energy_mev + 0.6, 0.0, LaserMode.RESONANT)
        assert excitation_efficiency(pl3, hit, shape=LineShapeParams(zpl_fwhm_mev=1.0)) > 0.0
        assert excitation_efficiency(pl3, miss, shape=LineShapeParams(zpl_fwhm_mev=1.0)) == 0.0

    def test_axial_vanishing_law_under_resonant_excitation(self):
        for li in CAT.lines_for(geometry=Geometry.AXIAL):
            at = lambda phi: LaserConfig(li.energy_mev, phi, LaserMode.RESONANT)
            assert excitation_efficiency(li, at(90.0)) == 0.0
            assert excitation_efficiency(li, at(0.0)) == 1.0

    def test_axial_modulation_comes_from_the_selection_table(self, monkeypatch):
        # without the physical rule the E-phonon entry of the E parallel c
        # row is allowed, so non-resonant light has no axial modulation;
        # the ZPL entry stays forbidden, so resonant light keeps B = 1
        pl1 = CAT.lookup(Polytype.FOUR_H, Defect.DIVACANCY, "PL1")
        monkeypatch.setattr(
            spectrum, "selection_table",
            lambda defect_class: selection_table(defect_class, Policy.GROUP_THEORY_ONLY),
        )
        spectrum._axial_modulation.cache_clear()
        try:
            with pytest.raises(SpectrumError, match="E parallel to c"):
                excitation_efficiency(pl1, laser(930, 0.0))
            resonant = LaserConfig(pl1.energy_mev, 90.0, LaserMode.RESONANT)
            assert excitation_efficiency(pl1, resonant) == 0.0
        finally:
            spectrum._axial_modulation.cache_clear()

    @settings(max_examples=200, deadline=None)
    @given(
        line=st.sampled_from(CAT.lines),
        mode=st.sampled_from(LaserMode),
        phi=st.one_of(st.sampled_from([0.0, 45.0, 90.0, 135.0]),
                      st.floats(0.0, 180.0, exclude_max=True)),
        basal_modulation=st.floats(0.0, 1.0),
        # near the line's ZPL, where both gates turn, or anywhere in the catalog's range
        offset=st.one_of(st.floats(-1.0, 1.0), st.floats(-400.0, 400.0)),
    )
    def test_matches_closed_form_bit_for_bit(self, line, mode, phi, basal_modulation, offset):
        photon = line.energy_mev + offset
        assume(photon > 0.0)
        got = excitation_efficiency(line, LaserConfig(photon, phi, mode), basal_modulation)
        want = closed_form_efficiency(
            line.energy_mev, line.geometry is Geometry.AXIAL, photon, phi,
            mode is LaserMode.RESONANT, basal_modulation,
        )
        assert got == want


class TestExcitedLines:
    def test_selective_pl3(self):
        hits = excited_lines(VV4H, laser(1090, 90.0))
        assert [li.label for li, _ in hits] == ["PL3"]

    def test_common_excitation_all_four(self):
        hits = excited_lines(VV4H, laser(930, 0.0))
        assert [li.label for li, _ in hits] == ["PL1", "PL2", "PL3", "PL4"]

    def test_below_all_lines(self):
        assert excited_lines(VV4H, laser(1200, 0.0)) == []

    def test_monotone_gating(self):
        for phi in (0.0, 30.0, 90.0):
            lower = {li.label for li, _ in excited_lines(VV4H, laser(1100, phi))}
            higher = {li.label for li, _ in excited_lines(VV4H, laser(930, phi))}
            assert lower <= higher


class TestSynthesizeSpectrum:
    def grid(self, lo, hi, step=0.02):
        return np.arange(lo, hi, step)

    def test_single_line_dw1_integral(self):
        pl3 = CAT.lookup(Polytype.FOUR_H, Defect.DIVACANCY, "PL3")
        shape = LineShapeParams(debye_waller=1.0)
        spec = synthesize_spectrum([(pl3, 0.75)], shape, self.grid(1100, 1140))
        total = np.trapezoid(spec.intensity, spec.energy_mev)
        assert total == pytest.approx(0.75, abs=1e-9)

    def test_band_integrals_recovered(self):
        pl1 = CAT.lookup(Polytype.FOUR_H, Defect.DIVACANCY, "PL1")
        pl4 = CAT.lookup(Polytype.FOUR_H, Defect.DIVACANCY, "PL4")
        shape = LineShapeParams(debye_waller=1.0)
        spec = synthesize_spectrum(
            [(pl1, 0.4), (pl4, 0.9)], shape, self.grid(1080, 1165)
        )
        grid = spec.energy_mev
        for line, expected in ((pl1, 0.4), (pl4, 0.9)):
            mask = np.abs(grid - line.energy_mev) < 6.0
            area = np.trapezoid(spec.intensity[mask], grid[mask])
            assert area == pytest.approx(expected, abs=1e-9)

    def test_selective_spectrum_empty_at_other_lines(self):
        hits = excited_lines(VV4H, laser(1090, 90.0))
        shape = LineShapeParams(debye_waller=1.0)
        spec = synthesize_spectrum(hits, shape, self.grid(1080, 1160))
        for label in ("PL1", "PL2", "PL4"):
            line = CAT.lookup(Polytype.FOUR_H, Defect.DIVACANCY, label)
            mask = np.abs(spec.energy_mev - line.energy_mev) < 3.0 * shape.zpl_fwhm_mev
            assert np.all(spec.intensity[mask] == 0.0)

    def test_linearity(self):
        pl1 = CAT.lookup(Polytype.FOUR_H, Defect.DIVACANCY, "PL1")
        pl2 = CAT.lookup(Polytype.FOUR_H, Defect.DIVACANCY, "PL2")
        shape = LineShapeParams()
        grid = self.grid(1000, 1120)
        union = synthesize_spectrum([(pl1, 0.5), (pl2, 0.25)], shape, grid)
        solo1 = synthesize_spectrum([(pl1, 0.5)], shape, grid)
        solo2 = synthesize_spectrum([(pl2, 0.25)], shape, grid)
        assert np.array_equal(union.intensity, solo1.intensity + solo2.intensity)

    def test_coarse_grid_warns(self):
        pl1 = CAT.lookup(Polytype.FOUR_H, Defect.DIVACANCY, "PL1")
        shape = LineShapeParams(zpl_fwhm_mev=1.0)
        spec = synthesize_spectrum(
            [(pl1, 1.0)], shape, np.arange(1080.0, 1110.0, 0.5)
        )
        assert spec.warnings and "too coarse" in spec.warnings[0]

    @settings(max_examples=80, deadline=None)
    @given(
        lines=st.lists(
            st.tuples(st.floats(900.0, 1250.0), st.floats(0.0, 1.0)), max_size=4
        ),
        zpl_fwhm=st.floats(0.05, 5.0),
        sideband=st.lists(
            st.tuples(st.floats(-20.0, 150.0), st.floats(0.5, 40.0), st.floats(0.0, 1.0)),
            max_size=3,
        ),
        dw=st.floats(0.01, 1.0),
        start=st.floats(950.0, 1200.0),
        steps=st.lists(st.floats(1e-3, 3.0), min_size=1, max_size=150),
    )
    def test_windowed_matches_untruncated_oracle(
        self, lines, zpl_fwhm, sideband, dw, start, steps
    ):
        # random grids are often narrower than one sideband window, and
        # many lines lie off the grid altogether
        pl1 = CAT.lookup(Polytype.FOUR_H, Defect.DIVACANCY, "PL1")
        excited = [
            (pl1._replace(label=f"L{k}", energy_mev=energy), eff)
            for k, (energy, eff) in enumerate(lines)
        ]
        grid = start + np.cumsum([0.0] + steps)
        if dw < 1.0 and not any(weight > 0 for _, _, weight in sideband):
            # nothing could carry the sideband's share of the band
            with pytest.raises(SpectrumError):
                LineShapeParams(zpl_fwhm, tuple(sideband), dw)
            return
        shape = LineShapeParams(zpl_fwhm, tuple(sideband), dw)
        spec = synthesize_spectrum(excited, shape, grid)
        want, peaks = band_spectrum(grid, lines, zpl_fwhm, sideband, dw)
        tail = math.exp(-(TRUNCATION_SIGMAS ** 2) / 2.0)
        tolerance = (tail + 64 * np.finfo(float).eps) * peaks
        assert np.all(np.abs(spec.intensity - want) <= tolerance)

    @settings(max_examples=60, deadline=None)
    @given(
        lines=st.lists(
            st.tuples(st.floats(-200.0, 500.0), st.floats(0.0, 1.0)), max_size=5
        ),
        zpl_fwhm=st.floats(0.05, 5.0),
        sideband=st.lists(
            st.tuples(st.floats(-20.0, 150.0), st.floats(0.5, 40.0), st.floats(0.0, 1.0)),
            max_size=3,
        ),
        dw=st.floats(0.01, 1.0),
        steps=st.lists(st.floats(1e-3, 3.0), min_size=1, max_size=300),
    )
    def test_tiles_match_serial_loop_bit_for_bit(self, lines, zpl_fwhm, sideband, dw, steps):
        # line energies are offsets from the grid's first point: some
        # lines and sideband windows fall off the grid, others span tiles
        assume(dw == 1.0 or any(weight > 0 for _, _, weight in sideband))
        shape = LineShapeParams(zpl_fwhm, tuple(sideband), dw)
        pl1 = CAT.lookup(Polytype.FOUR_H, Defect.DIVACANCY, "PL1")
        excited = [
            (pl1._replace(label=f"L{k}", energy_mev=1000.0 + offset), eff)
            for k, (offset, eff) in enumerate(lines)
        ]
        grid = 1000.0 + np.cumsum([0.0] + steps)
        want = serial_spectrum(excited, shape, grid)
        with pytest.MonkeyPatch.context() as patch:
            for tile in (1, 2, 7, 64):
                patch.setattr(spectrum, "_TILE_POINTS", tile)
                got = synthesize_spectrum(excited, shape, grid).intensity
                assert np.array_equal(got, want), f"tile of {tile} points"

    def test_full_catalog_across_tiles_matches_serial_loop(self):
        excited = excited_lines(CAT.lines_for(), laser(900, 30.0))
        grid = np.linspace(820.0, 1160.0, 200_000)
        assert grid.size > spectrum._TILE_POINTS and grid.size % spectrum._TILE_POINTS
        shape = LineShapeParams()
        got = synthesize_spectrum(excited, shape, grid).intensity
        assert np.array_equal(got, serial_spectrum(excited, shape, grid))

    def test_peak_allocation_stays_near_the_grid_size(self):
        # the intensity is the only grid-sized array synthesis may keep;
        # grid-sized line buffers would read 3x the grid's bytes
        excited = excited_lines(CAT.lines_for(), laser(900, 30.0))
        assert len(excited) == 20
        grid = np.linspace(820.0, 1160.0, 1_000_000)
        tracemalloc.start()
        try:
            synthesize_spectrum(excited, LineShapeParams(), grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * grid.nbytes

    def test_grid_check_allocates_no_second_grid(self):
        # the steps of the grid are checked in the intensity's own buffer,
        # so only the tile buffers come on top of the returned intensity
        excited = excited_lines(CAT.lines_for(), laser(900, 30.0))
        grid = np.linspace(820.0, 1160.0, 1_000_000)
        tracemalloc.start()
        try:
            synthesize_spectrum(excited, LineShapeParams(), grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * grid.nbytes

    def test_truncation_bound_below_half_ulp_of_peak(self):
        assert math.exp(-(TRUNCATION_SIGMAS ** 2) / 2.0) < 2.0 ** -53

    def test_bad_grid(self):
        pl1 = CAT.lookup(Polytype.FOUR_H, Defect.DIVACANCY, "PL1")
        with pytest.raises(SpectrumError):
            synthesize_spectrum([(pl1, 1.0)], LineShapeParams(), np.array([1.0]))
        with pytest.raises(SpectrumError):
            synthesize_spectrum(
                [(pl1, 1.0)], LineShapeParams(), np.array([2.0, 1.0, 3.0])
            )

    @pytest.mark.parametrize("energy, intensity", [
        (np.arange(10.0), np.ones(4)),
        (np.ones((2, 3)), np.ones((2, 3))),
        (np.float64(1.0), np.float64(1.0)),
    ], ids=["mismatched", "2-d", "0-d"])
    def test_spectrum_rejects_arrays_it_cannot_hold(self, energy, intensity):
        with pytest.raises(SpectrumError, match="a spectrum needs two 1-d arrays of one length"):
            Spectrum(energy, intensity)


class TestLineShapeParams:
    @pytest.mark.parametrize(
        "sideband",
        [
            ((40.0, 0.0, 0.6),),
            ((40.0, -20.0, 0.6),),
            ((40.0, math.nan, 0.6),),
            ((40.0, math.inf, 0.6),),
            ((40.0, 20.0, -0.1),),
            ((40.0, 20.0, math.nan),),
            ((40.0, 20.0, math.inf),),
            ((math.nan, 20.0, 0.6),),
            ((math.inf, 20.0, 0.6),),
            # no positive weight to carry 1 - debye_waller of the band
            (),
            ((40.0, 20.0, 0.0),),
            ((40.0, 20.0, 0.0), (90.0, 30.0, 0.0)),
        ],
    )
    def test_bad_sideband_rejected(self, sideband):
        with pytest.raises(SpectrumError):
            LineShapeParams(sideband=sideband)

    @pytest.mark.parametrize("zpl_fwhm", [0.0, -1.0, math.nan, math.inf])
    def test_bad_zpl_fwhm_rejected(self, zpl_fwhm):
        with pytest.raises(SpectrumError):
            LineShapeParams(zpl_fwhm_mev=zpl_fwhm)

    def test_zero_weight_sideband_accepted(self):
        shape = LineShapeParams(sideband=((40.0, 20.0, 0.0), (90.0, 30.0, 1.0)))
        assert shape.sideband[0][2] == 0.0

    def test_pure_zpl_needs_no_sideband(self):
        assert LineShapeParams(sideband=(), debye_waller=1.0).sideband == ()


class TestDebyeWaller:
    def synthesize(self, dw, step=0.02):
        pl3 = CAT.lookup(Polytype.FOUR_H, Defect.DIVACANCY, "PL3")
        shape = LineShapeParams(debye_waller=dw)
        grid = np.arange(950.0, 1140.0, step)
        spec = synthesize_spectrum([(pl3, 1.0)], shape, grid)
        zpl = (pl3.energy_mev - 5.0, pl3.energy_mev + 5.0)
        band = (955.0, 1135.0)
        return spec, zpl, band

    def test_round_trip(self):
        for dw in (0.05, 0.3, 0.8):
            spec, zpl, band = self.synthesize(dw)
            assert debye_waller(spec, zpl, band) == pytest.approx(dw, abs=1e-3)

    def test_pure_zpl(self):
        spec, zpl, band = self.synthesize(1.0)
        assert debye_waller(spec, zpl, band) == pytest.approx(1.0, abs=1e-9)

    def test_selective_enhancement_is_an_input(self):
        # the DW enhancement under selective excitation has no model; it
        # enters as a configured parameter and survives measurement
        _, zpl, band = self.synthesize(0.1)
        spec_common, _, _ = self.synthesize(0.1)
        spec_selective, _, _ = self.synthesize(0.25)
        assert debye_waller(spec_selective, zpl, band) > debye_waller(
            spec_common, zpl, band
        )

    def test_window_validation(self):
        spec, zpl, band = self.synthesize(0.3)
        with pytest.raises(SpectrumError):
            debye_waller(spec, (900.0, 1200.0), band)
        with pytest.raises(SpectrumError):
            debye_waller(spec, zpl, (900.0, 1200.0))

    def test_window_without_two_grid_points_rejected(self):
        spec = Spectrum(np.array([0.0, 1.0, 2.0, 3.0]), np.ones(4))
        with pytest.raises(SpectrumError, match="fewer than two grid points"):
            debye_waller(spec, (0.2, 0.3), (0.0, 3.0))

    def test_band_without_intensity_rejected(self):
        spec = Spectrum(np.array([0.0, 1.0, 2.0, 3.0]), np.zeros(4))
        with pytest.raises(SpectrumError, match="band window has no intensity"):
            debye_waller(spec, (1.0, 2.0), (0.0, 3.0))

    @pytest.mark.parametrize("order", [[0, 2, 1, 3], [0, 1, 1, 3], [3, 2, 1, 0]])
    def test_energies_not_strictly_ascending_rejected(self, order):
        energy = np.array([1000.0, 1001.0, 1002.0, 1003.0])[order]
        spec = Spectrum(energy, np.ones(4))
        with pytest.raises(SpectrumError, match="strictly ascending"):
            debye_waller(spec, (1000.5, 1001.5), (1000.0, 1003.0))


class TestAngularModel:
    def test_examples(self):
        assert AngularModel(1.0, 1.0).intensity(90.0) == 0.0
        assert AngularModel(1.0, 1.0).intensity(0.0) == 2.0
        assert AngularModel(3.0, 0.4).intensity(45.0) == 3.0

    def test_invariants(self):
        with pytest.raises(SpectrumError):
            AngularModel(-1.0, 0.0)
        with pytest.raises(SpectrumError):
            AngularModel(1.0, 1.5)


class TestAngularScanAndFit:
    def test_noiseless_round_trip(self):
        phis = list(range(0, 180, 15))
        model = AngularModel(3.0, 1.0)
        fitted, residual = fit_angular(angular_scan(model, phis))
        assert fitted.amplitude == pytest.approx(3.0, abs=1e-9)
        assert fitted.modulation == pytest.approx(1.0, abs=1e-9)
        assert residual < 1e-9

    def test_fractional_modulation(self):
        phis = list(range(0, 180, 15))
        fitted, _ = fit_angular(angular_scan(AngularModel(2.0, 0.37), phis))
        assert fitted.amplitude == pytest.approx(2.0, abs=1e-9)
        assert fitted.modulation == pytest.approx(0.37, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        amplitude=st.floats(min_value=1e-3, max_value=10.0),
        modulation=st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_round_trip_property(self, amplitude, modulation):
        phis = list(range(0, 180, 15))
        model = AngularModel(amplitude, modulation)
        fitted, _ = fit_angular(angular_scan(model, phis))
        assert fitted.amplitude == pytest.approx(amplitude, rel=1e-9, abs=1e-12)
        assert fitted.modulation == pytest.approx(modulation, abs=1e-9)

    def test_noise_is_seeded(self):
        phis = list(range(0, 180, 15))
        model = AngularModel(1.0, 0.5)
        a = angular_scan(model, phis, noise_sigma=0.01, seed=7)
        b = angular_scan(model, phis, noise_sigma=0.01, seed=7)
        c = angular_scan(model, phis, noise_sigma=0.01, seed=8)
        assert [s.intensity for s in a] == [s.intensity for s in b]
        assert [s.intensity for s in a] != [s.intensity for s in c]

    def test_seeded_scan_matches_scalar_loop(self):
        # the per-sample loop of scalar cos2phi and one noise draw per
        # sample: seeded scan files stay byte-identical to its output
        model = AngularModel(1.7, 0.43)
        phis = np.linspace(0.0, 180.0, 1000, endpoint=False)
        rng = np.random.default_rng(7)
        want = [
            model.intensity(phi) + float(rng.normal(0.0, 0.02)) for phi in phis.tolist()
        ]
        samples = angular_scan(model, phis, noise_sigma=0.02, seed=7)
        assert [s.phi_deg for s in samples] == phis.tolist()
        assert np.array([s.intensity for s in samples]).tobytes() == np.array(want).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        amplitude=st.floats(min_value=0.0, max_value=1e3),
        modulation=st.floats(min_value=-1.0, max_value=1.0),
        phis=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40),
        noise_sigma=st.sampled_from([0.0, 1e-3, 0.5]),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_scan_matches_scalar_reference(self, amplitude, modulation, phis, noise_sigma, seed):
        model = AngularModel(amplitude, modulation)
        want = scalar_scan(model, phis, noise_sigma, seed)
        scan = angular_scan(model, np.array(phis), noise_sigma, seed)
        assert list(scan) == want
        assert np.array(list(scan)).tobytes() == np.array(want).tobytes()

    def test_scan_owns_its_angles(self):
        phis = np.linspace(0.0, 180.0, 12, endpoint=False)
        scan = angular_scan(AngularModel(1.0, 0.5), phis)
        want = list(scan)
        phis[:] = 45.0
        assert list(scan) == want
        assert scan.phi_deg.tolist() == [15.0 * k for k in range(12)]

    def test_scan_peak_memory_is_a_few_arrays(self):
        # the angles, the intensities and the noise draw, not one object per sample
        phis = np.linspace(0.0, 180.0, 100_000, endpoint=False)
        tracemalloc.start()
        try:
            scan = angular_scan(AngularModel(1.7, 0.43), phis, noise_sigma=0.02, seed=7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(scan) == phis.size
        assert peak < 6 * phis.nbytes

    @pytest.mark.parametrize(
        "amplitude, noise_sigma, seed", [(1e308, 0.0, None), (1.0, 1e308, 3), (1.7e308, 1e307, 0)]
    )
    def test_non_finite_intensity_rejected_without_warning(self, amplitude, noise_sigma, seed):
        # seed 3 draws a normal deviate above 1.8 among 12: 1e308 times it overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpectrumError, match="non-finite intensity"):
                angular_scan(AngularModel(amplitude, 1.0), list(range(0, 180, 15)),
                             noise_sigma, seed)

    def test_scan_rejects_arrays_of_different_shapes(self):
        with pytest.raises(SpectrumError):
            AngularScan([0.0, 45.0], [1.0])
        with pytest.raises(SpectrumError):
            AngularScan([[0.0]], [[1.0]])

    @pytest.mark.parametrize(
        "bad", [AngularSample(math.nan, 1.0), AngularSample(60.0, math.inf),
                AngularSample(60.0, math.nan)]
    )
    def test_non_finite_sample_rejected(self, bad):
        samples = [AngularSample(phi, 1.0) for phi in (0.0, 30.0, 90.0)] + [bad]
        with pytest.raises(DegenerateFitError):
            fit_angular(scan_of(samples))

    def test_rank_deficient(self):
        samples = [AngularSample(0.0, 2.0)] * 5
        with pytest.raises(DegenerateFitError):
            fit_angular(scan_of(samples))
        # phi and 180 - phi share cos 2 phi: still degenerate
        samples = [AngularSample(30.0, 1.5), AngularSample(150.0, 1.5), AngularSample(30.0, 1.5)]
        with pytest.raises(DegenerateFitError):
            fit_angular(scan_of(samples))

    def test_too_few_samples(self):
        with pytest.raises(DegenerateFitError):
            fit_angular(scan_of([AngularSample(0.0, 1.0), AngularSample(45.0, 1.0)]))

    def test_nonpositive_amplitude(self):
        samples = [
            AngularSample(phi, -1.0) for phi in (0.0, 30.0, 60.0, 90.0)
        ]
        with pytest.raises(DegenerateFitError):
            fit_angular(scan_of(samples))


class TestClassifyGeometry:
    def test_toward_c_threshold(self):
        assert classify_geometry(AngularModel(1.0, 1.0)) is Geometry.AXIAL
        assert classify_geometry(AngularModel(1.0, 0.96)) is Geometry.AXIAL
        assert classify_geometry(AngularModel(1.0, 0.5)) is Geometry.BASAL

    def test_in_plane_single_emitter_rules(self):
        # factor-2 modulation without a null: axial
        assert (
            classify_geometry(AngularModel(1.0, 1.0 / 3.0), ScanPlane.IN_PLANE)
            is Geometry.AXIAL
        )
        # near-vanishing floor: basal
        assert (
            classify_geometry(AngularModel(1.0, 0.999), ScanPlane.IN_PLANE)
            is Geometry.BASAL
        )

    def test_in_plane_zero_amplitude_is_basal(self):
        # no peak to compare a floor with: nothing lights up in the plane
        assert classify_geometry(AngularModel(0.0, 0.5), ScanPlane.IN_PLANE) is Geometry.BASAL


class TestEnsembleAverage:
    def test_full_modulation_averages_out(self):
        averaged = ensemble_average(AngularModel(1.0, 1.0))
        assert averaged.modulation == 0.0
        assert averaged.amplitude == 1.0

    def test_isotropic_stays_isotropic(self):
        assert ensemble_average(AngularModel(2.0, 0.0)).modulation == 0.0

    def test_numeric_three_orientation_average(self):
        # direct summation oracle: rotate the single-defect response by
        # 0/120/240 degrees and average over a dense angle sweep
        phis = np.linspace(0.0, 360.0, 720, endpoint=False)
        single = lambda phi, phi0: 1.0 + 1.0 * np.cos(np.radians(2 * (phi - phi0)))
        total = sum(single(phis, phi0) for phi0 in (0.0, 120.0, 240.0)) / 3.0
        assert np.max(total) - np.min(total) < 1e-12
