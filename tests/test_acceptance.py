"""Acceptance suite: one test per release criterion, each printing a
pass line when its assertions hold.  Run with ``pytest tests/test_acceptance.py -s``
to see the per-criterion report.
"""

import numpy as np
import pytest

from sicpl.catalog import Defect, Geometry, Medium, Polytype, builtin_catalog
from sicpl.cli import main
from sicpl.groups import (
    BUILTIN_GROUPS,
    builtin_group,
    decompose,
    tensor_product,
    verify_table,
)
from sicpl.selection import (
    DefectClass,
    KramersLevel,
    Polarization,
    kramers_verdict,
    selection_table,
)
from sicpl.spectrum import (
    AngularModel,
    LaserConfig,
    angular_scan,
    debye_waller,
    ensemble_average,
    excitation_efficiency,
    excited_lines,
    fit_angular,
    synthesize_spectrum,
    LineShapeParams,
)

from oracles import (
    c3v_matrices,
    class_character,
    conjugacy_classes,
    kramers_allowed,
    reduction_multiplicity,
)

PAR = Polarization.parallel_c()
PERP = Polarization.perpendicular_c()


def report(number, title):
    print(f"\n[acceptance] criterion {number} ({title}): PASS")


def test_criterion_1_table_i_reproduction():
    triplet = selection_table(DefectClass.TRIPLET_AXIAL).symbols()
    assert triplet == {
        "E_perp_c": ("A", "A", "A", "A"),
        "E_par_c": ("F", "F", "F", "A*"),
    }
    vsi = selection_table(DefectClass.VSI_SINGLE_GROUP).symbols()
    assert vsi == {
        "E_perp_c": ("F", "F", "F", "A"),
        "E_par_c": ("A", "A", "F", "F"),
    }
    report(1, "Table I reproduction")


def test_criterion_2_worked_products():
    g = builtin_group("C3v")
    cases = [
        (("E", "E", "A2"), {"A1": 1, "A2": 1, "E": 1}),
        (("E", "A1", "A2"), {"A1": 0, "A2": 0, "E": 1}),
        (("A2", "E", "A1", "A2"), {"A1": 0, "A2": 0, "E": 1}),
    ]
    for factors, expected in cases:
        rep = tensor_product(*[g.rep(f) for f in factors])
        assert decompose(rep).counts == expected
    report(2, "worked direct products")


def test_criterion_3_double_group_rules():
    half, three = KramersLevel.HALF, KramersLevel.THREE_HALF
    patterns = {
        (half, half): {"par": "A", "perp": "A"},
        (half, three): {"par": "F", "perp": "A"},
        (three, half): {"par": "F", "perp": "A"},
        (three, three): {"par": "A", "perp": "F"},
    }
    names = {half: "half", three: "three_half"}
    for (i, f), expected in patterns.items():
        for key, pol, parallel in (("par", PAR, True), ("perp", PERP, False)):
            verdict = kramers_verdict(i, f, pol)
            assert verdict.symbol == expected[key]
            # independent element-wise SU(2) reduction-formula evaluation
            assert verdict.group_theory_allowed == kramers_allowed(
                names[i], names[f], parallel
            )
    report(3, "double-group Kramers rules vs brute force")


def test_criterion_4_group_data_integrity():
    for name in BUILTIN_GROUPS:
        failures = [c for c in verify_table(builtin_group(name)) if not c.passed]
        assert failures == [], name
    # explicit 6-matrix oracle for C3v: classes, sizes, characters
    mats = c3v_matrices()
    classes = sorted(conjugacy_classes(mats), key=len)
    sizes = [len(c) for c in classes]
    g = builtin_group("C3v")
    assert tuple(sizes) == g.class_sizes
    oracle_rows = {
        "A1": class_character(mats, classes, lambda m: 1.0),
        "A2": class_character(mats, classes, np.linalg.det),
        "E": class_character(mats, classes, np.trace),
    }
    for label, oracle in oracle_rows.items():
        table_row = [complex(c) for c in g.irrep(label).characters]
        assert oracle == pytest.approx(table_row, abs=1e-9)
        norm = reduction_multiplicity(sizes, oracle, oracle, 6)
        assert norm == pytest.approx(1.0, abs=1e-9)
    report(4, "group-data integrity incl. matrix oracle")


def test_criterion_5_axial_vanishing_law():
    cat = builtin_catalog()
    at = lambda li, phi: excitation_efficiency(
        li, LaserConfig.from_wavelength(900.0, phi, Medium.air())
    )
    axial = cat.lines_for(geometry=Geometry.AXIAL)
    basal = cat.lines_for(geometry=Geometry.BASAL)
    assert len(axial) == 10 and len(basal) == 10
    for li in axial:
        assert at(li, 90.0) == 0.0  # exact zero, not approximate
        assert at(li, 0.0) > 0.0
    for li in basal:
        assert at(li, 90.0) > 0.0
        assert at(li, 0.0) > 0.0
    report(5, "axial vanishing law")


def test_criterion_6_selective_excitation():
    lines = builtin_catalog().lines_for(Polytype.FOUR_H, Defect.DIVACANCY)
    selective = excited_lines(
        lines, LaserConfig.from_wavelength(1090.0, 90.0, Medium.air())
    )
    assert {li.label for li, _ in selective} == {"PL3"}
    common = excited_lines(
        lines, LaserConfig.from_wavelength(930.0, 0.0, Medium.air())
    )
    assert {li.label for li, _ in common} == {"PL1", "PL2", "PL3", "PL4"}
    report(6, "selective excitation scenario")


def test_criterion_7_unit_consistency():
    residuals = builtin_catalog().unit_residuals(Medium.air())
    assert len(residuals) == 20
    for line, residual in residuals:
        assert abs(residual) < 0.15, f"{line.label}: {residual:+.4f} meV"
    report(7, "nm/meV consistency under one fitted air index")


def test_criterion_8_fit_round_trip():
    phis = list(range(0, 180, 15))  # 12-point scan
    for amplitude in (0.5, 1.0, 4.0, 10.0):
        for modulation in (-1.0, -0.5, 0.0, 0.37, 0.9, 1.0):
            model = AngularModel(amplitude, modulation)
            fitted, _ = fit_angular(angular_scan(model, phis))
            assert abs(fitted.amplitude - amplitude) < 1e-9
            assert abs(fitted.modulation - modulation) < 1e-9
    # seeded 1% noise: B within 0.02 for at least 95% of seeds
    hits = 0
    n_seeds = 100
    for seed in range(n_seeds):
        model = AngularModel(1.0, 0.37)
        fitted, _ = fit_angular(angular_scan(model, phis, noise_sigma=0.01, seed=seed))
        if abs(fitted.modulation - 0.37) <= 0.02:
            hits += 1
    assert hits >= 95
    report(8, f"angular fit round trip (noisy hit rate {hits}/{n_seeds})")


def test_criterion_9_ensemble_isotropy():
    # analytic path
    for modulation in (1.0, 0.5, 0.0):
        assert ensemble_average(AngularModel(1.0, modulation)).modulation == 0.0
    # numeric path: three rotated copies, dense sweep
    phis = np.linspace(0.0, 360.0, 720, endpoint=False)
    response = sum(
        1.0 + np.cos(np.radians(2.0 * (phis - phi0))) for phi0 in (0.0, 120.0, 240.0)
    ) / 3.0
    assert np.max(response) - np.min(response) < 1e-12
    report(9, "three-orientation ensemble isotropy")


def test_criterion_10_debye_waller_round_trip():
    cat = builtin_catalog()
    pl3 = cat.lookup(Polytype.FOUR_H, Defect.DIVACANCY, "PL3")
    pl4 = cat.lookup(Polytype.FOUR_H, Defect.DIVACANCY, "PL4")
    nv1 = cat.lookup(Polytype.FOUR_H, Defect.NITROGEN_VACANCY, "NV1")
    grid = np.arange(845.0, 1165.0, 0.05)  # default spacing regime
    for dw in (0.05, 0.2, 0.5, 0.95):
        shape = LineShapeParams(debye_waller=dw)
        # mixture lines chosen far enough apart that their ZPL windows do
        # not sit on each other's sidebands
        for mixture in ([(pl3, 1.0)], [(pl4, 0.6), (nv1, 0.4)]):
            spec = synthesize_spectrum(mixture, shape, grid)
            total_zpl = 0.0
            total_band = np.trapezoid(spec.intensity, grid)
            for line, _ in mixture:
                lo, hi = line.energy_mev - 5.0, line.energy_mev + 5.0
                mask = (grid >= lo) & (grid <= hi)
                total_zpl += float(np.trapezoid(spec.intensity[mask], grid[mask]))
            assert total_zpl / total_band == pytest.approx(dw, abs=1e-3)
        measured = debye_waller(
            synthesize_spectrum([(pl3, 1.0)], shape, grid),
            (pl3.energy_mev - 5.0, pl3.energy_mev + 5.0),
            (955.0, 1135.0),
        )
        assert measured == pytest.approx(dw, abs=1e-3)
    report(10, "Debye-Waller round trip")


def test_criterion_11_selective_excitation_raises_the_debye_waller_factor(tmp_path, capsys):
    # 1090 nm lies above PL1-PL3 and below PL4.  The ZPL window holds PL3's
    # ZPL alone, the band window every excited band: at phi = 0 that is
    # 0.3 of PL3 over three bands, at phi = 90 the axial PL1 and PL2
    # vanish and PL3's own fraction 0.3 remains
    for phi, lines, expected in (("0", "PL1,PL2,PL3", 0.100), ("90", "PL3", 0.300)):
        path = tmp_path / f"phi{phi}.tsv"
        assert main(["spectrum", "4H", "VV", "--laser-nm", "1090", "--phi", phi,
                     "--emin", "950", "--emax", "1135", "--step", "0.05",
                     "--out", str(path)]) == 0
        assert f"# lines = {lines}\n" in path.read_text()
        capsys.readouterr()
        assert main(["debye-waller", str(path), "--zpl-window", "1114", "1124",
                     "--band-window", "955", "1130"]) == 0
        key, value = capsys.readouterr().out.split(" = ")
        assert key == "debye_waller"
        assert float(value) == pytest.approx(expected, abs=1e-3)
    report(11, "selective excitation raises the measured Debye-Waller factor")
