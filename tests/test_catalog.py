import itertools

import pytest

from sicpl.catalog import (
    Catalog,
    CatalogError,
    DEFAULT_AIR_INDEX,
    Defect,
    Geometry,
    Medium,
    Polytype,
    builtin_catalog,
    format_catalog,
    load_catalog,
    mev_to_nm,
    nm_to_mev,
    parse_catalog,
    parse_sites,
)

FAMILIES = list(itertools.product(Polytype, Defect))


class TestUnits:
    def test_defining_constant(self):
        assert nm_to_mev(1239.84198, Medium.vacuum()) == pytest.approx(1000.0)

    def test_round_trip(self):
        for lam in (930.0, 1090.0, 1132.0):
            for medium in (Medium.vacuum(), Medium.air()):
                assert mev_to_nm(nm_to_mev(lam, medium), medium) == pytest.approx(
                    lam, rel=1e-14
                )

    def test_pl1_printed_energy(self):
        assert nm_to_mev(1132.0, Medium.air()) == pytest.approx(1095.0, abs=0.15)

    def test_errors(self):
        with pytest.raises(CatalogError):
            nm_to_mev(0.0)
        with pytest.raises(CatalogError):
            mev_to_nm(-1.0)
        with pytest.raises(CatalogError):
            Medium(0.9)

    def test_all_pairs_within_tolerance_under_fitted_air_index(self):
        residuals = builtin_catalog().unit_residuals(Medium.air())
        assert len(residuals) == 20
        for line, residual in residuals:
            assert abs(residual) < 0.15, line.label

    def test_vacuum_conversion_misses_printed_values(self):
        # the printed wavelengths are air values: vacuum conversion is
        # systematically ~0.2-0.37 meV high
        residuals = builtin_catalog().unit_residuals(Medium.vacuum())
        assert all(r > 0.15 for _, r in residuals)


class TestBuiltinCatalog:
    def test_total_and_per_family_counts(self):
        cat = builtin_catalog()
        assert len(cat.lines) == 20
        expected = {
            (Polytype.FOUR_H, Defect.DIVACANCY): 4,
            (Polytype.SIX_H, Defect.DIVACANCY): 6,
            (Polytype.FOUR_H, Defect.NITROGEN_VACANCY): 4,
            (Polytype.SIX_H, Defect.NITROGEN_VACANCY): 6,
        }
        for (poly, defect), n in expected.items():
            assert len(cat.lines_for(poly, defect)) == n

    def test_axial_basal_counts(self):
        cat = builtin_catalog()
        for poly, defect in FAMILIES:
            n = 2 if poly is Polytype.FOUR_H else 3
            assert len(cat.lines_for(poly, defect, Geometry.AXIAL)) == n
            assert len(cat.lines_for(poly, defect, Geometry.BASAL)) == n

    def test_lookups(self):
        cat = builtin_catalog()
        pl3 = cat.lookup(Polytype.FOUR_H, Defect.DIVACANCY, "PL3")
        assert (pl3.wavelength_nm, pl3.energy_mev) == (1107.6, 1119.1)
        assert pl3.geometry is Geometry.BASAL
        assert pl3.sites == ("k", "h")

        sl6 = cat.lookup(Polytype.SIX_H, Defect.NITROGEN_VACANCY, "SL6")
        assert (sl6.wavelength_nm, sl6.energy_mev) == (1153.7, 1074.3)
        assert sl6.geometry is Geometry.AXIAL
        assert sl6.sites == ("k1", "k2")

        nv2 = cat.lookup(Polytype.FOUR_H, Defect.NITROGEN_VACANCY, "NV2")
        assert (nv2.wavelength_nm, nv2.energy_mev) == (1223.0, 1013.5)
        assert nv2.geometry is Geometry.AXIAL
        assert nv2.sites == ("k", "k")

    def test_ql5_ql6_reassignment(self):
        cat = builtin_catalog()
        ql5 = cat.lookup(Polytype.SIX_H, Defect.DIVACANCY, "QL5")
        ql6 = cat.lookup(Polytype.SIX_H, Defect.DIVACANCY, "QL6")
        assert ql5.geometry is Geometry.AXIAL and ql5.sites == ("k2", "k1")
        assert ql6.geometry is Geometry.BASAL and ql6.sites == ("h", "k1")

    def test_missing_line(self):
        with pytest.raises(CatalogError):
            builtin_catalog().lookup(Polytype.FOUR_H, Defect.DIVACANCY, "PL9")

    def test_label_order_tracks_energy_order(self):
        cat = builtin_catalog()
        for poly, defect in FAMILIES:
            lines = cat.lines_for(poly, defect)
            labels = [li.label for li in lines]
            assert labels == sorted(labels)
            energies = [li.energy_mev for li in lines]
            assert energies == sorted(energies)
            assert len(set(energies)) == len(energies)

    def test_axial_site_pairs_are_along_c(self):
        along_c = {("h", "h"), ("k", "k"), ("k1", "k2"), ("k2", "k1")}
        for li in builtin_catalog().lines_for(geometry=Geometry.AXIAL):
            assert li.sites in along_c


class TestLinesFor:
    def test_axial_slices(self):
        cat = builtin_catalog()
        labels = [
            li.label
            for li in cat.lines_for(Polytype.FOUR_H, Defect.DIVACANCY, Geometry.AXIAL)
        ]
        assert labels == ["PL1", "PL2"]
        labels = [
            li.label
            for li in cat.lines_for(Polytype.SIX_H, Defect.DIVACANCY, Geometry.AXIAL)
        ]
        assert labels == ["QL1", "QL2", "QL5"]

    def test_full_family_ascending_energy(self):
        labels = [
            li.label for li in builtin_catalog().lines_for(Polytype.FOUR_H, Defect.DIVACANCY)
        ]
        assert labels == ["PL1", "PL2", "PL3", "PL4"]

    def test_empty_slice(self):
        cat = Catalog(())
        assert cat.lines_for(Polytype.FOUR_H, Defect.DIVACANCY) == []


class TestSiteParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("hh", ("h", "h")),
            ("kk", ("k", "k")),
            ("kh", ("k", "h")),
            ("k2k1", ("k2", "k1")),
            ("hk1", ("h", "k1")),
            ("k2k2", ("k2", "k2")),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_sites(text) == expected

    def test_invalid(self):
        with pytest.raises(CatalogError):
            parse_sites("hxk")
        with pytest.raises(CatalogError):
            parse_sites("hkh")


class TestCatalogFiles:
    def test_format_parse_round_trip(self):
        cat = builtin_catalog()
        assert parse_catalog(format_catalog(cat)) == cat

    def test_user_catalog_file(self, tmp_path):
        path = tmp_path / "extra.txt"
        path.write_text(
            "# companion line, position by hand\n"
            "NV4' 4H NV 1175.1 1054.8 basal kh fig1-caption\n"
        )
        cat = load_catalog(path)
        assert len(cat.lines) == 1
        assert cat.lines[0].label == "NV4'"
        assert cat.lines[0].provenance == "fig1-caption"

    def test_duplicate_label_rejected(self):
        text = "PL1 4H VV 1132.0 1095.0 axial hh a\nPL1 4H VV 1130.5 1096.5 axial kk a\n"
        with pytest.raises(CatalogError, match="duplicate"):
            parse_catalog(text)

    def test_malformed_record_reports_line(self):
        with pytest.raises(CatalogError, match="line 2"):
            parse_catalog("PL1 4H VV 1132.0 1095.0 axial hh a\nPL2 4H VV oops\n")

    @pytest.mark.parametrize(
        "record",
        [
            "PL2 4H VV nan 1096.5 axial kk a",
            "PL2 4H VV 1130.5 inf axial kk a",
            "PL2 4H VV -1130.5 1096.5 axial kk a",
            "PL2 4H VV 1130.5 0 axial kk a",
            "PL2 4H VV 1130.5 1096.5 axial kxk a",
            "PL2 4H VV 1130.5 1096.5 axial kk a extra",
        ],
    )
    def test_bad_record_is_located(self, record):
        with pytest.raises(CatalogError, match="catalog: line 3: "):
            parse_catalog(f"PL1 4H VV 1132.0 1095.0 axial hh a\n# comment\n{record}\n")

    def test_inline_comment_and_duplicate_located(self):
        text = (
            "PL1 4H VV 1132.0 1095.0 axial hh  # no provenance\n"
            "PL1 4H VV 1130.5 1096.5 axial kk a\n"
        )
        with pytest.raises(CatalogError, match="catalog: line 2: duplicate label 'PL1'"):
            parse_catalog(text)

    def test_bad_record_in_a_file_is_located_by_its_path(self, tmp_path):
        path = tmp_path / "extra.txt"
        path.write_text("# one line\nPL1 4H VV 1132.0 1095.0 axial hh a\nPL2 4H VV oops\n")
        with pytest.raises(CatalogError) as excinfo:
            load_catalog(path)
        assert str(excinfo.value).startswith(f"{path}: line 3: ")

    def test_default_air_index_documented_value(self):
        assert DEFAULT_AIR_INDEX == pytest.approx(1.000276, abs=1e-6)
