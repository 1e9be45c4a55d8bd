import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sicpl.catalog import DEFAULT_AIR_INDEX, HC_MEV_NM
from sicpl.cli import main
from sicpl.fileio import read_spectrum


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SCAN_ROWS = "0\t2.1\n45\t1\n90\t0\n135\t0.9\n"
SPECTRUM_ROWS = "1000 0\n1001 1\n1002 4\n1003 1\n1004 0\n"
JSON = object()  # stdout is JSON, written with a 2-space indent
GOLDEN = [
    (["product", "C3v", "E", "E", "A2"], "A1 + A2 + E (contains A1: yes)\n"),
    (["product", "C3v", "E", "E", "A2", "--format", "json"], JSON),
    (["selection", "triplet-axial"],
     "# defect class: triplet-axial, policy: physical\n"
     "polarization\tZPL\tA1\tA2\tE\n"
     "E_perp_c\tA\tA\tA\tA\n"
     "E_par_c\tF\tF\tF\tA*\n"),
    (["selection", "vsi-single-group", "--policy", "group-theory-only"],
     "# defect class: vsi-single-group, policy: group-theory-only\n"
     "polarization\tZPL\tA1\tA2\tE\n"
     "E_perp_c\tF\tF\tF\tA\n"
     "E_par_c\tA\tA\tF\tF\n"),
    (["selection", "triplet-axial", "--format", "json"], JSON),
    (["excite", "4H", "VV", "--laser-nm", "1090", "--phi", "90"],
     "# laser 1137.2 meV, phi 90 deg, mode non-resonant, basal_b 0.33\n"
     "PL3\t1119.1 meV\tbasal\t0.5038\n"),
    (["excite", "4H", "NV", "--laser-mev", "1400", "--phi", "0"],
     "# laser 1400.0 meV, phi 0 deg, mode non-resonant, basal_b 0.33\n"
     "NV1\t997.5 meV\tbasal\t1.0000\n"
     "NV2\t1013.5 meV\taxial\t1.0000\n"
     "NV3\t1050.7 meV\taxial\t1.0000\n"
     "NV4\t1054.0 meV\tbasal\t1.0000\n"),
    (["excite", "4H", "NV", "--laser-mev", "1400", "--phi", "0", "--format", "json"], JSON),
    (["spectrum", "4H", "VV", "--laser-nm", "1090", "--phi", "90",
      "--emin", "1100", "--emax", "1130", "--out", "s.tsv"],
     "wrote s.tsv (1 lines)\n"),
    (["angular-scan", "-A", "1", "-B", "0.5", "--out", "a.tsv"],
     "wrote a.tsv (12 samples)\n"),
    (["fit-angle", "scan.tsv"],
     "A = 1\n"
     "B = 1\n"
     "residual = 0.141\n"
     "geometry = axial (scan plane toward-c, threshold 0.95)\n"),
    (["fit-angle", "scan.tsv", "--format", "json"], JSON),
    (["catalog", "4H", "VV"],
     "PL1\t4H\tVV\t1132.0 nm\t1095.0 meV\taxial\thh\n"
     "PL2\t4H\tVV\t1130.5 nm\t1096.5 meV\taxial\tkk\n"
     "PL3\t4H\tVV\t1107.6 nm\t1119.1 meV\tbasal\tkh\n"
     "PL4\t4H\tVV\t1078.5 nm\t1149.3 meV\tbasal\thk\n"),
    (["catalog", "6H", "VV", "--geometry", "axial", "--format", "json"], JSON),
    (["catalog", "--verify-units"],
     "# air index 1.000276\n"
     "PL1\t-0.0354 meV\nPL2\t-0.0826 meV\nPL3\t-0.0138 meV\nPL4\t-0.0187 meV\n"
     "QL1\t+0.0622 meV\nQL2\t-0.0296 meV\nQL3\t-0.0440 meV\nQL4\t-0.0117 meV\n"
     "QL5\t+0.0161 meV\nQL6\t+0.0347 meV\n"
     "NV1\t-0.0751 meV\nNV2\t-0.0087 meV\nNV3\t+0.0798 meV\nNV4\t-0.0035 meV\n"
     "SL1\t-0.0283 meV\nSL2\t-0.0184 meV\nSL3\t+0.0551 meV\nSL4\t+0.0484 meV\n"
     "SL5\t+0.0142 meV\nSL6\t+0.0693 meV\n"
     "# max |residual| = 0.0826 meV\n"),
    (["catalog", "--verify-units", "--format", "json"], JSON),
    (["catalog", "4H", "VV", "--export", "c.txt"], "wrote c.txt (4 lines)\n"),
    (["catalog", "4H", "VV", "--export", "c.txt", "--format", "json"],
     "wrote c.txt (4 lines)\n"),
    (["debye-waller", "spec.tsv", "--zpl-window", "1001", "1003",
      "--band-window", "1000", "1004"],
     "debye_waller = 0.833333\n"),
    (["debye-waller", "spec.tsv", "--zpl-window", "1001", "1003",
      "--band-window", "1000", "1004", "--format", "json"], JSON),
]


@pytest.mark.parametrize("argv, expected", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_stdout_is_pinned(capsys, tmp_path, monkeypatch, argv, expected):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SICPL_OUTPUT_DIR", raising=False)
    (tmp_path / "scan.tsv").write_text(SCAN_ROWS)
    (tmp_path / "spec.tsv").write_text(SPECTRUM_ROWS)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    if expected is JSON:
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
    else:
        assert out == expected


class TestProduct:
    def test_eq_s2_product(self, capsys):
        code, out, _ = run(capsys, "product", "C3v", "E", "E", "A2")
        assert code == 0
        assert out.strip() == "A1 + A2 + E (contains A1: yes)"

    def test_eq_s3_product(self, capsys):
        code, out, _ = run(capsys, "product", "C3v", "E", "A1", "A2")
        assert code == 0
        assert out.strip() == "E (contains A1: no)"

    def test_one_dimensional_square(self, capsys):
        code, out, _ = run(capsys, "product", "C1h", "A''", "A''")
        assert code == 0
        assert out.strip() == "A' (contains A': yes)"

    def test_unknown_label_lists_valid(self, capsys):
        code, _, err = run(capsys, "product", "C3v", "E", "T2")
        assert code == 1
        assert "A1, A2, E" in err

    def test_single_factor_rejected(self, capsys):
        code, _, err = run(capsys, "product", "C3v", "E")
        assert code == 1
        assert "two" in err

    def test_json_matches_text(self, capsys):
        code, out, _ = run(capsys, "product", "C3v", "E", "E", "A2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["decomposition"] == {"A1": 1, "A2": 1, "E": 1}
        assert payload["contains_trivial"] is True


class TestSelection:
    def test_triplet_axial_has_star(self, capsys):
        code, out, _ = run(capsys, "selection", "triplet-axial")
        assert code == 0
        assert "E_par_c\tF\tF\tF\tA*" in out

    def test_group_theory_only_drops_star(self, capsys):
        code, out, _ = run(
            capsys, "selection", "triplet-axial", "--policy", "group-theory-only"
        )
        assert code == 0
        assert "A*" not in out
        assert "E_par_c\tF\tF\tF\tA" in out

    def test_vsi_panel(self, capsys):
        code, out, _ = run(capsys, "selection", "vsi-single-group")
        assert code == 0
        assert "E_par_c\tA\tA\tF\tF" in out
        assert "E_perp_c\tF\tF\tF\tA" in out

    def test_invalid_class_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["selection", "nonsense"])
        assert excinfo.value.code == 2


class TestExcite:
    def test_selective_pl3(self, capsys):
        code, out, _ = run(
            capsys, "excite", "4H", "VV", "--laser-nm", "1090", "--phi", "90"
        )
        assert code == 0
        lines = [l.split("\t")[0] for l in out.splitlines() if not l.startswith("#")]
        assert lines == ["PL3"]

    def test_common_excitation(self, capsys):
        code, out, _ = run(
            capsys, "excite", "4H", "VV", "--laser-nm", "930", "--phi", "0"
        )
        lines = [l.split("\t")[0] for l in out.splitlines() if not l.startswith("#")]
        assert lines == ["PL1", "PL2", "PL3", "PL4"]

    def test_nv_parallel_only_basal(self, capsys):
        code, out, _ = run(
            capsys, "excite", "4H", "NV", "--laser-nm", "930", "--phi", "90"
        )
        lines = [l.split("\t")[0] for l in out.splitlines() if not l.startswith("#")]
        assert lines == ["NV1", "NV4"]

    def test_json_parity(self, capsys):
        _, text_out, _ = run(
            capsys, "excite", "4H", "VV", "--laser-nm", "1090", "--phi", "90"
        )
        _, json_out, _ = run(
            capsys, "excite", "4H", "VV", "--laser-nm", "1090", "--phi", "90",
            "--format", "json",
        )
        payload = json.loads(json_out)
        assert [li["label"] for li in payload["lines"]] == ["PL3"]
        text_eff = float(text_out.splitlines()[-1].split("\t")[-1])
        assert payload["lines"][0]["efficiency"] == pytest.approx(text_eff, abs=5e-5)

    def test_missing_laser_flag(self, capsys):
        code, _, err = run(capsys, "excite", "4H", "VV", "--phi", "0")
        assert code == 1
        assert "laser" in err

    def test_both_laser_flags_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["excite", "4H", "VV", "--laser-nm", "1090", "--laser-mev", "1000"])
        assert excinfo.value.code == 2
        assert "not allowed with argument --laser-nm" in capsys.readouterr().err


class TestSpectrumCommand:
    def test_selective_spectrum_zero_at_pl4(self, capsys, tmp_path):
        out_file = tmp_path / "pl3.tsv"
        code, _, _ = run(
            capsys, "spectrum", "4H", "VV", "--laser-nm", "1090", "--phi", "90",
            "--emin", "1080", "--emax", "1160", "--step", "0.2",
            "--dw", "1.0", "--out", str(out_file),
        )
        assert code == 0
        spec = read_spectrum(out_file)
        import numpy as np

        pl4_bin = int(np.argmin(np.abs(spec.energy_mev - 1149.3)))
        assert spec.intensity[pl4_bin] == 0.0
        assert spec.metadata["lines"] == "PL3"

    def test_header_carries_defaults(self, capsys, tmp_path):
        out_file = tmp_path / "s.tsv"
        run(
            capsys, "spectrum", "4H", "VV", "--laser-nm", "930", "--phi", "0",
            "--emin", "1080", "--emax", "1160", "--out", str(out_file),
        )
        header = out_file.read_text()
        for key in ("basal_b", "zpl_fwhm_mev", "debye_waller", "air_index", "phi_deg"):
            assert key in header

    @pytest.mark.parametrize("index_flag", [[], ["--air-index", "1"]])
    def test_header_reproduces_laser_conversion(self, capsys, tmp_path, index_flag):
        out_file = tmp_path / "s.tsv"
        code, _, _ = run(
            capsys, "spectrum", "4H", "VV", "--laser-nm", "930", *index_flag,
            "--emin", "1080", "--emax", "1090", "--out", str(out_file),
        )
        assert code == 0
        meta = read_spectrum(out_file).metadata
        index = float(meta["air_index"])
        assert index == (1.0 if index_flag else DEFAULT_AIR_INDEX)
        assert meta["laser_mev"] == f"{HC_MEV_NM / (index * 930.0):.4f}"

    def test_medium_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["spectrum", "4H", "VV", "--laser-nm", "930", "--medium", "vacuum",
                  "--emin", "1080", "--emax", "1090", "--out", str(tmp_path / "s.tsv")])
        assert excinfo.value.code == 2

    def test_empty_line_set_still_valid_file(self, capsys, tmp_path):
        out_file = tmp_path / "empty.tsv"
        code, out, _ = run(
            capsys, "spectrum", "4H", "VV", "--laser-nm", "1200", "--phi", "0",
            "--emin", "1000", "--emax", "1010", "--out", str(out_file),
        )
        assert code == 0
        spec = read_spectrum(out_file)
        assert spec.metadata["lines"] == "(none)"
        assert (spec.intensity == 0).all()

    def test_dw_round_trip_through_subcommand(self, capsys, tmp_path):
        out_file = tmp_path / "dw.tsv"
        run(
            capsys, "spectrum", "4H", "VV", "--laser-nm", "1090", "--phi", "90",
            "--emin", "950", "--emax", "1140", "--step", "0.05",
            "--dw", "0.2", "--out", str(out_file),
        )
        code, out, _ = run(
            capsys, "debye-waller", str(out_file),
            "--zpl-window", "1114.1", "1124.1", "--band-window", "955", "1139",
        )
        assert code == 0
        measured = float(out.split("=")[1])
        assert measured == pytest.approx(0.2, abs=1e-3)


class TestAngularWorkflow:
    def test_scan_then_fit_axial(self, capsys, tmp_path):
        scan_file = tmp_path / "scan.tsv"
        code, _, _ = run(
            capsys, "angular-scan", "--amplitude", "1", "--modulation", "1",
            "--out", str(scan_file),
        )
        assert code == 0
        code, out, _ = run(capsys, "fit-angle", str(scan_file), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["modulation"] == pytest.approx(1.0, abs=1e-9)
        assert payload["geometry"] == "axial"

    def test_fractional_modulation_recovered(self, capsys, tmp_path):
        scan_file = tmp_path / "scan.tsv"
        run(
            capsys, "angular-scan", "--amplitude", "2", "--modulation", "0.37",
            "--out", str(scan_file),
        )
        code, out, _ = run(capsys, "fit-angle", str(scan_file), "--format", "json")
        payload = json.loads(out)
        assert payload["modulation"] == pytest.approx(0.37, abs=1e-9)
        assert payload["geometry"] == "basal"

    def test_single_angle_file_fails(self, capsys, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("0.0\t1.0\n0.0\t1.1\n0.0\t0.9\n")
        code, _, err = run(capsys, "fit-angle", str(bad))
        assert code == 1
        assert "cos 2 phi" in err

    def test_non_finite_data_fails(self, capsys, tmp_path):
        bad = tmp_path / "nan.tsv"
        bad.write_text("0.0\t2.0\n45.0\tnan\n90.0\t0.0\n135.0\t1.0\n")
        code, out, err = run(capsys, "fit-angle", str(bad))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "non-finite" in err

    def test_large_finite_angle_fits(self, capsys, tmp_path):
        # 2 * 1e308 overflows: the angle must be reduced before it is doubled
        scan_file = tmp_path / "scan.tsv"
        scan_file.write_text("0 1\n30 2\n60 1.5\n1e308 1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "fit-angle", str(scan_file), "--format", "json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert all(math.isfinite(payload[k]) for k in ("amplitude", "modulation", "residual"))

    def test_malformed_row_reports_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("0.0\t1.0\nnonsense\n")
        code, _, err = run(capsys, "fit-angle", str(bad))
        assert code == 1
        assert "line 2" in err

    def test_output_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SICPL_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run(
            capsys, "angular-scan", "--amplitude", "1", "--modulation", "0",
            "--out", "sub/scan.tsv",
        )
        assert code == 0
        assert (tmp_path / "sub" / "scan.tsv").exists()


class TestCatalogCommand:
    def test_axial_slice_with_reassigned_ql5(self, capsys):
        code, out, _ = run(capsys, "catalog", "6H", "VV", "--geometry", "axial")
        labels = [l.split("\t")[0] for l in out.splitlines()]
        assert labels == ["QL1", "QL2", "QL5"]

    def test_4h_nv_ascending(self, capsys):
        code, out, _ = run(capsys, "catalog", "4H", "NV")
        labels = [l.split("\t")[0] for l in out.splitlines()]
        assert labels == ["NV1", "NV2", "NV3", "NV4"]

    def test_verify_units(self, capsys):
        code, out, _ = run(capsys, "catalog", "--verify-units", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["residuals_mev"]) == 20
        assert payload["max_abs_residual_mev"] < 0.15

    def test_export_round_trip(self, capsys, tmp_path):
        from sicpl.catalog import load_catalog

        out_file = tmp_path / "cat.txt"
        code, _, _ = run(capsys, "catalog", "4H", "VV", "--export", str(out_file))
        assert code == 0
        cat = load_catalog(out_file)
        assert [li.label for li in cat.lines] == ["PL1", "PL2", "PL3", "PL4"]


class TestStepValidation:
    @pytest.mark.parametrize("step", ["0", "-0.5", "nan", "inf"])
    def test_spectrum_bad_step(self, capsys, tmp_path, step):
        code, _, err = run(
            capsys, "spectrum", "4H", "VV", "--laser-nm", "930",
            "--emin", "1080", "--emax", "1160", f"--step={step}",
            "--out", str(tmp_path / "s.tsv"),
        )
        assert code == 1
        assert err.startswith("error:") and "--step" in err
        assert not (tmp_path / "s.tsv").exists()

    @pytest.mark.parametrize("step", ["0", "-15", "nan", "inf"])
    def test_angular_scan_bad_step(self, capsys, tmp_path, step):
        code, _, err = run(
            capsys, "angular-scan", "-A", "1", "-B", "0.5", f"--step={step}",
            "--out", str(tmp_path / "scan.tsv"),
        )
        assert code == 1
        assert err.startswith("error:") and "--step" in err
        assert not (tmp_path / "scan.tsv").exists()


class TestGridRange:
    SPECTRUM = ["spectrum", "4H", "VV", "--laser-nm", "930"]
    SCAN = ["angular-scan", "-A", "1", "-B", "0"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (SPECTRUM + ["--emin", "0", "--emax", "1e30", "--step", "1"],
             "--emin 0 to --emax 1e+30 with --step 1 would exceed 10000000 points"),
            (SPECTRUM + ["--emin=-1.7e308", "--emax", "1.7e308", "--step", "1e300"],
             "would exceed 10000000 points"),
            (SCAN + ["--start", "0", "--stop", "1e30", "--step", "1"],
             "--start 0 to --stop 1e+30 with --step 1 would exceed 10000000 points"),
            (SPECTRUM + ["--emin", "1160", "--emax", "950"], "--emax 950 is below --emin 1160"),
            (SCAN + ["--start", "100", "--stop", "0"], "--stop 0 is below --start 100"),
        ],
    )
    def test_oversized_or_reversed_range_exits_1(self, capsys, tmp_path, argv, message):
        out = tmp_path / "out.tsv"
        code, stdout, err = run(capsys, *argv, "--out", str(out))
        assert code == 1
        assert stdout == ""
        assert err.startswith("error:") and message in err
        assert not out.exists()

    def test_single_point_range_is_accepted(self, capsys, tmp_path):
        out = tmp_path / "out.tsv"
        code, stdout, _ = run(capsys, *self.SCAN, "--start", "45", "--stop", "45",
                              "--out", str(out))
        assert code == 0
        assert stdout == f"wrote {out} (1 samples)\n"


class TestNegativeNumberValues:
    """Exponent and non-finite negative values are values, not options."""

    @pytest.mark.parametrize("start, first", [("-1e1", "-10.0000"), ("-1E+1", "-10.0000"),
                                              ("-.5e1", "-5.0000"), ("-1.5", "-1.5000")])
    def test_start_in_exponent_form_runs(self, capsys, tmp_path, start, first):
        out = tmp_path / "scan.tsv"
        code, stdout, _ = run(capsys, "angular-scan", "-A", "1", "-B", "-1e-1",
                              "--start", start, "--stop", "0", "--out", str(out))
        assert code == 0 and stdout.startswith(f"wrote {out}")
        assert out.read_text().split("# columns: phi_deg intensity\n")[1].startswith(first)

    def test_band_window_in_exponent_form_reaches_debye_waller(self, capsys, tmp_path):
        spectrum = tmp_path / "s.tsv"
        spectrum.write_text(SPECTRUM_ROWS)
        code, stdout, err = run(capsys, "debye-waller", str(spectrum),
                                "--zpl-window", "1001", "1003", "--band-window", "-1e3", "1004")
        assert (code, stdout) == (1, "")
        assert err == "error: band window exceeds the spectrum grid\n"

    @pytest.mark.parametrize("start", ["-inf", "-Infinity", "-nan", "-NaN"])
    def test_non_finite_start_exits_1(self, capsys, tmp_path, start):
        out = tmp_path / "scan.tsv"
        code, stdout, err = run(capsys, "angular-scan", "-A", "1", "-B", "0",
                                "--start", start, "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err.startswith("error: range ends must be finite")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-1e", "-e1", "-infx", "-1.2.3"])
    def test_other_dash_words_stay_options(self, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["angular-scan", "-A", "1", "-B", "0", "--start", value, "--out", "x.tsv"])
        assert excinfo.value.code == 2


class TestBadInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["excite", "4H", "VV", "--laser-mev", "nan"],
            ["excite", "4H", "VV", "--laser-mev", "inf"],
            ["excite", "4H", "VV", "--laser-nm", "nan"],
            ["excite", "4H", "VV", "--laser-nm", "930", "--air-index", "nan"],
            ["excite", "4H", "VV", "--laser-mev", "1119.1", "--resonant", "--zpl-fwhm", "nan"],
            ["excite", "4H", "VV", "--laser-nm", "930", "--basal-b", "1.5"],
            ["excite", "4H", "VV", "--laser-nm", "930", "--basal-b", "-0.2"],
            ["catalog", "--verify-units", "--air-index", "nan"],
            ["spectrum", "4H", "VV", "--laser-nm", "930", "--emin", "1080", "--emax", "inf",
             "--out", "{out}"],
            ["angular-scan", "-A", "nan", "-B", "0.5", "--out", "{out}"],
            ["angular-scan", "-A", "1", "-B", "nan", "--out", "{out}"],
            ["angular-scan", "-A", "1", "-B", "0.5", "--noise", "nan", "--out", "{out}"],
            ["angular-scan", "-A", "1", "-B", "0.5", "--noise", "-1", "--out", "{out}"],
            ["angular-scan", "-A", "1", "-B", "0.5", "--noise", "0.1", "--seed", "-1",
             "--out", "{out}"],
            ["angular-scan", "-A", "1", "-B", "0.5", "--start", "nan", "--out", "{out}"],
            ["fit-angle", "{scan}", "--axial-threshold", "nan"],
            ["catalog", "4H", "VV", "--air-index", "nan"],
            ["catalog", "4H", "VV", "--air-index", "inf", "--export", "{out}"],
            ["excite", "4H", "VV", "--laser-mev", "1200", "--air-index", "0.2"],
            ["spectrum", "4H", "VV", "--laser-mev", "1200", "--air-index", "nan",
             "--emin", "950", "--emax", "1160", "--step", "0.5", "--out", "{out}"],
        ],
    )
    def test_non_finite_or_out_of_range_exits_1(self, capsys, tmp_path, argv):
        scan, out = tmp_path / "scan.tsv", tmp_path / "out.tsv"
        scan.write_text("0\t2\n45\t1\n90\t0\n135\t1\n")
        code, stdout, err = run(capsys, *[a.format(scan=scan, out=out) for a in argv])
        assert code == 1
        assert stdout == ""
        assert err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["angular-scan", "-A", "1e308", "-B", "1"], "non-finite intensity"),
            (["angular-scan", "-A", "1", "-B", "0.5", "--noise", "1e308", "--seed", "3"],
             "non-finite intensity"),
            (["angular-scan", "-A", "1", "-B", "0.5", "--start", "1e17", "--stop", "1e17",
              "--step", "1"], "--step 1 is below the float spacing near --start 1e+17"),
            (["angular-scan", "-A", "1", "-B", "0.5", "--start", "1e17",
              "--stop", "1.0000000000000002e17", "--step", "1"], "below the float spacing"),
            (["spectrum", "4H", "VV", "--laser-nm", "930", "--emin", "1e17",
              "--emax", "1.0000000000000002e17", "--step", "1"],
             "--step 1 is below the float spacing near --emin 1e+17"),
            (["spectrum", "4H", "VV", "--laser-nm", "930", "--emin", "1095", "--emax", "1097",
              "--step", "0.5", "--zpl-fwhm", "1e-320"], "peak height beyond the float range"),
            (["spectrum", "4H", "VV", "--laser-nm", "930", "--emin", "1095", "--emax", "1097",
              "--step", "0.5", "--zpl-fwhm", "5e-324"], "sigma 0 meV"),
        ],
    )
    def test_overflow_or_step_below_float_spacing_exits_1(self, capsys, tmp_path, argv, message):
        out = tmp_path / "out.tsv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(capsys, *argv, "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err.startswith("error:") and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, rows, message",
        [
            (["fit-angle", "{file}", "--format", "json"],
             "0 1.7e308\n30 1e308\n60 1.5e308\n90 1e308\n", "fit residual overflows"),
            (["debye-waller", "{file}", "--zpl-window", "1001", "1003",
              "--band-window", "1000", "1004"],
             "1000 0\n1001 1e308\n1002 1.7e308\n1003 1e308\n1004 0\n",
             "window 1000 to 1004 meV has a non-finite area"),
        ],
        ids=["fit-angle", "debye-waller"],
    )
    def test_overflowing_file_exits_1(self, capsys, tmp_path, command, rows, message):
        data = tmp_path / "data.tsv"
        data.write_text(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(capsys, *[a.format(file=data) for a in command])
        assert (code, stdout) == (1, "")
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize(
        "command, rows",
        [
            (["debye-waller", "{file}", "--zpl-window", "1", "2", "--band-window", "0", "3"],
             "0 1\n1 1 1\n"),
            (["fit-angle", "{file}"], "# seed = 1\n0 1\n45 1 # ok\n90\n"),
        ],
    )
    def test_malformed_file_error_names_file_and_line(self, capsys, tmp_path, command, rows):
        bad = tmp_path / "bad.tsv"
        bad.write_text(rows)
        lineno = len(rows.splitlines())
        code, _, err = run(capsys, *[a.format(file=bad) for a in command])
        assert code == 1
        assert err.startswith(f"error: {bad}: line {lineno}: expected 2 columns")


def test_debye_waller_on_empty_spectrum_exits_1(capsys, tmp_path):
    empty = tmp_path / "empty.tsv"
    empty.write_text("# no rows\n")
    code, out, err = run(capsys, "debye-waller", str(empty),
                         "--zpl-window", "1", "2", "--band-window", "0", "3")
    assert (code, out) == (1, "")
    assert err == "error: band window exceeds the spectrum grid\n"


def test_debye_waller_on_negative_band_intensity_exits_1(capsys, tmp_path):
    # the ZPL window holds only positive rows, so the ratio would read 3
    spec_file = tmp_path / "spec.tsv"
    spec_file.write_text("1000 -3\n1001 1\n1002 2\n1003 1\n1004 -3\n")
    code, out, err = run(capsys, "debye-waller", str(spec_file),
                         "--zpl-window", "1001", "1003", "--band-window", "1000", "1004")
    assert (code, out) == (1, "")
    assert err == "error: window 1000 to 1004 meV holds a negative intensity\n"


def test_negative_intensity_outside_the_windows_is_accepted(capsys, tmp_path):
    spec_file = tmp_path / "spec.tsv"
    spec_file.write_text("999 -3\n1000 0\n1001 1\n1002 4\n1003 1\n1004 0\n1005 -3\n")
    code, out, _ = run(capsys, "debye-waller", str(spec_file),
                       "--zpl-window", "1001", "1003", "--band-window", "1000", "1004")
    assert (code, out) == (0, "debye_waller = 0.833333\n")


def test_debye_waller_on_unsorted_spectrum_exits_1(capsys, tmp_path):
    spec_file = tmp_path / "spec.tsv"
    run(capsys, "spectrum", "4H", "VV", "--laser-nm", "1090", "--emin", "950",
        "--emax", "1135", "--step", "0.05", "--out", str(spec_file))
    rows = spec_file.read_text().splitlines()
    header = [row for row in rows if row.startswith("#")]
    data = [row for row in rows if not row.startswith("#")]
    # swap the middle quarters: the end rows stay, so both windows still
    # lie inside the first and last energies
    q = len(data) // 4
    data = data[:q] + data[2 * q:3 * q] + data[q:2 * q] + data[3 * q:]
    spec_file.write_text("\n".join(header + data) + "\n")
    code, out, err = run(capsys, "debye-waller", str(spec_file),
                         "--zpl-window", "1114", "1124", "--band-window", "955", "1130")
    assert (code, out) == (1, "")
    assert err == "error: spectrum energies must be strictly ascending\n"


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["excite", "5H", "VV", "--laser-nm", "930"])
        assert excinfo.value.code == 2

    def test_computation_error_is_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "fit-angle", str(tmp_path / "missing.tsv"))
        assert code == 1
        assert err.startswith("error:")


# Numeric flag values for the fuzz test: non-finite, zero, negative, huge,
# and ordinary values whose pairs also make reversed ranges.
FUZZ_NUMBERS = ["nan", "inf", "-inf", "0", "-1", "-1e30", "1e30",
                "0.5", "1", "45", "90", "100", "950", "1090", "1160"]
LASER_FLAGS = ["--laser-nm", "--laser-mev", "--phi", "--air-index", "--basal-b", "--zpl-fwhm"]
# A valid argv per subcommand, then its numeric flags; a flag given again
# after the valid argv overrides it.
FUZZ_COMMANDS = [
    (["product", "C3v", "E", "E", "A2"], []),
    (["selection", "triplet-axial"], []),
    (["excite", "4H", "VV", "--laser-mev=1200"], LASER_FLAGS),
    (["spectrum", "4H", "VV", "--laser-mev=1200", "--emin=1000", "--emax=1160",
      "--out", "s.tsv"], LASER_FLAGS + ["--emin", "--emax", "--step", "--dw"]),
    (["angular-scan", "-A", "1", "-B", "0.5", "--out", "a.tsv"],
     ["--amplitude", "--modulation", "--start", "--stop", "--step", "--noise", "--seed"]),
    (["fit-angle", "scan.tsv"], ["--axial-threshold"]),
    (["catalog", "--verify-units"], ["--air-index"]),
    (["debye-waller", "wide.tsv", "--zpl-window", "1000", "1100",
      "--band-window", "950", "1160"], ["--zpl-window", "--band-window"]),
]
WIDE_SPECTRUM_ROWS = "0 0\n100 0.1\n950 0.5\n1000 1\n1090 4\n1100 2\n1160 0\n"


@st.composite
def fuzz_argv(draw):
    argv, flags = draw(st.sampled_from(FUZZ_COMMANDS))
    argv = list(argv)
    number = st.sampled_from(FUZZ_NUMBERS)
    for flag in draw(st.lists(st.sampled_from(flags), max_size=3)) if flags else []:
        if flag == "--seed":
            argv.append(f"--seed={draw(st.sampled_from(['-1', '0', '7']))}")
        elif flag.endswith("-window"):
            argv += [flag, draw(number), draw(number)]
        else:
            argv.append(f"{flag}={draw(number)}")
    return argv


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=fuzz_argv())
@example(argv=["spectrum", "4H", "VV", "--laser-nm=930", "--emin=0", "--emax=1e30",
                "--step=1", "--out", "s.tsv"])
@example(argv=["angular-scan", "-A", "1", "-B", "0", "--start=100", "--stop=0",
                "--out", "a.tsv"])
def test_no_argv_ends_in_a_traceback(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SICPL_OUTPUT_DIR", str(tmp_path / "out"))
    (tmp_path / "scan.tsv").write_text(SCAN_ROWS)
    (tmp_path / "wide.tsv").write_text(WIDE_SPECTRUM_ROWS)
    try:
        assert main(argv) in (0, 1)
    except SystemExit as exc:
        assert exc.code == 2
