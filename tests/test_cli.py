import json

import pytest

from sicpl.cli import main
from sicpl.fileio import read_spectrum


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["excite", "5H", "VV", "--laser-nm", "930"])
        assert excinfo.value.code == 2

    def test_computation_error_is_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "fit-angle", str(tmp_path / "missing.tsv"))
        assert code == 1
        assert err.startswith("error:")
