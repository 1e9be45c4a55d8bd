"""The shared record reader and the four formats built on it.

Character tables, catalogs, spectrum files and scan files share one
syntax; each reader must report a malformed input as its own error type
with a ``line N`` location and let nothing else escape.
"""

import re
from importlib import resources

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sicpl.catalog import CatalogError, parse_catalog
from sicpl.fileio import (
    _located_columns,
    read_angular_samples,
    read_spectrum,
    write_angular_samples,
    write_spectrum,
)
from sicpl.groups import GroupError, load_table
from sicpl.records import RecordReader, header_lines, read_records, write_records
from sicpl.spectrum import AngularSample, AngularScan, Spectrum, SpectrumError

LOCATED = re.compile(r": line \d+: ")


def data_text(name):
    return resources.files("sicpl.data").joinpath(name).read_text()


class TestRecordReader:
    def test_records_header_and_warnings(self):
        reader = RecordReader(
            "# title = demo run\n"
            "# warning: grid too coarse\n"
            "\n"
            "1 2   # inline comment\n"
            "   # a comment that is neither\n"
            "3\t4\n",
            "demo",
        )
        assert list(reader) == [(4, ["1", "2"]), (6, ["3", "4"])]
        assert reader.header == {"title": "demo run"}
        assert reader.warnings == ["grid too coarse"]

    def test_warning_may_contain_equals_sign(self):
        reader = RecordReader("# warning: a = b\n", "demo")
        assert list(reader) == []
        assert reader.warnings == ["a = b"] and reader.header == {}

    def test_inline_key_value_is_not_header(self):
        reader = RecordReader("1 2 # key = value\n", "demo")
        assert list(reader) == [(1, ["1", "2"])]
        assert reader.header == {}

    def test_locate(self):
        assert RecordReader("", "scan.tsv").locate(7, "bad") == "scan.tsv: line 7: bad"

    def test_header_lines_read_back(self):
        text = "\n".join(header_lines({"a": 1, "b": "x y"}, ["w1", "w2"]))
        reader = RecordReader(text, "demo")
        assert list(reader) == []
        assert reader.header == {"a": "1", "b": "x y"}
        assert reader.warnings == ["w1", "w2"]


class TestTwoColumnFiles:
    def test_spectrum_round_trip_keeps_metadata_and_warnings(self, tmp_path):
        grid = np.linspace(1000.0, 1010.0, 11)
        spectrum = Spectrum(
            grid,
            np.exp(-((grid - 1005.0) ** 2)),
            {"laser_mev": "1333.2000", "lines": "PL1,PL2", "phi_deg": 90.0},
            ("grid spacing 1 meV too coarse for PL1 fwhm 1 meV", "second warning"),
        )
        path = tmp_path / "s.tsv"
        write_spectrum(path, spectrum)
        back = read_spectrum(path)
        assert back.metadata == {k: str(v) for k, v in spectrum.metadata.items()}
        assert back.warnings == spectrum.warnings
        assert np.array_equal(back.energy_mev, grid)
        assert np.allclose(back.intensity, spectrum.intensity, rtol=1e-8, atol=0)

    def test_spectrum_rows_format_like_numpy_scalars(self, tmp_path):
        # tiny, huge, negative, signed-zero and integral values
        values = [5e-324, 1e-300, 2.2250738585072014e-308, 1e-9, 0.0, -0.0, -1e-12,
                  -2.5, 1.0, 3.0, 123456789.0, 1e6, 1e16, 1.7976931348623157e308,
                  -1e300, 0.1, 1 / 3, 1234.5678905]
        grid = np.array(values) + 1000.0
        spectrum = Spectrum(grid, np.array(values), {"lines": "PL1"}, ("a warning",))
        path = tmp_path / "s.tsv"
        write_spectrum(path, spectrum)
        rows = [f"{e:.6f}\t{i:.9g}" for e, i in zip(spectrum.energy_mev, spectrum.intensity)]
        expected = header_lines(spectrum.metadata, spectrum.warnings)
        expected += ["# columns: energy_meV intensity", *rows]
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode()

    def test_scan_rows_format_like_numpy_scalars(self, tmp_path):
        # signed zero, angles that round up or down at the 4th decimal, tiny and huge values
        phis = [0.0, -0.0, 179.99995, 1e-5, -1e-5, 45.5, 90.0, 1e17, 5e-324]
        values = [2.0, 0.0, -0.0, 1e-9, 1 / 3, 1.7976931348623157e308, -2.5, 5e-324, 1e16]
        scan = AngularScan(phis, values)
        path = tmp_path / "scan.tsv"
        write_angular_samples(path, scan, {"seed": 7})
        rows = [f"{p:.4f}\t{i:.9g}" for p, i in zip(scan.phi_deg, scan.intensity)]
        expected = ["# seed = 7", "# columns: phi_deg intensity", *rows]
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode()

    def test_scan_round_trip(self, tmp_path):
        samples = [AngularSample(0.0, 2.0), AngularSample(45.5, 1.25)]
        path = tmp_path / "scan.tsv"
        write_angular_samples(path, AngularScan([0.0, 45.5], [2.0, 1.25]), {"seed": 7})
        assert list(read_angular_samples(path)) == samples

    def test_inline_comments_allowed(self, tmp_path):
        path = tmp_path / "scan.tsv"
        path.write_text("0 1  # first\n90 0.5#second\n")
        assert list(read_angular_samples(path)) == [
            AngularSample(0.0, 1.0), AngularSample(90.0, 0.5)
        ]

    @pytest.mark.parametrize("reader", [read_spectrum, read_angular_samples])
    def test_binary_file_is_spectrum_error(self, tmp_path, reader):
        path = tmp_path / "bin.tsv"
        path.write_bytes(b"\xff\xfe\x00 1\n")
        with pytest.raises(SpectrumError, match="not a text file"):
            reader(path)

    @pytest.mark.parametrize("write", [
        lambda path, header: write_spectrum(
            path, Spectrum(np.array([1.0, 2.0]), np.array([0.5, 0.25]), header)),
        lambda path, header: write_angular_samples(
            path, AngularScan([0.0, 90.0], [1.0, 0.5]), header),
    ], ids=["spectrum", "scan"])
    def test_failed_write_leaves_the_old_file(self, tmp_path, monkeypatch, write):
        path = tmp_path / "old.tsv"
        path.write_text("1 2\n")
        # a lone surrogate reads back as a header value, but no file can hold it
        with pytest.raises(SpectrumError, match="cannot encode"):
            write(path, {"note": "\udc80"})

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("sicpl.records.os.replace", fail)
        with pytest.raises(OSError, match="disk full"):
            write(path, {"note": "ok"})
        assert path.read_text() == "1 2\n"
        assert [p.name for p in tmp_path.iterdir()] == ["old.tsv"]

    @pytest.mark.parametrize("path", ["", "/", "..", "sub/.."])
    def test_path_with_no_file_name_raises_the_given_error(self, tmp_path, monkeypatch, path):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(CatalogError, match="names no file"):
            write_records(path, "1 2\n", CatalogError)
        assert list(tmp_path.iterdir()) == []

    def test_missing_directories_are_made(self, tmp_path):
        write_records(tmp_path / "a" / "b" / "c.tsv", "1 2\n", CatalogError)
        assert (tmp_path / "a" / "b" / "c.tsv").read_text() == "1 2\n"
        assert [p.name for p in (tmp_path / "a" / "b").iterdir()] == ["c.tsv"]

    def test_directory_raises_the_given_error(self, tmp_path):
        d = tmp_path / "d"
        d.mkdir()
        with pytest.raises(CatalogError) as raised:
            write_records(d, "1 2\n", CatalogError)
        assert str(raised.value) == f"output path {str(d)!r} is a directory"
        assert [p.name for p in tmp_path.iterdir()] == ["d"]
        assert list(d.iterdir()) == []

    def test_refused_text_makes_no_directory(self, tmp_path):
        with pytest.raises(CatalogError, match="cannot encode"):
            write_records(tmp_path / "new" / "x.tsv", "\udc80\n", CatalogError)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1000.0 0.5 7", "expected 2 columns, got 3"),
            ("1000.0", "expected 2 columns, got 1"),
            ("1000.0 abc", "could not convert"),
            ("nan 0.5", "non-finite"),
            ("1000.0 -inf", "non-finite"),
        ],
    )
    @pytest.mark.parametrize("reader", [read_spectrum, read_angular_samples])
    def test_bad_row_located(self, tmp_path, reader, row, message):
        path = tmp_path / "bad.tsv"
        path.write_text(f"# k = v\n999.0 0.25\n{row}\n")
        with pytest.raises(SpectrumError, match=re.escape(f"{path}: line 3: {message}")):
            reader(path)


# -- fuzzing: nothing but the format's own error may escape --------------

TOKENS = [
    "group", "order", "class", "irrep", "single", "extra", "E", "A1", "2C3",
    "0", "1", "-1", "2", "6", "1/2", "1/0", "i", "-i", "1+i", "nan", "inf",
    "-inf", "1e400", "4H", "6H", "VV", "NV", "axial", "basal", "hh", "k2k1",
    "hxk", "1132.0", "1095.0", "x", "#", "# k = v", "# warning: w", "=",
]
BAD_TOKENS = ["nan", "inf", "-inf", "1/0", "0", "-1", "x", "#", "1e400", "=", "1/2"]

token_soup = st.lists(
    st.lists(st.sampled_from(TOKENS), max_size=9).map(" ".join), max_size=12
).map("\n".join)


@st.composite
def mutated(draw, text):
    """A valid text with a few lines broken: tokens dropped, added or replaced, '#' anywhere."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split()
        kind = draw(st.sampled_from(["drop", "extra", "replace", "hash", "delete", "repeat"]))
        if kind == "hash":
            k = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:k] + "#" + lines[i][k:]
            continue
        if kind == "delete":
            del lines[i]
            if not lines:
                break
            continue
        if kind == "repeat":
            lines.insert(i, lines[i])
            continue
        j = draw(st.integers(0, len(tokens)))
        if kind == "drop" and tokens:
            del tokens[min(j, len(tokens) - 1)]
        elif kind == "extra":
            tokens.insert(j, draw(st.sampled_from(BAD_TOKENS)))
        elif tokens:
            tokens[min(j, len(tokens) - 1)] = draw(st.sampled_from(BAD_TOKENS))
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


TABLE_TEXTS = [data_text(name) for name in ("c3v.grp", "c1h.grp", "c3v_double.grp")]
CATALOG_TEXT = data_text("zpl_catalog.txt")
SPECTRUM_TEXT = (
    "# lines = PL1\n# warning: coarse grid\n# columns: energy_meV intensity\n"
    "1000.000000\t1\n1000.250000\t1.25\n1000.500000\t1.5\n1000.750000\t1.75\n"
)
SCAN_TEXT = "# seed = 7\n0.0000\t2\n45.0000\t1\n90.0000\t0\n135.0000\t1\n"

fuzz = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def table_inputs():
    return token_soup | st.sampled_from(TABLE_TEXTS).flatmap(mutated)


@fuzz
@given(text=table_inputs())
def test_fuzz_table(text):
    try:
        load_table(text)
    except GroupError:
        pass


@fuzz
@given(text=token_soup | mutated(CATALOG_TEXT))
def test_fuzz_catalog(text):
    try:
        parse_catalog(text)
    except CatalogError as exc:
        assert LOCATED.search(str(exc))


@fuzz
@given(text=token_soup | mutated(SPECTRUM_TEXT))
def test_fuzz_spectrum(tmp_path, text):
    path = tmp_path / "fuzz.tsv"
    path.write_text(text)
    try:
        spectrum = read_spectrum(path)
    except SpectrumError as exc:
        assert LOCATED.search(str(exc))
    else:
        assert spectrum.energy_mev.shape == spectrum.intensity.shape
        assert np.isfinite(spectrum.energy_mev).all() and np.isfinite(spectrum.intensity).all()


@fuzz
@given(text=token_soup | mutated(SCAN_TEXT))
def test_fuzz_scan(tmp_path, text):
    path = tmp_path / "fuzz.tsv"
    path.write_text(text)
    try:
        samples = read_angular_samples(path)
    except SpectrumError as exc:
        assert LOCATED.search(str(exc))
    else:
        assert all(np.isfinite([s.phi_deg, s.intensity]).all() for s in samples)


def located_read(path):
    """What the located pass alone reads from the file at ``path``."""
    reader = read_records(path, SpectrumError)
    xs, ys = _located_columns(reader)
    return np.array(xs), np.array(ys), reader.header, tuple(reader.warnings)


@fuzz
@example(text="1_0 2\n")
@example(text="\u0661 2\n")
@example(text="1\x1f2\n3 4\x1f\n")
@example(text="1 2\x0c3 4\n")
@example(text="1\x1c2\n")
@example(text="1 2\nnan 4\n")
@example(text="1 infinity\n")
@example(text="1e999 2\n")
@example(text="-0 0\n5e-324 1e-400\n")
@example(text="# k = v\n# warning: w\n")
@example(text="# k = v\n1 2 # a = b\n3 4#c\n# warning: w\n")
@example(text="1\n2\n")
@example(text="1 2 3\n4 5 6\n")
@given(text=token_soup | mutated(SPECTRUM_TEXT) | mutated(SCAN_TEXT))
def test_fast_read_matches_the_located_read(tmp_path, text):
    path = tmp_path / "fuzz.tsv"
    path.write_text(text)
    try:
        want = located_read(path)
    except SpectrumError as exc:
        for reader in (read_spectrum, read_angular_samples):
            with pytest.raises(SpectrumError) as raised:
                reader(path)
            assert str(raised.value) == str(exc)
        return
    spectrum, scan = read_spectrum(path), read_angular_samples(path)
    for xs, ys in ((spectrum.energy_mev, spectrum.intensity), (scan.phi_deg, scan.intensity)):
        for got, expected in ((xs, want[0]), (ys, want[1])):
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()  # bit for bit, signed zeros too
    assert (spectrum.metadata, spectrum.warnings) == want[2:]


# -- every header a writer accepts reads back unchanged ------------------

header_text = (
    st.text(max_size=8)
    | st.text(alphabet="ab =#:\t \n\r\x0b\x1c\x85\u2028", max_size=8)
    | st.sampled_from(["warning:", "warning: x", " k", "k=x", "columns: x y"])
)
header_value = header_text | st.integers() | st.floats()
headers = st.dictionaries(header_text | st.integers(), header_value, max_size=4)


@fuzz
@example(header={"note": "a\n3 4", "k=x": "v"}, warnings=["w\n5 6"])
@given(header=headers, warnings=st.lists(header_text, max_size=3))
def test_written_header_reads_back_or_is_refused(tmp_path, header, warnings):
    grid, values = np.array([1.0, 2.0]), np.array([0.5, 0.25])
    want = {str(k): str(v) for k, v in header.items()}

    path = tmp_path / "spectrum.tsv"
    path.unlink(missing_ok=True)
    try:
        write_spectrum(path, Spectrum(grid, values, header, tuple(warnings)))
    except SpectrumError:
        assert not path.exists()
    else:
        back = read_spectrum(path)
        assert (back.metadata, back.warnings) == (want, tuple(warnings))
        assert np.array_equal(back.energy_mev, grid) and np.array_equal(back.intensity, values)

    path = tmp_path / "scan.tsv"
    path.unlink(missing_ok=True)
    try:
        write_angular_samples(path, AngularScan(grid, values), header)
    except SpectrumError:
        assert not path.exists()
    else:
        reader = read_records(path, SpectrumError)
        assert len(list(reader)) == 2
        assert (reader.header, reader.warnings) == (want, [])
        scan = read_angular_samples(path)
        assert np.array_equal(scan.phi_deg, grid) and np.array_equal(scan.intensity, values)
