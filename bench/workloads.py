"""The benchmark's three workloads: seeded inputs, op execution and output checks.

Each workload turns a seed into an endless stream of ops.  ``execute`` runs
one op against sicpl and returns what it produced; ``check`` compares that
with the float oracles in ``reference`` and raises ``CheckFailed``.  Ops are
drawn in blocks with fixed shares and a ladder of sizes, so runs with
different seeds do the same mix of work.  The benchmark calls sicpl through
module attributes (``groups.decompose``), which the tracer can wrap.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from sicpl import catalog, fileio, groups, selection, spectrum

import reference as ref
from reference import expect

GROUPS = ("C3v", "C1h", "C3v_double")
POLICIES = ("physical", "group-theory-only")
DEFECT_CLASSES = ("triplet-axial", "vsi-single-group")
SITES = ("hh", "kk", "hk", "kh", "k1k2", "k2k1", "hk1", "k1h", "k2k2")
CHARACTER_VALUES = (0, 1, -1, 2, -2, 1j, -1j)
ZPL_FWHM = 1.0
SIDEBAND = ((40.0, 20.0, 0.6), (90.0, 30.0, 0.4))
# lines x grid points of one spectrum op; keeps any single op near 0.5 s
SPECTRUM_CAP = 2e7
GENERATED_LINES = (50, 62, 75, 88, 100)


@dataclass
class Op:
    kind: str
    params: dict
    tags: tuple = field(default=())


def _ladder(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """``count`` evenly spaced values from lo to hi, in seeded order.

    Used on log sizes: every block then holds the same sizes, so runs with
    different seeds do the same work and the largest input is always there.
    """
    values = [lo + (hi - lo) * k / (count - 1) for k in range(count)]
    rng.shuffle(values)
    return values


def _decade(n: int) -> str:
    return f"1e{int(math.log10(n))}"


def _polarization(pol: tuple) -> selection.Polarization:
    if pol[0] == "par":
        return selection.Polarization.parallel_c()
    if pol[0] == "perp":
        return selection.Polarization.perpendicular_c()
    return selection.Polarization.in_plane(pol[1])


def _random_polarization(rng: random.Random) -> tuple:
    azimuth = rng.choice((0.0, 45.0, 90.0, 135.0, 180.0, 270.0, rng.uniform(0.0, 360.0)))
    return rng.choice((("par",), ("perp",), ("in_plane", azimuth)))


def _laser(rng: random.Random, lines: list[tuple[str, float, bool]],
           above_all: bool = False) -> tuple[float, float, list]:
    """A laser wavelength and angle that excite at least one of ``lines``.

    With ``above_all`` the photon lies above every line, so only the angle
    decides.  Returns (nm, phi, excited (label, energy) pairs per the oracle).
    """
    energies = [e for _, e, _ in lines]
    while True:
        low = max(energies) + 1.0 if above_all else min(energies) + 0.5
        photon = rng.uniform(low, max(energies) + 100.0)
        phi = rng.choice((0.0, 45.0, 90.0, 135.0)) if rng.random() < 0.4 else 180.0 * rng.random()
        nm = ref.HC_MEV_NM / (ref.AIR_INDEX * photon)
        photon = ref.photon_mev(nm)
        effs = [ref.efficiency(e, axial, photon, phi) for _, e, axial in lines]
        if max(effs) > 1e-6 and min(abs(photon - e) for e in energies) > 1e-6:
            excited = [(label, e) for (label, e, _), eff in zip(lines, effs) if eff > ref.TOL]
            return nm, phi, excited


class Workload:
    count_window = 100  # ops whose counts are reported per op; repeats exactly for a seed
    block = 20          # ops per block of fixed shares
    warmup = 20         # untimed ops before measuring

    def ops(self, seed: int, tiny: bool):
        raise NotImplementedError

    def execute(self, op: Op, tracer):
        raise NotImplementedError

    def check(self, op: Op, result) -> None:
        raise NotImplementedError

    def collect(self, op: Op, tracer) -> None:
        """Adopt spans recorded outside this process, after the op's clock stopped."""


class SymmetryMix(Workload):
    """Exact character arithmetic in-process: products, verdicts, tables, Kramers, user tables."""

    BLOCK = ["product"] * 9 + ["verdict"] * 5 + ["table"] * 2 + ["kramers"] * 2 + ["load"] * 2

    def ops(self, seed, tiny):
        rng = random.Random(seed)
        while True:
            kinds = self.BLOCK[:]
            rng.shuffle(kinds)
            perturbed = [False, True]  # one of each block's two table loads is corrupted
            rng.shuffle(perturbed)
            for kind in kinds:
                yield getattr(self, f"_{kind}")(rng, perturbed)

    def _product(self, rng, _):
        group = rng.choice(GROUPS)
        labels = [rng.choice(ref.irrep_labels(group)) for _ in range(rng.randint(2, 6))]
        return Op("product", {"group": group, "labels": labels},
                  (f"group:{group}", f"factors:{len(labels)}"))

    def _verdict(self, rng, _):
        group = rng.choice(("C3v", "C1h"))
        labels = ref.irrep_labels(group)
        phonon = None
        if rng.random() < 0.7:
            label = rng.choice(labels)
            axis = (ref.C3V_PHONON_AXIS[label] if group == "C3v"
                    else rng.choice(("along_c", "in_basal_plane")))
            phonon = (label, axis)
        params = {"group": group, "initial": rng.choice(labels), "final": rng.choice(labels),
                  "pol": _random_polarization(rng), "phonon": phonon,
                  "policy": rng.choice(POLICIES)}
        return Op("verdict", params, (f"group:{group}", "phonon" if phonon else "direct"))

    def _table(self, rng, _):
        params = {"defect_class": rng.choice(DEFECT_CLASSES), "policy": rng.choice(POLICIES)}
        return Op("table", params)

    def _kramers(self, rng, _):
        params = {"initial": rng.choice(("E1/2", "E3/2")), "final": rng.choice(("E1/2", "E3/2")),
                  "pol": rng.choice((("par",), ("perp",)))}
        return Op("kramers", params)

    def _load(self, rng, perturbed):
        group = rng.choice(GROUPS)
        n_classes = len(ref.TABLES[group][1])
        class_order = [0] + rng.sample(range(1, n_classes), n_classes - 1)  # identity stays first
        irrep_order = rng.sample(range(n_classes), n_classes)
        perturb = None
        if perturbed.pop():
            row, col = rng.randrange(n_classes), rng.randrange(n_classes)
            current = complex(ref.TABLES[group][2][irrep_order[row]][2][class_order[col]])
            perturb = (row, col, rng.choice([v for v in CHARACTER_VALUES if v != current]))
        text, rows = ref.table_text(group, class_order, irrep_order, perturb)
        params = {"group": group, "text": text, "class_order": class_order, "rows": rows}
        return Op("load", params, (f"group:{group}", "perturbed" if perturb else "valid"))

    def execute(self, op, tracer):
        p = op.params
        if op.kind == "product":
            g = groups.builtin_group(p["group"])
            return groups.decompose(groups.tensor_product(*[g.rep(x) for x in p["labels"]])).counts
        if op.kind == "verdict":
            g = groups.builtin_group(p["group"])
            phonon = None
            if p["phonon"] is not None:
                label, axis = p["phonon"]
                phonon = (selection.PhononMode.c3v(label) if p["group"] == "C3v"
                          else selection.PhononMode(label, selection.DisplacementAxis(axis)))
            query = selection.TransitionQuery(g, p["initial"], p["final"],
                                              _polarization(p["pol"]), phonon)
            if phonon is None:
                v = selection.direct_verdict(query)
            else:
                v = selection.phonon_assisted_verdict(query, selection.Policy(p["policy"]))
            return v.symbol, v.group_theory_allowed, v.physical_coupling
        if op.kind == "table":
            table = selection.selection_table(selection.DefectClass(p["defect_class"]),
                                              selection.Policy(p["policy"]))
            return {row: " ".join(symbols) for row, symbols in table.symbols().items()}
        if op.kind == "kramers":
            return selection.kramers_verdict(selection.KramersLevel(p["initial"]),
                                             selection.KramersLevel(p["final"]),
                                             _polarization(p["pol"])).symbol
        try:
            return groups.load_table(p["text"])
        except groups.GroupError:
            return None

    def check(self, op, result):
        p = op.params
        if op.kind == "product":
            expect(result == ref.decomposition(p["group"], p["labels"]),
                   f"{p['labels']} in {p['group']}: {result}")
        elif op.kind == "verdict":
            want = ref.verdict(p["group"], p["initial"], p["final"], p["pol"], p["phonon"],
                               p["policy"])
            expect(result == want, f"verdict {p}: {result} vs {want}")
        elif op.kind == "table":
            want = ref.PANELS[(p["defect_class"], p["policy"])]
            expect(result == want, f"panel {p}: {result} vs {want}")
        elif op.kind == "kramers":
            want = ref.kramers(p["initial"], p["final"], p["pol"])
            expect(result == want, f"kramers {p}: {result} vs {want}")
        else:
            valid = ref.table_is_valid(p["group"], p["class_order"], p["rows"])
            expect((result is not None) == valid,
                   f"table {p['group']} {'rejected' if result is None else 'accepted'}")
            if result is not None:
                classes = [ref.TABLES[p["group"]][1][c][0] for c in p["class_order"]]
                expect(list(result.class_labels) == classes, "class order lost")
                for (label, dim, chars), irrep in zip(p["rows"], result.irreps):
                    got = [complex(float(c.re), float(c.im)) for c in irrep.characters]
                    expect(irrep.label == label and irrep.dim == dim
                           and np.allclose(got, chars, atol=ref.TOL), f"irrep {label} changed")


class SpectrumSweep(Workload):
    """Spectrum synthesis and angular fits in-process, on grids of 1e4 to 1e6 points."""

    SCANS = 5  # per block, after 5 spectrum ops on each of the three line sets

    def ops(self, seed, tiny):
        rng = random.Random(seed)
        point_range, sample_range = ((3.3, 3.7), (2.0, 3.0)) if tiny else ((4.0, 6.0), (3.0, 5.0))
        while True:
            slices = list(ref.SLICES) + [rng.choice(ref.SLICES)]
            sizes = list(GENERATED_LINES)
            rng.shuffle(slices)
            rng.shuffle(sizes)
            ops = [self._spectrum(rng, "slice", s, 10 ** e)
                   for s, e in zip(slices, _ladder(rng, 5, *point_range))]
            ops += [self._spectrum(rng, "full", None, 10 ** e) for e in _ladder(rng, 5, *point_range)]
            ops += [self._spectrum(rng, "generated", n, 10 ** e)
                    for n, e in zip(sizes, _ladder(rng, 5, *point_range))]
            ops += [self._scan(rng, int(10 ** e)) for e in _ladder(rng, self.SCANS, *sample_range)]
            rng.shuffle(ops)
            for make in ops:
                yield make()

    def _spectrum(self, rng, kind, arg, points):
        if kind == "slice":
            source, lines = arg, ref.catalog_slice(*arg)
        elif kind == "full":
            source, lines = None, ref.catalog_slice()
        else:
            source, lines = self._generated_catalog(rng, arg)
        n = int(min(points, SPECTRUM_CAP / len(lines)))
        # every line's sideband absorbs, so the cost of an op follows its
        # sizes; the energy cut-off is exercised by the CLI's `excite`
        nm, phi, excited = _laser(rng, lines, above_all=True)
        emin = min(e for _, e, _ in lines) - 170.0
        emax = max(e for _, e, _ in lines) + 10.0
        top = max(e for _, e in excited)
        params = {"kind": kind, "source": source, "lines": lines, "nm": nm, "phi": phi,
                  "dw": rng.uniform(0.1, 0.9), "emin": emin, "emax": emax, "n": n,
                  "zpl_window": (top - 2.0, top + 2.0),
                  "probes": [rng.choice(excited)[1] + rng.uniform(-2.0, 2.0) for _ in range(3)]
                  + [rng.uniform(emin, emax) for _ in range(3)]}
        bucket = "50-100" if kind == "generated" else str(len(lines))
        tags = (f"lines:{bucket}", f"points:{_decade(n)}")
        # the grid is built when the op is drawn, outside the op's clock
        return lambda: Op("spectrum", dict(params, grid=np.linspace(emin, emax, n)), tags)

    @staticmethod
    def _generated_catalog(rng, count):
        rows, text = [], ["# label polytype defect wavelength_nm energy_meV geometry sites"]
        for k in range(count):
            energy = round(rng.uniform(990.0, 1160.0), 1)
            axial = k > 0 and rng.random() < 0.5  # G0 is basal, so phi = 90 never darkens all
            polytype, defect = rng.choice(ref.SLICES)
            nm = round(ref.HC_MEV_NM / (ref.AIR_INDEX * energy), 2)
            text.append(f"G{k} {polytype} {defect} {nm} {energy} "
                        f"{'axial' if axial else 'basal'} {rng.choice(SITES)} generated")
            rows.append((f"G{k}", energy, axial))
        return "\n".join(text) + "\n", sorted(rows, key=lambda r: r[1])

    def _scan(self, rng, n):
        modulation = rng.choice((-1.0, 1.0)) if rng.random() < 0.2 else rng.uniform(-1.0, 1.0)
        params = {"amplitude": rng.uniform(0.5, 2.0), "modulation": modulation,
                  "sigma": 0.0 if rng.random() < 0.2 else rng.uniform(0.001, 0.05),
                  "seed": rng.randrange(2 ** 31), "n": n}
        tags = (f"samples:{_decade(n)}",)
        return lambda: Op("scan", dict(params, phis=np.linspace(0.0, 180.0, n, endpoint=False)), tags)

    def execute(self, op, tracer):
        p = op.params
        if op.kind == "scan":
            model = spectrum.AngularModel(p["amplitude"], p["modulation"])
            samples = spectrum.angular_scan(model, p["phis"], p["sigma"], p["seed"])
            fitted, residual = spectrum.fit_angular(samples)
            return samples, fitted, spectrum.classify_geometry(fitted)
        if p["kind"] == "generated":
            lines = catalog.parse_catalog(p["source"]).lines_for()
        elif p["kind"] == "slice":
            lines = catalog.builtin_catalog().lines_for(
                catalog.Polytype(p["source"][0]), catalog.Defect(p["source"][1]))
        else:
            lines = catalog.builtin_catalog().lines_for()
        excited = spectrum.excited_lines(lines, spectrum.LaserConfig.from_wavelength(p["nm"], p["phi"]))
        shape = spectrum.LineShapeParams(ZPL_FWHM, SIDEBAND, p["dw"])
        spec = spectrum.synthesize_spectrum(excited, shape, p["grid"])
        return lines, excited, spec, spectrum.debye_waller(spec, p["zpl_window"], (p["emin"], p["emax"]))

    def check(self, op, result):
        p = op.params
        if op.kind == "scan":
            self._check_scan(p, *result)
            return
        lines, excited, spec, dw = result
        got = [(li.label, li.energy_mev, li.is_axial) for li in lines]
        expect(got == p["lines"], f"line set {p['kind']} differs")
        photon = ref.photon_mev(p["nm"])
        pairs = [(li.label, eff) for li, eff in excited]
        ref.check_excited(p["lines"], photon, p["phi"], pairs)
        expect([li.energy_mev for li, _ in excited] == sorted(li.energy_mev for li, _ in excited),
               "excited lines not ascending")
        grid, intensity = p["grid"], spec.intensity
        expect(intensity.shape == grid.shape, "grid changed")
        band = [(li.energy_mev, eff) for li, eff in excited]
        total = sum(eff for _, eff in band)
        area = ref.trapezoid(grid, intensity)
        # the grid reaches 12 sideband widths below the lowest line: only
        # trapezoid error remains, far below this tolerance
        expect(abs(area - total) <= 1e-4 * total, f"band integral {area} vs efficiencies {total}")
        for probe in p["probes"]:
            i = min(int(np.searchsorted(grid, probe)), grid.size - 1)
            want = ref.band_value(float(grid[i]), band, ZPL_FWHM, SIDEBAND, p["dw"])
            expect(abs(intensity[i] - want) <= 1e-9 * abs(want) + 1e-12,
                   f"intensity at {grid[i]}: {intensity[i]} vs {want}")
        want = ref.window_ratio(grid, intensity, p["zpl_window"], (p["emin"], p["emax"]))
        expect(abs(dw - want) <= 1e-9 * abs(want), f"debye-waller {dw} vs {want}")

    @staticmethod
    def _check_scan(p, samples, fitted, geometry, rounding=0.0):
        a, b, sigma, n = p["amplitude"], p["modulation"], p["sigma"], p["n"]
        expect(len(samples) == n, f"{len(samples)} samples for {n} angles")
        model = np.array([a * (1.0 + b * math.cos(math.radians(2.0 * s.phi_deg))) for s in samples])
        noise = np.array([s.intensity for s in samples]) - model
        if sigma == 0.0:
            expect(np.max(np.abs(noise)) <= 1e-12 + rounding, "noiseless scan off the model")
        elif n >= 1000:
            expect(0.7 * sigma <= float(np.std(noise)) <= 1.3 * sigma, "noise level off")
        tol = ref.modulation_tolerance(sigma, a, b, n) + rounding
        expect(abs(fitted.modulation - b) <= tol, f"fitted B {fitted.modulation} vs {b} (tol {tol})")
        expect(abs(fitted.amplitude - a) <= 6.0 * sigma / math.sqrt(n) + ref.TOL + rounding,
               f"fitted A {fitted.amplitude} vs {a}")
        threshold = spectrum.DEFAULT_AXIAL_B_THRESHOLD
        if abs(b - threshold) > tol:
            want = catalog.Geometry.AXIAL if b > threshold else catalog.Geometry.BASAL
            expect(geometry is want, f"B = {b} classified {geometry.value}")


class CliSessions(Workload):
    """Cold ``python -m sicpl.cli`` processes, in sessions that use all 8 subcommands."""

    count_window = 18  # two sessions
    block = 9
    warmup = 3

    def __init__(self, src: Path, workdir: Path, shim: Path):
        self.workdir, self.shim = workdir, shim
        self.env = dict(os.environ, PYTHONPATH=str(src), SICPL_OUTPUT_DIR=str(workdir))
        self.sessions = 0

    def ops(self, seed, tiny):
        rng = random.Random(seed)
        point_range, sample_range = (((3.0, 3.3), (2.0, 2.3)) if tiny
                                     else ((3.0, math.log10(5e4)), (2.0, 4.0)))
        while True:  # blocks of 8 sessions share a ladder of grid and scan sizes
            for e_points, e_samples in zip(_ladder(rng, 8, *point_range),
                                           _ladder(rng, 8, *sample_range)):
                yield from self._session(rng, int(10 ** e_points), int(10 ** e_samples))

    def _session(self, rng, points, samples):
        self.sessions += 1
        tag = self.sessions  # unique for the life of the workload, across passes
        group = rng.choice(GROUPS)
        labels = [rng.choice(ref.irrep_labels(group)) for _ in range(rng.randint(2, 6))]
        yield Op("product", {"argv": ["product", group, *labels, "--format", "json"],
                             "group": group, "labels": labels})
        dc, policy = rng.choice(DEFECT_CLASSES), rng.choice(POLICIES)
        yield Op("selection", {"argv": ["selection", dc, f"--policy={policy}", "--format", "json"],
                               "defect_class": dc, "policy": policy})
        polytype, defect = rng.choice(ref.SLICES)
        geometry = rng.choice((None, "axial", "basal"))
        yield Op("catalog", {"argv": ["catalog", polytype, defect, "--format", "json"]
                             + ([f"--geometry={geometry}"] if geometry else []),
                             "slice": (polytype, defect, geometry)})
        yield Op("catalog", {"argv": ["catalog", "--verify-units", "--format", "json"],
                             "slice": None})
        polytype, defect = rng.choice(ref.SLICES)
        lines = ref.catalog_slice(polytype, defect)
        nm, phi, _ = _laser(rng, lines)
        yield Op("excite", {"argv": ["excite", polytype, defect, f"--laser-nm={nm!r}",
                                     f"--phi={phi!r}", "--format", "json"],
                            "slice": (polytype, defect), "nm": nm, "phi": phi, "lines": lines})
        polytype, defect = rng.choice(ref.SLICES)
        lines = ref.catalog_slice(polytype, defect)
        nm, phi, excited = _laser(rng, lines)
        emin = round(lines[0][1] - 170.0, 1)
        emax = round(lines[-1][1] + 10.0, 1)
        step = (emax - emin) / (points - 1)
        dw, spec = rng.uniform(0.1, 0.9), f"spec-{tag}.tsv"
        top = max(e for _, e in excited)
        yield Op("spectrum", {
            "argv": ["spectrum", polytype, defect, f"--laser-nm={nm!r}", f"--phi={phi!r}",
                     f"--emin={emin!r}", f"--emax={emax!r}", f"--step={step!r}", f"--dw={dw!r}",
                     "--out", spec],
            "file": spec, "nm": nm, "phi": phi, "lines": lines, "n": points},
            ("points:" + _decade(points),))
        zpl, band = (top - 2.0, top + 2.0), (emin + 2 * step, emax - 2 * step)
        yield Op("debye-waller", {
            "argv": ["debye-waller", spec, "--zpl-window", repr(zpl[0]), repr(zpl[1]),
                     "--band-window", repr(band[0]), repr(band[1]), "--format", "json"],
            "file": spec, "zpl": zpl, "band": band})
        a, b = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
        sigma, seed, step = rng.uniform(0.0, 0.05), rng.randrange(2 ** 31), 180.0 / samples
        scan = f"scan-{tag}.tsv"
        params = {"amplitude": a, "modulation": b, "sigma": sigma, "n": samples, "file": scan}
        yield Op("angular-scan", dict(params, argv=[
            "angular-scan", f"--amplitude={a!r}", f"--modulation={b!r}", "--start=0",
            f"--stop={180.0 - step!r}", f"--step={step!r}", f"--noise={sigma!r}",
            f"--seed={seed}", "--out", scan]), ("samples:" + _decade(samples),))
        yield Op("fit-angle", dict(params, argv=["fit-angle", scan, "--format", "json"]))

    def execute(self, op, tracer):
        if tracer is None:
            cmd = [sys.executable, "-m", "sicpl.cli", *op.params["argv"]]
        else:
            cmd = [sys.executable, str(self.shim), str(self._spans_file(tracer)), *op.params["argv"]]
        return subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True,
                              text=True, timeout=120)

    def _spans_file(self, tracer) -> Path:
        return self.workdir / f"spans-{tracer.op}.json"

    def collect(self, op, tracer):
        path = self._spans_file(tracer)
        tracer.merge_child(str(path))
        path.unlink()

    def check(self, op, proc):
        p = op.params
        expect(proc.returncode == 0, f"{op.kind} exited {proc.returncode}: {proc.stderr.strip()}")
        if op.kind in ("spectrum", "angular-scan"):
            self._check_file(op)
            return
        payload = json.loads(proc.stdout)
        if op.kind == "product":
            g = groups.builtin_group(p["group"])
            counts = groups.decompose(groups.tensor_product(*[g.rep(x) for x in p["labels"]])).counts
            expect(payload["decomposition"] == counts == ref.decomposition(p["group"], p["labels"]),
                   f"product {p['labels']}: {payload['decomposition']}")
            expect(payload["contains_trivial"] == (counts[g.trivial_irrep.label] >= 1), "trivial flag")
        elif op.kind == "selection":
            table = selection.selection_table(selection.DefectClass(p["defect_class"]),
                                              selection.Policy(p["policy"]))
            expect(payload == json.loads(table.to_json()), "selection JSON differs from the library")
            symbols = {row["polarization"]: " ".join(v["symbol"] for v in row["verdicts"])
                       for row in payload["rows"]}
            expect(symbols == ref.PANELS[(p["defect_class"], p["policy"])], f"panel {symbols}")
        elif op.kind == "catalog" and p["slice"] is None:
            residuals = catalog.builtin_catalog().unit_residuals(catalog.Medium.air())
            expect(payload["residuals_mev"] == {li.label: r for li, r in residuals},
                   "unit residuals differ from the library")
            expect(payload["max_abs_residual_mev"] < 0.1, "unit residual above 0.1 meV")
        elif op.kind == "catalog":
            polytype, defect, geometry = p["slice"]
            lines = catalog.builtin_catalog().lines_for(
                catalog.Polytype(polytype), catalog.Defect(defect),
                catalog.Geometry(geometry) if geometry else None)
            expect([(d["label"], d["energy_mev"], d["wavelength_nm"], d["geometry"], d["sites"])
                    for d in payload]
                   == [(li.label, li.energy_mev, li.wavelength_nm, li.geometry.value,
                        "".join(li.sites)) for li in lines], "catalog JSON differs from the library")
            expect([d["label"] for d in payload]
                   == [r[0] for r in ref.catalog_slice(polytype, defect, geometry)], "catalog slice")
        elif op.kind == "excite":
            lines = catalog.builtin_catalog().lines_for(catalog.Polytype(p["slice"][0]),
                                                        catalog.Defect(p["slice"][1]))
            hits = spectrum.excited_lines(lines, spectrum.LaserConfig.from_wavelength(p["nm"], p["phi"]))
            got = [(d["label"], d["efficiency"]) for d in payload["lines"]]
            expect(got == [(li.label, eff) for li, eff in hits], "excite JSON differs from the library")
            ref.check_excited(p["lines"], ref.photon_mev(p["nm"]), p["phi"], got)
        elif op.kind == "debye-waller":
            spec = fileio.read_spectrum(self.workdir / p["file"])
            want = spectrum.debye_waller(spec, p["zpl"], p["band"])
            expect(payload["debye_waller"] == want, "debye-waller JSON differs from the library")
            independent = ref.window_ratio(spec.energy_mev, spec.intensity, p["zpl"], p["band"])
            expect(abs(want - independent) <= 1e-9 * independent, f"debye-waller {want} vs {independent}")
        else:  # fit-angle
            samples = fileio.read_angular_samples(self.workdir / p["file"])
            model, residual = spectrum.fit_angular(samples)
            geometry = spectrum.classify_geometry(model)
            expect([payload[k] for k in ("amplitude", "modulation", "residual", "geometry")]
                   == [model.amplitude, model.modulation, residual, geometry.value],
                   "fit-angle JSON differs from the library")
            # the file keeps 4 decimals of phi and 9 digits of intensity
            SpectrumSweep._check_scan(p, samples, model, geometry, rounding=1e-5)

    def _check_file(self, op):
        p = op.params
        if op.kind == "angular-scan":
            expect(len(fileio.read_angular_samples(self.workdir / p["file"])) == p["n"], "scan length")
            return
        spec = fileio.read_spectrum(self.workdir / p["file"])
        expect(abs(spec.energy_mev.size - p["n"]) <= 1, f"{spec.energy_mev.size} points for {p['n']}")
        photon = ref.photon_mev(p["nm"])
        total = sum(ref.efficiency(e, axial, photon, p["phi"]) for _, e, axial in p["lines"])
        area = ref.trapezoid(spec.energy_mev, spec.intensity)
        expect(abs(area - total) <= 1e-4 * total, f"band integral {area} vs efficiencies {total}")


def make(name: str, src: Path, workdir: Path, shim: Path) -> Workload:
    if name == "symmetry-mix":
        return SymmetryMix()
    if name == "spectrum-sweep":
        return SpectrumSweep()
    if name == "cli-sessions":
        return CliSessions(src, workdir, shim)
    raise ValueError(f"unknown workload {name!r}")
