"""Command-line interface.

One binary with subcommands wrapping the library: representation
algebra, selection tables, catalog queries, excitation scenarios,
spectrum synthesis and angular fitting.  Exit codes: 0 success, 2 usage
error, 1 computation error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .catalog import (
    Catalog,
    CatalogError,
    DEFAULT_AIR_INDEX,
    Defect,
    Geometry,
    Medium,
    Polytype,
    builtin_catalog,
    format_catalog,
)
from .fileio import read_angular_samples, read_spectrum, write_angular_samples, write_spectrum
from .groups import BUILTIN_GROUPS, GroupError, builtin_group, decompose, tensor_product
from .selection import DefectClass, Policy, selection_table
from .spectrum import (
    AngularModel,
    DEFAULT_BASAL_MODULATION,
    DEFAULT_AXIAL_B_THRESHOLD,
    DEFAULT_DEBYE_WALLER,
    DEFAULT_ZPL_FWHM_MEV,
    LaserConfig,
    LaserMode,
    LineShapeParams,
    ScanPlane,
    SpectrumError,
    angular_scan,
    classify_geometry,
    debye_waller,
    excited_lines,
    fit_angular,
    synthesize_spectrum,
)

if TYPE_CHECKING:
    import numpy as np

OUTPUT_DIR_ENV = "SICPL_OUTPUT_DIR"
MAX_GRID_POINTS = 10**7  # largest energy grid or angle list built from flags

# Arguments that argparse must read as negative numbers, not as options:
# its own pattern (-N, -N.N) misses exponents (-1e1) and -inf/-nan, which
# float() accepts.  No sicpl option starts with a digit, "inf" or "nan".
_NEGATIVE_NUMBER = re.compile(
    r"^-(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)$", re.IGNORECASE
)


def _out_path(path: str) -> Path:
    p = Path(path)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not p.is_absolute():
        p = Path(base) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _laser(args) -> LaserConfig:
    mode = LaserMode.RESONANT if getattr(args, "resonant", False) else LaserMode.NON_RESONANT
    # built first, so a bad --air-index fails whichever flag gives the laser
    medium = Medium.air(args.air_index)
    if args.laser_mev is not None:
        return LaserConfig(args.laser_mev, args.phi, mode)
    if args.laser_nm is not None:
        return LaserConfig.from_wavelength(args.laser_nm, args.phi, medium, mode)
    raise CatalogError("specify the laser with --laser-nm or --laser-mev")


def _arange(start: float, stop: float, step: float, flags: tuple[str, str]) -> np.ndarray:
    """Points from start to stop inclusive (within half a step), step apart."""
    import numpy as np

    if not (math.isfinite(step) and step > 0):
        raise SpectrumError(f"--step must be finite and positive, got {step:g}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise SpectrumError(f"range ends must be finite, got {start:g} and {stop:g}")
    if stop < start:
        raise SpectrumError(f"{flags[1]} {stop:g} is below {flags[0]} {start:g}")
    # Compared as a float before anything is allocated; inf counts as too many.
    if (stop - start) / step >= MAX_GRID_POINTS:
        raise SpectrumError(
            f"{flags[0]} {start:g} to {flags[1]} {stop:g} with --step {step:g} "
            f"would exceed {MAX_GRID_POINTS} points"
        )
    points = np.arange(start, stop + step / 2.0, step)
    # a step below the float spacing near start rounds points together, or away
    if points.size == 0 or not (points[1:] > points[:-1]).all():
        raise SpectrumError(
            f"--step {step:g} is below the float spacing near {flags[0]} {start:g}: "
            "the points would not ascend"
        )
    return points


def _add_laser_flags(parser: argparse.ArgumentParser) -> None:
    laser = parser.add_mutually_exclusive_group()
    laser.add_argument("--laser-nm", type=float, help="laser wavelength in nm")
    laser.add_argument("--laser-mev", type=float, help="laser photon energy in meV")
    parser.add_argument("--phi", type=float, default=0.0,
                        help="polarizer angle in degrees (0 = E perp c, 90 = E par c)")
    parser.add_argument("--air-index", type=float, default=DEFAULT_AIR_INDEX)
    parser.add_argument("--resonant", action="store_true",
                        help="resonant excitation (match within half a linewidth)")
    parser.add_argument("--basal-b", type=float, default=DEFAULT_BASAL_MODULATION,
                        help="modulation of basal-line excitation efficiency")
    parser.add_argument("--zpl-fwhm", type=float, default=DEFAULT_ZPL_FWHM_MEV)


def _catalog_slice(args) -> list:
    polytype = Polytype(args.polytype) if args.polytype else None
    defect = Defect(args.defect) if args.defect else None
    geometry = Geometry(args.geometry) if getattr(args, "geometry", None) else None
    return builtin_catalog().lines_for(polytype, defect, geometry)


def cmd_product(args) -> tuple[dict, str]:
    group = builtin_group(args.group)
    if len(args.irreps) < 2:
        raise GroupError("need at least two irrep labels")
    rep = tensor_product(*[group.rep(label) for label in args.irreps])
    mult = decompose(rep)
    trivial = group.trivial_irrep.label
    result = {
        "group": group.name,
        "factors": args.irreps,
        "decomposition": mult.counts,
        "contains_trivial": mult[trivial] >= 1,
    }
    yn = "yes" if result["contains_trivial"] else "no"
    return result, f"{mult.direct_sum_str()} (contains {trivial}: {yn})\n"


def cmd_selection(args) -> tuple[dict, str]:
    table = selection_table(DefectClass(args.defect_class), Policy(args.policy))
    result = table.to_dict()
    header = f"# defect class: {result['defect_class']}, policy: {result['policy']}"
    return result, f"{header}\n{table.to_text()}\n"


def cmd_excite(args) -> tuple[dict, str]:
    laser = _laser(args)
    lines = _catalog_slice(args)
    hits = excited_lines(lines, laser, args.basal_b, args.zpl_fwhm)
    result = {
        "laser_mev": laser.photon_energy_mev,
        "phi_deg": laser.polarizer_angle_deg,
        "mode": laser.mode.value,
        "lines": [
            {"label": li.label, "energy_mev": li.energy_mev,
             "geometry": li.geometry.value, "efficiency": eff}
            for li, eff in hits
        ],
    }
    text = (f"# laser {result['laser_mev']:.1f} meV, phi {result['phi_deg']:g} deg, "
            f"mode {result['mode']}, basal_b {args.basal_b}\n")
    for hit in result["lines"]:
        text += (f"{hit['label']}\t{hit['energy_mev']:.1f} meV\t"
                 f"{hit['geometry']}\t{hit['efficiency']:.4f}\n")
    return result, text


def cmd_spectrum(args) -> tuple[None, str]:
    laser = _laser(args)
    lines = _catalog_slice(args)
    hits = excited_lines(lines, laser, args.basal_b, args.zpl_fwhm)
    shape = LineShapeParams(zpl_fwhm_mev=args.zpl_fwhm, debye_waller=args.dw)
    grid = _arange(args.emin, args.emax, args.step, ("--emin", "--emax"))
    metadata = {
        "laser_mev": f"{laser.photon_energy_mev:.4f}",
        "phi_deg": laser.polarizer_angle_deg,
        "mode": laser.mode.value,
        "basal_b": args.basal_b,
        "zpl_fwhm_mev": args.zpl_fwhm,
        "debye_waller": args.dw,
        "air_index": args.air_index,
        "lines": ",".join(li.label for li, _ in hits) or "(none)",
    }
    spectrum = synthesize_spectrum(hits, shape, grid, metadata)
    path = _out_path(args.out)
    write_spectrum(path, spectrum)
    for warning in spectrum.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return None, f"wrote {path} ({len(hits)} lines)\n"


def cmd_angular_scan(args) -> tuple[None, str]:
    model = AngularModel(args.amplitude, args.modulation)
    phis = _arange(args.start, args.stop, args.step, ("--start", "--stop"))
    samples = angular_scan(model, phis, args.noise, args.seed)
    metadata = {
        "amplitude": args.amplitude,
        "modulation": args.modulation,
        "noise_sigma": args.noise,
        "seed": args.seed,
    }
    path = _out_path(args.out)
    write_angular_samples(path, samples, metadata)
    return None, f"wrote {path} ({len(samples)} samples)\n"


def cmd_fit_angle(args) -> tuple[dict, str]:
    samples = read_angular_samples(args.input)
    model, residual = fit_angular(samples)
    plane = ScanPlane(args.scan_plane)
    geometry = classify_geometry(model, plane, args.axial_threshold)
    result = {
        "amplitude": model.amplitude,
        "modulation": model.modulation,
        "residual": residual,
        "geometry": geometry.value,
        "scan_plane": plane.value,
        "axial_threshold": args.axial_threshold,
    }
    text = (f"A = {result['amplitude']:.6g}\n"
            f"B = {result['modulation']:.6g}\n"
            f"residual = {result['residual']:.3g}\n"
            f"geometry = {result['geometry']} (scan plane {result['scan_plane']}, "
            f"threshold {result['axial_threshold']})\n")
    return result, text


def cmd_catalog(args) -> tuple[dict | list | None, str]:
    medium = Medium.air(args.air_index)  # checked even when --verify-units is off
    if args.verify_units:
        residuals = builtin_catalog().unit_residuals(medium)
        result = {
            "air_index": medium.refractive_index,
            "residuals_mev": {li.label: r for li, r in residuals},
            "max_abs_residual_mev": max(abs(r) for _, r in residuals),
        }
        text = f"# air index {result['air_index']}\n"
        for label, r in result["residuals_mev"].items():
            text += f"{label}\t{r:+.4f} meV\n"
        text += f"# max |residual| = {result['max_abs_residual_mev']:.4f} meV\n"
        return result, text
    lines = _catalog_slice(args)
    if args.export:
        path = _out_path(args.export)
        path.write_text(format_catalog(Catalog(tuple(lines))))
        return None, f"wrote {path} ({len(lines)} lines)\n"
    result = [
        {"label": li.label, "polytype": li.polytype.value,
         "defect": li.defect.value, "wavelength_nm": li.wavelength_nm,
         "energy_mev": li.energy_mev, "geometry": li.geometry.value,
         "sites": "".join(li.sites)}
        for li in lines
    ]
    text = "".join(
        f"{row['label']}\t{row['polytype']}\t{row['defect']}\t"
        f"{row['wavelength_nm']} nm\t{row['energy_mev']} meV\t"
        f"{row['geometry']}\t{row['sites']}\n"
        for row in result
    )
    return result, text


def cmd_debye_waller(args) -> tuple[dict, str]:
    spectrum = read_spectrum(args.input)
    dw = debye_waller(spectrum, tuple(args.zpl_window), tuple(args.band_window))
    return {"debye_waller": dw}, f"debye_waller = {dw:.6f}\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sicpl",
        description="Selection rules and polarized PL simulation for SiC colour centres",
    )
    parser.add_argument("--version", action="version", version=f"sicpl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=["text", "json"], default="text")

    polytypes = [p.value for p in Polytype]
    defects = [d.value for d in Defect]

    p = sub.add_parser("product", help="decompose a direct product of irreps")
    p.add_argument("group", choices=BUILTIN_GROUPS)
    p.add_argument("irreps", nargs="+", help="two or more irrep labels")
    add_format(p)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("selection", help="print a selection-rule grid")
    p.add_argument("defect_class", choices=[c.value for c in DefectClass])
    p.add_argument("--policy", choices=[p.value for p in Policy],
                   default=Policy.PHYSICAL_OVERRIDE.value)
    add_format(p)
    p.set_defaults(func=cmd_selection)

    p = sub.add_parser("excite", help="lines excitable by a given laser")
    p.add_argument("polytype", choices=polytypes)
    p.add_argument("defect", choices=defects, type=str.upper)
    _add_laser_flags(p)
    add_format(p)
    p.set_defaults(func=cmd_excite)

    p = sub.add_parser("spectrum", help="synthesize a polarized PL spectrum")
    p.add_argument("polytype", choices=polytypes)
    p.add_argument("defect", choices=defects, type=str.upper)
    _add_laser_flags(p)
    p.add_argument("--emin", type=float, required=True, help="grid start in meV")
    p.add_argument("--emax", type=float, required=True, help="grid end in meV")
    p.add_argument("--step", type=float, default=0.2, help="grid spacing in meV")
    p.add_argument("--dw", type=float, default=DEFAULT_DEBYE_WALLER,
                   help="Debye-Waller fraction")
    p.add_argument("--out", required=True, help="output file")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("angular-scan", help="generate angular-scan sample data")
    p.add_argument("--amplitude", "-A", type=float, required=True)
    p.add_argument("--modulation", "-B", type=float, required=True)
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--stop", type=float, default=165.0)
    p.add_argument("--step", type=float, default=15.0)
    p.add_argument("--noise", type=float, default=0.0, help="Gaussian noise sigma")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_angular_scan)

    p = sub.add_parser("fit-angle", help="fit I(phi) = A (1 + B cos 2 phi) to a file")
    p.add_argument("input", help="two-column (phi_deg, intensity) file")
    p.add_argument("--scan-plane", choices=[s.value for s in ScanPlane],
                   default=ScanPlane.TOWARD_C.value)
    p.add_argument("--axial-threshold", type=float, default=DEFAULT_AXIAL_B_THRESHOLD)
    add_format(p)
    p.set_defaults(func=cmd_fit_angle)

    p = sub.add_parser("catalog", help="query or export the ZPL catalog")
    p.add_argument("polytype", nargs="?", choices=polytypes)
    p.add_argument("defect", nargs="?", type=str.upper, choices=defects)
    p.add_argument("--geometry", choices=[g.value for g in Geometry])
    p.add_argument("--verify-units", action="store_true",
                   help="report per-line nm/meV residuals")
    p.add_argument("--air-index", type=float, default=DEFAULT_AIR_INDEX)
    p.add_argument("--export", help="write the slice as a catalog file")
    add_format(p)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("debye-waller", help="measure the DW factor of a spectrum file")
    p.add_argument("input")
    p.add_argument("--zpl-window", type=float, nargs=2, required=True,
                   metavar=("LO", "HI"))
    p.add_argument("--band-window", type=float, nargs=2, required=True,
                   metavar=("LO", "HI"))
    add_format(p)
    p.set_defaults(func=cmd_debye_waller)

    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result, text = args.func(args)
    except (GroupError, CatalogError, SpectrumError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # Subcommands without --format always return None.
    if result is not None and args.format == "json":
        text = json.dumps(result, indent=2) + "\n"
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
