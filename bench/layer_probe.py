"""One fresh interpreter that calls every traced layer, under the tracer.

Usage: python bench/layer_probe.py SPANS_FILE WORKDIR

Imports ``sicpl.cli`` cold, loads the built-in tables and catalog, calls
``kramers_verdict`` (which no subcommand reaches) and runs every sicpl
subcommand through ``sicpl.cli.main``, with its files in WORKDIR.  Every
traced run adopts these spans, so each per-layer metric is measured on
every workload; where a workload runs a layer itself, its own calls far
outnumber the probe's.
"""

import contextlib
import io
import os
import sys
import time

from tracer import Tracer


def commands(workdir: str) -> list[list[str]]:
    spec, scan = os.path.join(workdir, "probe.tsv"), os.path.join(workdir, "probe-scan.tsv")
    return [
        ["product", "C3v", "E", "E", "A2", "--format", "json"],
        ["selection", "triplet-axial", "--format", "json"],
        ["catalog", "4H", "VV", "--format", "json"],
        ["excite", "4H", "VV", "--laser-nm", "1090", "--phi", "90", "--format", "json"],
        ["spectrum", "4H", "VV", "--laser-nm", "930", "--emin", "950", "--emax", "1160",
         "--step", "0.05", "--out", spec],
        ["debye-waller", spec, "--zpl-window", "1090", "1100", "--band-window", "955", "1159"],
        ["angular-scan", "-A", "1", "-B", "0.37", "--noise", "0.01", "--seed", "7",
         "--step", "0.5", "--out", scan],
        ["fit-angle", scan, "--format", "json"],
    ]


def main() -> None:
    spans_path, workdir = sys.argv[1], sys.argv[2]
    start = time.perf_counter_ns()
    import sicpl.cli
    imported = time.perf_counter_ns()
    tracer = Tracer()
    tracer.install()
    tracer.extra["import_ns"].append(imported - start)
    from sicpl import catalog, groups, selection

    for name in groups.BUILTIN_GROUPS:
        groups.builtin_group(name)
    catalog.builtin_catalog()
    for level in selection.KramersLevel:
        selection.kramers_verdict(level, level, selection.Polarization.parallel_c())
    for argv in commands(workdir):
        began = time.perf_counter_ns()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = sicpl.cli.main(argv)
        elapsed = time.perf_counter_ns() - began
        if code != 0:
            raise SystemExit(f"layer probe: sicpl {' '.join(argv)} exited {code}")
        tracer.extra["command_ns"].append(elapsed)
        tracer.extra[f"wall_ns:{argv[0]}"].append(elapsed)
    tracer.dump(spans_path)


if __name__ == "__main__":
    main()
