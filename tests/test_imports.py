"""What a fresh interpreter loads for each kind of command.

The symmetry and catalog commands never compute with numpy, so they must
start without importing it; the numeric commands import it on first use.
Exact characters are plain Gaussian integers, so no command loads
``fractions`` or the ``decimal`` it pulls in.  Records are NamedTuples or
slots classes, so neither ``import sicpl.cli`` nor a numpy-free command
loads ``dataclasses`` or the ``inspect`` it pulls in.
Every sicpl module is still loaded by ``import sicpl.cli``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import sicpl

SRC = str(Path(sicpl.__file__).resolve().parents[1])
MODULES = ["exact", "groups", "selection", "catalog", "spectrum", "fileio", "cli"]

# Runs each argv through cli.main in one fresh interpreter and reports the
# loaded sicpl modules and whether each of UNWANTED was imported, as its
# last line.
PROBE = """
import json, sys
import sicpl, sicpl.cli
loaded = sorted(name for name in sys.modules if name.startswith("sicpl."))
for argv in json.loads(sys.argv[1]):
    assert sicpl.cli.main(argv) == 0, argv
print(json.dumps({"modules": loaded,
                  **{name: name in sys.modules for name in json.loads(sys.argv[2])}}))
"""
UNWANTED = ("numpy", "fractions", "decimal", "dataclasses", "inspect")

NUMPY_FREE = [
    ["product", "C3v", "E", "E", "A2"],
    ["selection", "triplet-axial"],
    ["selection", "vsi-single-group", "--format", "json"],
    ["catalog", "4H", "VV"],
    ["catalog", "--verify-units"],
    ["catalog", "6H", "VV", "--export", "slice.txt"],
    ["excite", "4H", "VV", "--laser-nm", "1090", "--phi", "90"],
]


def probe(tmp_path, *argvs):
    env = dict(os.environ, SICPL_OUTPUT_DIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argvs), json.dumps(UNWANTED)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_every_sicpl_module(tmp_path):
    loaded = probe(tmp_path)
    assert set(f"sicpl.{name}" for name in MODULES) <= set(loaded["modules"])
    assert not any(loaded[name] for name in UNWANTED)


def test_symmetry_and_catalog_commands_never_import_numpy(tmp_path):
    loaded = probe(tmp_path, *NUMPY_FREE)
    assert {name: loaded[name] for name in UNWANTED} == dict.fromkeys(UNWANTED, False)
    assert "QL1 6H VV" in (tmp_path / "slice.txt").read_text()


def test_spectrum_command_imports_numpy(tmp_path):
    spectrum = ["spectrum", "4H", "VV", "--laser-nm", "930", "--emin", "1090",
                "--emax", "1100", "--step", "0.1", "--out", "s.tsv"]
    assert probe(tmp_path, spectrum)["numpy"] is True
