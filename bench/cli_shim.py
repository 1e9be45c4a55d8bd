"""Run one sicpl command with the benchmark's tracer installed.

Usage: python bench/cli_shim.py SPANS_FILE [sicpl arguments ...]

Imports ``sicpl.cli``, installs the wrappers, calls ``sicpl.cli.main(argv)``
and writes the spans, the import time and the time of ``main`` to SPANS_FILE.
"""

import sys
import time

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter_ns()
    import sicpl.cli
    imported = time.perf_counter_ns()
    tracer = Tracer()
    tracer.install()
    began = time.perf_counter_ns()
    try:
        code = sicpl.cli.main(argv)
    except SystemExit as exc:  # argparse exits for --version and usage errors
        code = exc.code
    tracer.extra["import_ns"].append(imported - start)
    tracer.extra["command_ns"].append(time.perf_counter_ns() - began)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
