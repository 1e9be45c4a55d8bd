#!/usr/bin/env python3
"""The sicpl benchmark.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Workloads are ``symmetry-mix``, ``spectrum-sweep`` and ``cli-sessions``
(see bench/README.md).  Each is a closed loop with one client: the next op
starts when the previous one ends, and every output is checked against an
independent oracle outside the op's clock.  The loop runs until the ops
have been busy for S seconds and at least 100 ops have finished.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
ops twice, S/2 seconds each, first untraced and then with spans around
every call into sicpl.  It adds the spans of three layer probes
(``layer_probe.py``) and prints the per-layer metrics and the tracing
overhead.  ``--tiny`` shrinks inputs and rep counts for the smoke test.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with the environment and the measured input shares, goes to
``.bench_out/``, and a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_OPS = 100         # so that at least ten latencies lie beyond p90
SETUP_REPS = 15       # fresh interpreters per set-up measurement
ENV_REPS = 5          # fresh interpreters per reference cold-start time
LAYER_PROBES = 3      # traced layer probes per traced run (layer_probe.py)
DEADLINE_S = 130.0    # stop measuring past this, so a run always ends in time

# (name, unit, better) of each end-to-end metric, printed with --trace 0
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
SUBCOMMANDS = ("product", "selection", "catalog", "excite", "spectrum", "debye-waller",
               "angular-scan", "fit-angle")
# per-layer metrics, printed with --trace 1; a layer the workload does not run reads 0
PER_LAYER = (
    ("exact.ops", "count/op", "lower"),
    ("exact.self_ms", "ms/op", "lower"),
    ("groups.load_table.ms", "ms", "lower"),
    ("groups.verify_table.ms", "ms", "lower"),
    ("groups.builtin_group.cold_ms", "ms", "lower"),
    ("groups.tensor_product.ms", "ms", "lower"),
    ("groups.decompose.ms", "ms", "lower"),
    ("groups.decompose.calls", "count/op", "lower"),
    ("groups.self_ms", "ms/op", "lower"),
    ("selection.selection_table.ms", "ms", "lower"),
    ("selection.verdict.ms", "ms", "lower"),
    ("selection.verdict.calls", "count/op", "lower"),
    ("selection.kramers_verdict.ms", "ms", "lower"),
    ("selection.decompose_per_verdict", "ratio", "lower"),
    ("selection.self_ms", "ms/op", "lower"),
    ("catalog.parse_catalog.ms", "ms", "lower"),
    ("catalog.lines_for.ms", "ms", "lower"),
    ("catalog.builtin_catalog.cold_ms", "ms", "lower"),
    ("catalog.self_ms", "ms/op", "lower"),
    ("spectrum.excited_lines.ms", "ms", "lower"),
    ("spectrum.synthesize_spectrum.ms", "ms", "lower"),
    ("spectrum.synthesize_spectrum.ns_per_point_component", "ns", "lower"),
    ("spectrum.synthesize_spectrum.bytes_computed", "B/op", "lower"),
    ("spectrum.debye_waller.ms", "ms", "lower"),
    ("spectrum.angular_scan.ns_per_sample", "ns", "lower"),
    ("spectrum.fit_angular.ms", "ms", "lower"),
    ("spectrum.self_ms", "ms/op", "lower"),
    ("fileio.write_spectrum.ms", "ms", "lower"),
    ("fileio.read_spectrum.ms", "ms", "lower"),
    ("fileio.write_angular_samples.ms", "ms", "lower"),
    ("fileio.read_angular_samples.ms", "ms", "lower"),
    ("fileio.bytes_written", "B/op", "lower"),
    ("fileio.bytes_read", "B/op", "lower"),
    ("fileio.self_ms", "ms/op", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.command_ms", "ms", "lower"),
    *((f"cli.{sub}.wall_ms", "ms", "lower") for sub in SUBCOMMANDS),
    ("cli.self_ms", "ms/op", "lower"),
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.traced_ops_per_s", "1/s", "higher"),
    ("trace.overhead_pct", "%", "lower"),
)


@dataclass
class Phase:
    """What one closed-loop pass measured."""

    block: int = 1
    ops: int = 0
    failed: int = 0
    busy_ns: int = 0
    latencies_ns: list = field(default_factory=list)
    kinds: list = field(default_factory=list)
    tags: Counter = field(default_factory=Counter)
    errors: list = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        """Block size over the median busy time of the full blocks of ops.

        Every block holds the workload's fixed mix, so the median discards
        blocks slowed by a passing stall of the machine.
        """
        blocks = [sum(self.latencies_ns[i:i + self.block])
                  for i in range(0, self.ops - self.block + 1, self.block)]
        if not blocks:
            return self.ops / (self.busy_ns / 1e9)
        return self.block / (statistics.median(blocks) / 1e9)

    def mean_ms(self, kind: str) -> float:
        values = [t for t, k in zip(self.latencies_ns, self.kinds) if k == kind]
        return statistics.fmean(values) / 1e6 if values else 0.0


def measure(workload, seed: int, seconds: float, min_ops: int, tiny: bool, deadline: float,
            tracer=None, side=None, side_count: int = 0) -> Phase:
    """Run ops until busy for ``seconds`` and ``min_ops`` are done.

    ``side`` is called between ops at ``side_count`` evenly spaced points of
    the busy time, outside every op's clock.
    """
    phase = Phase(block=workload.block)
    side_every = seconds * 1e9 / max(1, side_count)
    next_side = side_every / 2 if side else float("inf")
    ops = workload.ops(seed, tiny)
    clock = time.perf_counter_ns
    while (phase.busy_ns < seconds * 1e9 or phase.ops < min_ops) and time.monotonic() < deadline:
        op = next(ops)
        if tracer:
            tracer.begin_op(op.kind)
        error = result = None
        start = clock()
        try:
            result = workload.execute(op, tracer)
        except Exception as exc:  # an exception the oracle did not predict is a failed op
            error = f"{op.kind}: {type(exc).__name__}: {exc}"
        elapsed = clock() - start
        if tracer:
            tracer.end_op()
            workload.collect(op, tracer)
        if error is None:
            try:
                workload.check(op, result)
            except Exception as exc:  # any exception while checking means a bad output
                error = f"{op.kind}: {type(exc).__name__}: {exc}"
        phase.ops += 1
        phase.busy_ns += elapsed
        phase.latencies_ns.append(elapsed)
        phase.kinds.append(op.kind)
        phase.tags.update((f"op:{op.kind}", *op.tags))
        if error is not None:
            phase.failed += 1
            phase.errors.append(error)
        op = result = None  # frees this op's arrays before the next op is drawn
        if phase.busy_ns >= next_side:
            side()
            next_side += side_every
    return phase


def wall(cmd: list[str], env: dict, cwd: Path) -> float:
    """Wall time in seconds of one fresh process."""
    start = time.perf_counter()
    subprocess.run(cmd, env=env, cwd=cwd, stdout=subprocess.DEVNULL, check=True, timeout=60)
    return time.perf_counter() - start


def wall_median(cmd: list[str], reps: int, env: dict, cwd: Path) -> float:
    return statistics.median(wall(cmd, env, cwd) for _ in range(reps))


def environment(root: Path, env: dict, reps: int) -> dict:
    import numpy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    py = sys.executable
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
        # reference cold starts, ungated: they show machine noise in cold starts
        "cold_python_pass_ms": 1e3 * wall_median([py, "-c", "pass"], reps, env, root),
        "cold_import_numpy_ms": 1e3 * wall_median([py, "-c", "import numpy"], reps, env, root),
    }


def shares(phase: Phase) -> dict:
    """Share of the ops that carry each tag, e.g. op:spectrum or points:1e5."""
    return {tag: round(count / phase.ops, 4) for tag, count in sorted(phase.tags.items())}


def end_to_end(phase: Phase, setup_s: float, peak_rss_kb: int) -> dict:
    deciles = statistics.quantiles(phase.latencies_ns, n=10)
    return {
        "setup_s": setup_s,
        "ops_per_s": phase.ops_per_s,
        "op_p50_ms": statistics.median(phase.latencies_ns) / 1e6,
        "op_p90_ms": deciles[8] / 1e6,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def per_layer(stats, untraced: Phase, traced: Phase, window: int, extra: dict,
              cli: bool) -> dict:
    per_op = 1.0 / max(1, min(window, traced.ops))

    def self_ms(module):
        return stats.module_self_ns[module] / traced.ops / 1e6

    def cold_ms(name):
        values = stats.cold_ns[name]
        return statistics.fmean(values) / 1e6 if values else 0.0

    def ns_per(name):
        return stats.ns[name] / stats.amount[name] if stats.amount[name] else 0.0

    def mean_ms(key):
        return statistics.fmean(extra[key]) / 1e6 if extra.get(key) else 0.0

    verdicts = ("selection.direct_verdict", "selection.phonon_assisted_verdict")
    verdict_calls = sum(stats.calls[n] for n in verdicts)
    metrics = {
        "exact.ops": per_op * sum(v for k, v in stats.window_amount.items() if k.startswith("op.")),
        "exact.self_ms": self_ms("exact"),
        "groups.load_table.ms": stats.mean_ms("groups.load_table"),
        "groups.verify_table.ms": stats.mean_ms("groups.verify_table"),
        "groups.builtin_group.cold_ms": cold_ms("groups.builtin_group"),
        "groups.tensor_product.ms": stats.mean_ms("groups.tensor_product"),
        "groups.decompose.ms": stats.mean_ms("groups.decompose"),
        "groups.decompose.calls": per_op * stats.window_calls["groups.decompose"],
        "groups.self_ms": self_ms("groups"),
        "selection.selection_table.ms": stats.mean_ms("selection.selection_table"),
        "selection.verdict.ms": stats.mean_ms(*verdicts),
        "selection.verdict.calls": per_op * sum(stats.window_calls[n] for n in verdicts),
        "selection.kramers_verdict.ms": stats.mean_ms("selection.kramers_verdict"),
        "selection.decompose_per_verdict":
            stats.verdict_decomposes / verdict_calls if verdict_calls else 0.0,
        "selection.self_ms": self_ms("selection"),
        "catalog.parse_catalog.ms": stats.mean_ms("catalog.parse_catalog"),
        "catalog.lines_for.ms": stats.mean_ms("catalog.lines_for"),
        "catalog.builtin_catalog.cold_ms": cold_ms("catalog.builtin_catalog"),
        "catalog.self_ms": self_ms("catalog"),
        "spectrum.excited_lines.ms": stats.mean_ms("spectrum.excited_lines"),
        "spectrum.synthesize_spectrum.ms": stats.mean_ms("spectrum.synthesize_spectrum"),
        "spectrum.synthesize_spectrum.ns_per_point_component":
            ns_per("spectrum.synthesize_spectrum"),
        # computed from array sizes: one float64 per grid point per Gaussian component
        "spectrum.synthesize_spectrum.bytes_computed":
            8.0 * per_op * stats.window_amount["spectrum.synthesize_spectrum"],
        "spectrum.debye_waller.ms": stats.mean_ms("spectrum.debye_waller"),
        "spectrum.angular_scan.ns_per_sample": ns_per("spectrum.angular_scan"),
        "spectrum.fit_angular.ms": stats.mean_ms("spectrum.fit_angular"),
        "spectrum.self_ms": self_ms("spectrum"),
        "fileio.write_spectrum.ms": stats.mean_ms("fileio.write_spectrum"),
        "fileio.read_spectrum.ms": stats.mean_ms("fileio.read_spectrum"),
        "fileio.write_angular_samples.ms": stats.mean_ms("fileio.write_angular_samples"),
        "fileio.read_angular_samples.ms": stats.mean_ms("fileio.read_angular_samples"),
        "fileio.bytes_written": per_op * (stats.window_amount["fileio.write_spectrum"]
                                          + stats.window_amount["fileio.write_angular_samples"]),
        "fileio.bytes_read": per_op * (stats.window_amount["fileio.read_spectrum"]
                                       + stats.window_amount["fileio.read_angular_samples"]),
        "fileio.self_ms": self_ms("fileio"),
        "cli.import_ms": mean_ms("import_ns"),
        "cli.command_ms": mean_ms("command_ns"),
        "cli.self_ms": self_ms("cli"),
        "trace.untraced_ops_per_s": untraced.ops_per_s,
        "trace.traced_ops_per_s": traced.ops_per_s,
        "trace.overhead_pct": 100.0 * (untraced.ops_per_s / traced.ops_per_s - 1.0),
    }
    for sub in SUBCOMMANDS:  # cold processes of the untraced half, else the probes' main()
        metrics[f"cli.{sub}.wall_ms"] = untraced.mean_ms(sub) if cli else mean_ms(f"wall_ns:{sub}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["symmetry-mix", "spectrum-sweep", "cli-sessions"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + DEADLINE_S

    root = Path.cwd()
    src = root / "src"
    if not (src / "sicpl" / "__init__.py").is_file():
        print(f"error: no sicpl sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = dict(os.environ, PYTHONPATH=str(src))
    import sicpl
    if Path(sicpl.__file__).resolve().parent != (src / "sicpl").resolve():
        print(f"error: imported sicpl from {sicpl.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads
    from tracer import SpanStats, Tracer

    out = root / ".bench_out"
    out.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=out))
    workload = workloads.make(args.workload, src, workdir, HERE / "cli_shim.py")
    in_process = args.workload != "cli-sessions"
    setup_reps, env_reps, layer_probes = (1, 1, 1) if args.tiny else (SETUP_REPS, ENV_REPS,
                                                                      LAYER_PROBES)
    min_ops, traced_ops, warmup = ((workload.block,) * 2 + (1,) if args.tiny
                                   else (MIN_OPS, workload.count_window, workload.warmup))
    try:
        if in_process:
            # caches filled and lazy set-up done before the clock starts
            for name in sicpl.groups.BUILTIN_GROUPS:
                sicpl.builtin_group(name)
            sicpl.builtin_catalog()
        measure(workload, args.seed + 7919, 0.0, warmup, args.tiny, deadline)
        if args.trace:
            untraced = measure(workload, args.seed, args.seconds / 2, traced_ops,
                               args.tiny, deadline)
            tracer = Tracer()
            for i in range(layer_probes):
                spans = workdir / f"probe-{i}.json"
                subprocess.run([sys.executable, str(HERE / "layer_probe.py"), str(spans),
                                str(workdir)], env=env, cwd=root, check=True, timeout=60)
                tracer.merge_child(str(spans), in_op=False)
            if in_process:
                tracer.install()
            try:
                traced = measure(workload, args.seed, args.seconds / 2, traced_ops,
                                 args.tiny, deadline, tracer)
            finally:
                tracer.uninstall()
            spans_path = out / f"spans-{args.workload}-s{args.seed}.json"
            tracer.dump(str(spans_path))
            stats = SpanStats(tracer.spans, workload.count_window)
            metrics = per_layer(stats, untraced, traced, workload.count_window, tracer.extra,
                                not in_process)
            phases, table = (untraced, traced), PER_LAYER
        else:
            if in_process:
                setup_cmd = [sys.executable, str(HERE / "setup_probe.py")]
            else:
                setup_cmd = [sys.executable, "-m", "sicpl.cli", "--version"]
            setups = []

            def setup_probe():
                setups.append(wall(setup_cmd, env, root))

            # set-up probes are spread over the run, so that their median sees
            # the machine as the ops did
            phase = measure(workload, args.seed, args.seconds, min_ops, args.tiny, deadline,
                            side=setup_probe, side_count=setup_reps)
            # the only children so far are CLI processes: ops and `--version`
            who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
            peak_kb = resource.getrusage(who).ru_maxrss
            while len(setups) < setup_reps:
                setup_probe()
            metrics = end_to_end(phase, statistics.median(setups), peak_kb)
            phases, table = (phase,), END_TO_END
        env_record = environment(root, env, env_reps)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.ops for p in phases)
    failed = sum(p.failed for p in phases)
    main_phase = phases[-1]
    for error in [e for p in phases for e in p.errors][:10]:
        print(f"failed op: {error}", file=sys.stderr)
    units = {name: unit for name, unit, _ in table}
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "ops": [p.ops for p in phases], "failed_ratio": failed / attempted,
        "latency_samples": len(main_phase.latencies_ns),
        "wall_s": time.monotonic() - started,
        "shares": shares(main_phase), "environment": env_record,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    (out / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(result, indent=2))

    print(f"# {args.workload} seed {args.seed} trace {args.trace}: {attempted} ops attempted, "
          f"{failed} failed, failed_ratio {failed / attempted:g}")
    print(f"# latency samples: {len(main_phase.latencies_ns)} "
          f"({len(main_phase.latencies_ns) // 10} beyond p90)")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"# shares: {json.dumps(result['shares'])}")
    print(f"# environment: {json.dumps(env_record)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
