#!/usr/bin/env python3
"""Benchmark of the hostile-mdp command line.

    python3 perfbench/run.py --workload city-synth --seed 1 --seconds 15 --trace 0

Run from the repository root.  One process, one client in a closed loop: the
workload's cycle of CLI commands runs again and again, each command starting
when the previous one finished, until ``--seconds`` have passed (and at least
the workload's minimum number of cycles has run).  Every command's output is
checked.

With ``--trace 0`` the end-to-end metrics named in ``BENCHMARK.json`` are
measured with tracing off, and the reference kernel of ``reference.py`` is
timed before every operation, so that the cycle time can be given in units
of the kernel's time, which follows the host's speed.  With ``--trace 1``
each cycle runs twice, once plain and once with the span tracer of
``spans.py`` installed, and the per-layer metrics come from the traced
cycles; the spans are written to ``.bench_build/spans-<workload>.csv``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it, starting ``info:``, records
the machine, library versions, commit, per-command medians and the
operations that failed.
"""

from __future__ import annotations

import argparse
import gc
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
import tracemalloc
from pathlib import Path

from reference import reference_seconds

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"
#: fresh interpreters started per run to time the import every CLI call pays;
#: half run before the cycles and half after, so the median spans the run
SETUP_SAMPLES = 6


def median(values):
    return statistics.median(values) if values else None


def measure_setup() -> float:
    """Wall time for a fresh interpreter to import ``hostilemdp.cli``."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import hostilemdp.cli"], cwd=ROOT, env=env,
                   check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


def live_model_mb(env_path: str) -> float:
    """Bytes the built ``Mdp`` keeps alive, from tracemalloc, in MiB."""
    from hostilemdp import envmodel, mdpbuild

    env = envmodel.load_environment(env_path)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mdp = mdpbuild.build_mdp(env)
        gc.collect()
        live = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return live / 2**20


def cycle_seconds(cycle) -> float:
    return sum(op.seconds for op in cycle)


def run_cycles(workload, runner, seconds, traced=None):
    """The plain cycles' operations, and (when a tracer is given) traced cycle times."""
    plain, with_spans = [], []
    start = time.perf_counter()
    k = 0
    while k < workload.min_cycles or time.perf_counter() - start < seconds:
        plain.append(workload.cycle(k, runner))
        runner.clear()
        if traced is not None:
            with traced.installed():
                with_spans.append(cycle_seconds(workload.cycle(k, runner)))
            runner.clear()
        k += 1
    return plain, with_spans


def relative_cycle(cycles, last_reference: float) -> float:
    """The median of each step of the cycle in reference-kernel units, summed.

    Each operation's wall time is divided by the mean of the kernel times
    taken just before it and just after it (before the next operation, or
    ``last_reference`` after the last one), so a slow spell of the host
    that lengthens both cancels.
    """
    ops = [op for cycle in cycles for op in cycle]
    after = [op.reference for op in ops[1:]] + [last_reference]
    ratio = {op.index: op.seconds / ((op.reference + a) / 2) for op, a in zip(ops, after)}
    steps = len(cycles[0])
    return sum(median([ratio[cycle[j].index] for cycle in cycles]) for j in range(steps))


def command_summary(outcomes):
    by_command: dict[str, list] = {}
    for op in outcomes:
        by_command.setdefault(op.command, []).append(op)
    return {
        command: {"median_s": median([op.seconds for op in ops]), "samples": len(ops),
                  "written_mb": median([op.written / 1e6 for op in ops])}
        for command, ops in sorted(by_command.items())
    }


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def machine_info() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "commit": commit()}


def untraced(workload, runner, seconds):
    setup = [measure_setup() for _ in range(SETUP_SAMPLES // 2)]
    cycles, _ = run_cycles(workload, runner, seconds)
    last_reference = reference_seconds()
    setup += [measure_setup() for _ in range(SETUP_SAMPLES - len(setup))]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    references = [op.reference for cycle in cycles for op in cycle] + [last_reference]
    metrics = {"setup_s": median(setup), "cycle_ref": relative_cycle(cycles, last_reference),
               "peak_rss_mb": peak_mb}
    return metrics, {"cycles": len(cycles), "cycle_times_s": [cycle_seconds(c) for c in cycles],
                     "reference_s": median(references), "setup_times_s": setup}


def traced(workload, runner, seconds, declared):
    import spans
    from workloads import first_number

    tracer = spans.Tracer()
    per_op: dict[str, list[float]] = {}
    first_span = 0

    def start(op):
        nonlocal first_span
        tracer.op, first_span = op.index, len(tracer.spans)
        tracer.counted.clear()  # one operation's run values at a time

    def end(op):
        recorded = tracer.spans[first_span:]
        if not recorded:
            return  # the plain half of the cycle
        found = spans.op_metrics(recorded, tracer.counted, op.command)
        if op.command == "build":
            found["mdpbuild.dump_bytes"] = op.written
        elif op.command == "export":
            found["mdpbuild.export_bytes"] = op.written
        gap = first_number("max |diff|", op.stdout)
        if gap is not None:
            found["synth.vi_lp_gap"] = gap
        for name, value in found.items():
            per_op.setdefault(name, []).append(value)

    runner.on_start, runner.on_end = start, end
    live = live_model_mb(workload.live_env())
    cycles, with_spans = run_cycles(workload, runner, seconds, tracer)
    plain = [cycle_seconds(c) for c in cycles]
    found = {name: median(values) for name, values in per_op.items()}
    found["mdpbuild.mdp_live_mb"] = live
    found["bench.trace_overhead_s"] = median(with_spans) - median(plain)
    tracer.write(BUILD_DIR / f"spans-{workload.name}.csv")
    absent = [name for name in declared if name not in found]
    metrics = {name: found.get(name, 0.0) for name in declared}
    return metrics, {"cycles": len(plain), "absent": absent, "spans": len(tracer.spans),
                     "plain_cycle_s": median(plain), "traced_cycle_s": median(with_spans)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hostile-mdp benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "hostilemdp").is_dir() or not spec_path.is_file():
        print(f"error: {ROOT} needs the hostile-mdp sources (src/hostilemdp) "
              "and BENCHMARK.json", file=sys.stderr)
        return 1
    spec = json.loads(spec_path.read_text())
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(names)}")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import hostilemdp.cli  # noqa: F401  (every operation pays for this import)
        from workloads import WORKLOADS, Runner
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 1

    BUILD_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD_DIR))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        runner = Runner(workdir / "ops", calibrate=not args.trace)
        units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
        if args.trace:
            values, extra = traced(workload, runner, args.seconds, list(units))
        else:
            values, extra = untraced(workload, runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = runner.outcomes
    failed = [op for op in outcomes if op.failed]
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **machine_info(), **extra,
            "error_rate": len(failed) / len(outcomes),
            "commands": command_summary(outcomes),
            "failures": [{"argv": op.argv, "code": op.code, "problems": op.problems,
                          "stderr_tail": op.stderr[-400:]} for op in failed[:5]]}
    print("info: " + json.dumps(info))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
