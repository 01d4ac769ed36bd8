"""awb benchmark: one workload, one seed, one run.

Run from the repository root:

    python3 benchmarks/run.py --workload query --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it sets up, runs the workload's closed loop for
``--seconds`` seconds and reports the end-to-end metrics, every time in
them scaled to a reference host speed (see ``hostspeed``). With
``--trace 1`` it does a fixed amount of the workload's work with every
call recorded as a span and reports the per-layer metrics instead; the
spans are written to ``benchmarks/out/``. Either way every answer is then
checked against the brute-force oracles. A table with each metric's unit
and sample count goes to standard output, and the last line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("verify", "query", "transform")
SETUP_REPEATS = 3


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(s, setup_s: float, peak_mb: float, attempted: int, failed: int, dump_states):
    """Every end-to-end metric as (name, value, unit, sample count), from
    the call times ``s[kind]`` in seconds."""
    from workloads import CHUNK_TRIALS

    def ms(kind, q=None):
        """Mean call time of a kind, or its nearest-rank ``q`` percentile, in ms."""
        if not s[kind]:
            return 0.0
        return (statistics.fmean(s[kind]) if q is None else percentile(s[kind], q)) * 1e3

    trial_time = sum(s["trials"])
    dump_time = sum(s["dump"])
    return [
        ("setup_s", setup_s, "s", SETUP_REPEATS),
        (
            "trials_per_s",
            CHUNK_TRIALS * len(s["trials"]) / trial_time if trial_time else 0.0,
            "1/s",
            len(s["trials"]),
        ),
        ("hms_cold_a8_ms_mean", ms("hms_a8"), "ms", len(s["hms_a8"])),
        ("hms_cold_a10_ms_mean", ms("hms_a10"), "ms", len(s["hms_a10"])),
        ("ail_ms_mean", ms("ail"), "ms", len(s["ail"])),
        ("ail_ms_p90", ms("ail", 0.9), "ms", len(s["ail"])),
        ("hms_warm_us_mean", ms("warm") * 1e3, "us", len(s["warm"])),
        ("hms_warm_us_p90", ms("warm", 0.9) * 1e3, "us", len(s["warm"])),
        ("dump_a8_ms_mean", ms("dump"), "ms", len(s["dump"])),
        ("states_per_s", sum(dump_states) / dump_time if dump_time else 0.0, "1/s", len(dump_states)),
        ("peak_rss_mb", peak_mb, "MB", 1),
        ("ok_ratio", (attempted - failed) / attempted, "ratio", attempted),
    ]


def per_layer(tracer, wall_s: float):
    """Every per-layer metric as (name, value, unit, sample count)."""
    from spans import median_us, total_ms

    selfs = tracer.self_times()
    out = []
    for name in (
        "harness.run_suite",
        "harness.trial_seed",
        "harness.gen_model",
        "harness.gen_formula",
        "harness.check_structure",
        "harness.check_eventhood",
        "harness.check_truth_preservation",
        "harness.shrink",
        "transform.hms_transform",
        "transform.dump_transform",
        "model.load_model",
        "model.validate",
        "cli.main",
    ):
        suffix = ".self_ms" if name in ("harness.run_suite", "cli.main") else ".ms"
        out.append((name + suffix, total_ms(selfs, name), "ms", len(selfs.get(name, ()))))
    out.append(("harness.shrink.calls", len(selfs.get("harness.shrink", ())), "count", 1))
    for name in ("hms.sat_hms", "hms.truth_set", "hms.extension", "model.sat_ail", "formula.parse", "formula.translate"):
        out.append((name + ".us", median_us(selfs, name), "us", len(selfs.get(name, ()))))
    for name in (
        "harness.skipped",
        "harness.prop_fallbacks",
        "harness.body_fallbacks",
        "transform.spaces_built",
        "transform.states_built",
        "transform.dump_bytes",
        "hms.extension.states",
    ):
        unit = "bytes" if name.endswith("_bytes") else "count"
        out.append((name, tracer.counts.get(name, 0), unit, 1))
    roots = tracer.root_time()
    self_sum = sum(sum(v) for v in selfs.values())
    out.append(("trace.wall_ms", wall_s * 1e3, "ms", 1))
    out.append(("trace.self_sum_ms", self_sum * 1e3, "ms", len(tracer.spans)))
    out.append(("trace.overhead_ms", (wall_s - roots) * 1e3, "ms", 1))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "awb" / "__init__.py").is_file():
        print(f"error: program sources not found under {src}", file=sys.stderr)
        return 2

    speed = HostSpeed()
    if not args.trace:
        speed.start()
    try:
        return measure(args, src, speed)
    finally:
        speed.stop()


def measure(args, src: Path, speed: HostSpeed) -> int:
    def timed(fn, *a):
        """``fn(*a)`` and its (start, end, seconds) without probe time."""
        stolen = speed.stolen
        start = time.perf_counter()
        result = fn(*a)
        end = time.perf_counter()
        return result, (start, end, end - start - (speed.stolen - stolen))

    def load():
        sys.path.insert(0, str(src))
        import workloads

        return workloads

    workloads, imported = timed(load)
    from spans import Tracer

    repeats = SETUP_REPEATS if not args.trace else 1
    setups = []
    for _ in range(repeats):
        warm, sample = timed(workloads.setup_warm, args.seed)
        setups.append(sample)
    # Set-up objects stay alive all run. A CLI process has no such heap, so
    # keep the collector from scanning it during every timed call.
    gc.freeze()

    # A terminated run still removes its work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = tempfile.mkdtemp(prefix=".awb-bench-", dir=ROOT)
    try:
        tracer = Tracer() if args.trace else None
        runner = workloads.Runner(args.seed, workdir, warm, tracer, speed)
        t0 = time.perf_counter()
        if args.trace:
            runner.run_fixed(args.workload)
        else:
            runner.run_window(args.workload, args.seconds)
        wall_s = time.perf_counter() - t0
        speed.stop()
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted, problems, dump_states = runner.judge()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in problems:
        print(f"FAIL {line}")
    if args.trace:
        rows = per_layer(tracer, wall_s)
        out_dir = ROOT / "benchmarks" / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(str(out_dir / f"spans-{args.workload}-{args.seed}.json"))
    else:
        # Every time is scaled to the reference host speed (``hostspeed``);
        # the times as measured are printed beside them.
        rows, raw = (
            end_to_end(
                {kind: [f(x) for x in samples] for kind, samples in runner.samples.items()},
                f(imported) + statistics.median([f(x) for x in setups]),
                peak_mb, attempted, len(problems), dump_states,
            )
            for f in (speed.scaled, lambda x: x[2])
        )
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, wall {wall_s:.2f} s")
    if speed.times:
        probe_us = statistics.median(speed.times) * 1e6
        print(f"host speed: {len(speed.times)} probes, median {probe_us:.1f} us")
    for k, (name, value, unit, n) in enumerate(rows):
        measured = f"  measured {raw[k][1]:.4f}" if not args.trace else ""
        print(f"  {name:38s} {value:14.4f} {unit:6s} n={n}{measured}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
