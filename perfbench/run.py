"""Benchmark command: run one workload in a closed loop and print its metrics.

    python3 perfbench/run.py --workload trial-heavy --seed 2026 --seconds 30 --trace 0

One process runs rounds back to back until `--seconds` have passed; each
round has its own seed derived from `--seed`.  With `--trace 0` the last line
of standard output is the JSON result with the end-to-end metrics; with
`--trace 1` untraced and traced rounds alternate and the result carries the
per-layer metrics.  The line before the result records the machine, the
output digests and the quality figures of the first round.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer as tr
import workloads as wl
from calibrate import Calibrator

# name -> (unit, better); the bounds live in BENCHMARK.json
END_TO_END = {
    "ops_per_s": ("ops/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
SETUP_SAMPLES = 7
OUT = wl.ROOT / ".perfbench"
PROBE = Path(__file__).with_name("setup_probe.py")


def probe_setup(spec: dict) -> tuple:
    """(wall time, machine speed) of one cold set-up in a new interpreter."""
    proc = subprocess.run([sys.executable, str(PROBE)], input=json.dumps(spec),
                          capture_output=True, text=True, cwd=wl.ROOT,
                          timeout=120)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    seconds, speed = proc.stdout.split()[-2:]
    return float(seconds), float(speed)


def _quality(rnd: wl.Round) -> dict:
    """What a faster program must not change: digests and decoding quality."""
    def mean(rows):
        return statistics.fmean(rows) if rows else None

    return {"digests": rnd.digests, "block_error": mean(rnd.error_rows),
            "distortion": mean(rnd.distortion_rows)}


def _rate(rnd: wl.Round) -> float:
    """Completed ops per second of run phase: an op that raised or failed its
    check does not count, so a program that aborts early reads no faster."""
    return (rnd.ops - rnd.failed) / rnd.seconds


def untraced_run(name, seed, seconds, outdir):
    """Rounds back to back, each timing scaled to the reference machine speed
    (see calibrate.py).  The set-up probes run between the first rounds, so
    that they sample the machine at several moments of the run."""
    spec0 = wl.make_spec(name, seed, 0)
    cal = Calibrator(wl.CALIBRATION.get(name, "interpreter"),
                     spec0.get("threads", 1))
    setups, rounds, speeds = [], [], []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        if len(setups) < SETUP_SAMPLES:
            setups.append(probe_setup(spec0))
        spec = wl.make_spec(name, seed, len(rounds))
        rnd, speed = cal.around(
            lambda: wl.run_round(spec, outdir))
        rnd.records.clear()  # kept, peak memory would grow with the rounds
        rounds.append(rnd)
        speeds.append(speed)
        if len(rounds) == 1:
            # later rounds draw other codes; a rare rank-deficient draw would
            # double sw-product's score matrix and make the peak a lottery
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setups += [probe_setup(spec0) for _ in range(SETUP_SAMPLES - len(setups))]
    metrics = {
        "ops_per_s": statistics.median(
            _rate(r) / v for r, v in zip(rounds, speeds)),
        "setup_s": statistics.median(t * v for t, v in setups),
        "peak_rss_mb": peak_kb / 1024}
    raw = {"raw_ops_per_s": statistics.median(_rate(r) for r in rounds),
           "raw_setup_s": statistics.median(t for t, _ in setups),
           "machine_speed": statistics.median(speeds)}
    return metrics, rounds, [], raw


def traced_run(name, seed, seconds, outdir, admissibility):
    """Alternate untraced and traced rounds on the same seeds; the traced
    round must reproduce the untraced round's outputs exactly."""
    plain, traced, per_round, spans, problems = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        r = len(traced)
        spec = wl.make_spec(name, seed, r)
        for is_traced in ((False, True) if r % 2 == 0 else (True, False)):
            if not is_traced:
                plain.append(wl.run_round(spec, outdir))
                plain[-1].records.clear()
                continue
            with tr.Tracer() as tracer:
                traced.append(wl.run_round(spec, outdir))
            round_spans = tracer.spans()
            spans += [(r,) + s for s in round_spans]
            per_round.append(tr.round_metrics(
                tr.summarize(round_spans), traced[-1],
                spec.get("threads", 1), admissibility))
            traced[-1].records.clear()
        if _quality(plain[-1]) != _quality(traced[-1]):
            problems.append(f"round {r}: traced outputs {_quality(traced[-1])} "
                            f"differ from untraced {_quality(plain[-1])}")
    metrics = tr.combine(per_round)
    untraced_rate = statistics.median(_rate(x) for x in plain)
    traced_rate = statistics.median(_rate(x) for x in traced)
    metrics["trace.untraced_ops_per_s"] = untraced_rate
    metrics["trace.traced_ops_per_s"] = traced_rate
    metrics["trace.overhead_share"] = (1 - traced_rate / untraced_rate
                                       if untraced_rate else 0.0)
    path = OUT / f"trace-{name}-{seed}.jsonl"
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    return metrics, plain + traced, problems, {}


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Run a workload; returns (result, facts) as printed by `main`."""
    wl.load_cosetcode()
    import numpy

    admissibility = wl.admissibility(wl.make_spec(name, seed, 0))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as outdir:
        if trace:
            metrics, rounds, problems, raw = traced_run(
                name, seed, seconds, outdir, admissibility)
        else:
            metrics, rounds, problems, raw = untraced_run(
                name, seed, seconds, outdir)
    for rnd in rounds:
        problems += rnd.problems
    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    units = tr.PER_LAYER if trace else END_TO_END
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k][0]}
                          for k in units}}
    facts = {"workload": name, "seed": seed, "trace": int(trace),
             "rounds": len(rounds), "nproc": os.cpu_count(),
             "python": platform.python_version(), "numpy": numpy.__version__,
             "failed_share": failed / attempted, **_quality(rounds[0]),
             **admissibility, **raw, "problems": problems}
    return result, facts


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    result, facts = measure(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    print(json.dumps(facts))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
