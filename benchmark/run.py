"""bcfusion benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 benchmark/run.py --workload verify-b4-l15 --seed 1 --seconds 40 --trace 0

Every timed repetition runs in a fresh interpreter (benchmark/job.py), one
at a time: bcfusion users pay the cold lru_caches on every invocation, so an
in-process repeat would time a warm program.  The loop is closed, with a
single caller and no threads of its own.

--trace 0 repeats the job while the next repetition still fits in --seconds
(at least MIN_REPS times) and reports medians over the repetitions:
norm_wall_s and setup_s, the job's wall and set-up times scaled to a fixed
host speed by job.SpeedProbe, and peak_rss_mib.  The raw times are printed
next to them.  --trace 1 runs the job once under the
span recorder and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is nonzero, with no result
line, if a job cannot run at all (for example when src/ is missing).
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT = 175.0  # seconds; a run must end within 180


class JobError(RuntimeError):
    pass


def run_job(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    """Start one fresh interpreter for the job, wait for it, return its JSON line."""
    spawned = time.monotonic()
    argv = [sys.executable, str(HERE / "job.py"), workload, str(seed), "1" if trace else "0",
            repr(spawned)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise JobError(f"{workload} job exceeded the {TIME_LIMIT:.0f} s limit") from None
    if proc.returncode != 0:
        raise JobError(f"{workload} job exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: int, deadline: float) -> tuple[list[dict], dict, dict]:
    """Timed interpreters until the next one would end after `seconds`."""
    units = {name: unit for name, unit, _, _ in spec.END_TO_END}
    reps = []
    start = time.monotonic()
    while True:
        reps.append(run_job(workload, seed, False, deadline))
        elapsed = time.monotonic() - start
        if len(reps) >= spec.MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    def scaled(key: str) -> float:
        return statistics.median(r[key] * spec.PROBE_NOMINAL_S / r["probe_s"] for r in reps)

    metrics = {
        "norm_wall_s": scaled("wall_s"),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in reps),
        "setup_s": scaled("setup_s"),
    }
    print(f"{workload} seed={seed}: {len(reps)} timed interpreters, {time.monotonic() - start:.1f} s")
    for key in ("wall_s", "probe_s", "probe_samples", "setup_s"):
        print(f"  {key} per interpreter: " + " ".join(f"{r[key]:.4g}" for r in reps))
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    timing = {f"raw_{key}": statistics.median(r[key] for r in reps)
              for key in ("wall_s", "setup_s", "probe_s")}
    return reps, {name: {"value": metrics[name], "unit": units[name]} for name in units}, timing


def trace(workload: str, seed: int, deadline: float) -> tuple[list[dict], dict, dict]:
    traced = run_job(workload, seed, True, deadline)
    layers = traced["per_layer"]
    units = {name: unit for name, unit, _ in spec.per_layer()}
    print(f"{workload} seed={seed}: traced wall_s {traced['wall_s']:.6g} s")
    for name in units:
        print(f"  {name} = {layers[name]:.6g} {units[name]}")
    return ([traced], {name: {"value": layers[name], "unit": unit} for name, unit in units.items()},
            {"raw_wall_s": traced["wall_s"]})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bcfusion").is_dir():
        print(f"error: no bcfusion sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT
    try:
        if args.trace:
            reps, metrics, timing = trace(args.workload, args.seed, deadline)
        else:
            reps, metrics, timing = measure(args.workload, args.seed, args.seconds, deadline)
    except JobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    problems = [p for r in reps for p in r["problems"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    details = {**timing, **reps[-1].get("info", {}), "fail_ratio": failed / attempted,
               "fail_ratio_base": f"{attempted} {reps[0]['base']} in {len(reps)} job(s)"}
    for key, value in details.items():
        print(f"  {key} = {value}")
    print("details: " + json.dumps(details))
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
