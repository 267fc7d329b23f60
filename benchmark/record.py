"""Run every workload with seeds 1-10, check steadiness and count determinism,
and write BENCHMARK.json and benchmark/baseline.json from scratch.

    python3 benchmark/record.py

Runs go one at a time, seed-major, so slow drift of the host falls on every
workload alike.  For each end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median next
to the metric's bound.  Two traced runs of the first seed must report the
same counts.  The exit code is 1 if a spread exceeds its bound or a count
does not repeat; the files are written either way, with that verdict in them.
"""
from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
DRIFT = (
    "The host's speed moves with contention from other tenants, not with the program: "
    "process CPU time tracks wall time one for one, steal time stays near 0, and a fixed "
    "pure-Python loop took 0.22-0.35 s at different times of one hour. Untraced runs of "
    "bcfusion verify at (4,17) took 36.0-44.9 s within 15 minutes once and 46-73 s over "
    "17 minutes another time. At (4,15), the median wall time of a 40 s run fell from 11.6 "
    "to 7.3 s within 15 minutes, a spread (q3 - q1) / median of 0.36 over 10 runs, and "
    "single jobs of one 9-minute series spread by 0.25-0.28. Scaled by job.SpeedProbe "
    "(norm_wall_s), the same jobs spread by 0.05. Raw set-up time moved between about 0.13 "
    "and 0.32 s, and the medians of two ten-run sets differed by up to 24%."
)


def run(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec.RUN_SECONDS), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    took = time.monotonic() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out["run_s"] = took
    out["details"] = next(json.loads(line[len("details: "):]) for line in lines
                          if line.startswith("details: "))
    if not out["correct"] or out["failed"]:
        raise SystemExit(f"{workload} seed {seed} failed its output checks:\n{proc.stdout}")
    return out


def benchmark_json() -> dict:
    return {
        "command": ["python3", "benchmark/run.py"],
        "paths": ["benchmark"],
        "run_seconds": spec.RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in spec.WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in spec.END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in spec.per_layer()],
    }


def machine() -> dict:
    import numpy

    return {
        "cpus": os.cpu_count(),
        "ram_gib": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main() -> int:
    seeds = list(SEEDS)
    runs: dict[str, list[dict]] = {w: [] for w in spec.WORKLOADS}
    for seed in seeds:
        for w in spec.WORKLOADS:
            out = run(w, seed, 0)
            runs[w].append(out)
            print(f"{w} seed={seed} run_s={out['run_s']:.1f} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in out["metrics"].items()), flush=True)

    ok = True
    workloads = {}
    for w in spec.WORKLOADS:
        e2e = {}
        for name, unit, _, bound in spec.END_TO_END:
            s = summarise([r["metrics"][name]["value"] for r in runs[w]])
            s.update(unit=unit, bound=bound, within_bound=s["spread"] <= bound)
            e2e[name] = s
            ok = ok and s["within_bound"]
            verdict = "ok" if s["spread"] < bound / 3 else "near" if s["within_bound"] else "WIDE"
            print(f"{w:22s} {name:13s} median {s['median']:.5g} {unit:4s} "
                  f"q1 {s['q1']:.5g} q3 {s['q3']:.5g} spread {s['spread']:.3f} "
                  f"(bound {bound}) {verdict}")
        traced = [run(w, seeds[0], 1) for _ in range(2)]
        a, b = (t["metrics"] for t in traced)
        differ = [n for n in spec.DETERMINISTIC if a[n]["value"] != b[n]["value"]]
        print(f"{w}: traced counts repeat exactly: {not differ} {differ or ''}")
        ok = ok and not differ
        workloads[w] = {
            "why": spec.WORKLOADS[w],
            "seeds": seeds,
            "attempted_per_run": runs[w][0]["attempted"],
            "failed": sum(r["failed"] for r in runs[w]),
            "run_s": summarise([r["run_s"] for r in runs[w]]),
            "end_to_end": e2e,
            "per_layer_seed": seeds[0],
            "details": {k: statistics.median(r["details"][k] for r in runs[w])
                        if isinstance(v, (int, float)) else v
                        for k, v in runs[w][0]["details"].items() if k != "digest"},
            "per_layer": {n: v["value"] for n, v in a.items()},
            "counts_repeat": not differ,
        }

    # which workloads each metric applies to: every one for end-to-end
    # metrics, those whose traced run saw the layer for per-layer ones
    layers = {w: workloads[w]["per_layer"] for w in workloads}
    baseline = {
        "machine": {**machine(), "drift": DRIFT},
        "steady": ok,
        "workloads": workloads,
        "metrics": {
            **{n: {"unit": u, "workloads": sorted(layers)} for n, u, _, _ in spec.END_TO_END},
            **{n: {"unit": u, "workloads": sorted(w for w in layers if layers[w].get(n))}
               for n, u, _ in spec.per_layer()},
        },
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    path = HERE / "baseline.json"
    path.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    print(f"wrote BENCHMARK.json and {path.relative_to(ROOT)}; steady: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
