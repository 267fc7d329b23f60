"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 benchmark/job.py WORKLOAD SEED TRACE SPAWNED

SPAWNED is the parent's time.monotonic() just before it started this
process; CLOCK_MONOTONIC is shared by all processes, so the set-up time
(interpreter start, ``import bcfusion`` and building the inputs) is measured
across the process boundary.  The job imports bcfusion from the checkout's
``src/`` and nowhere else.  The last line of standard output is one JSON
object; checks on the outputs run after the timed region.  An untraced job
runs under a SpeedProbe from ``import bcfusion`` to its verdict, which
measures how fast the host ran it.
"""
from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import itertools
import json
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import spec

SRC = Path(__file__).resolve().parent.parent / "src"


def import_bcfusion():
    sys.path.insert(0, str(SRC))
    import bcfusion

    if Path(bcfusion.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"bcfusion was imported from {bcfusion.__file__}, not {SRC}")
    from bcfusion import cli, fusion, qchar, rootdata, unitarity, verify  # noqa: F401
    return bcfusion


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def expected() -> dict:
    return json.loads((Path(__file__).parent / "expected.json").read_text())


def is_skipped(result) -> bool:
    """A check that did not run, which its detail says."""
    detail = result.detail.lower()
    return detail.startswith(("skipped", "not applicable")) or detail.endswith("not applicable")


def rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * (1.0 + max(abs(a), abs(b)))


class VerifyCell:
    """run_suite followed by format_results: what `bcfusion verify --rank 4 --ell 15` does."""

    def __init__(self, bcf, seed: int):
        self.bcf, self.seed = bcf, seed
        self.k, self.ell = spec.VERIFY_CELL

    def run(self):
        verify = self.bcf.verify
        results = verify.run_suite(self.k, self.ell, self.seed)
        return results, verify.format_results(self.k, self.ell, results)

    def check(self, output):
        results, report = output
        names = tuple(r.name for r in results)
        ran = [r for r in results if not is_skipped(r)]
        failed = sum(not r.ok for r in ran)
        problems = []
        if names != spec.VERIFY_CHECKS:
            problems.append(f"check names differ: {names}")
        if failed:
            problems.append("failing checks: " + ", ".join(r.name for r in ran if not r.ok))
        if not report.startswith(f"verify B_{self.k} at ell={self.ell}: "):
            problems.append("format_results produced no report header")
        return {"attempted": len(ran), "failed": failed, "problems": problems,
                "base": "non-skipped checks", "skipped": len(results) - len(ran)}


class FuseQueries:
    """A seeded stream of uniformly random label pairs, one cold fuse() each.

    fuse() does its work on the smaller of the two labels (by Weyl
    dimension), and that cost is heavy-tailed, so a plain i.i.d. stream of
    100 pairs moves by about 11% from seed to seed.  The stream is therefore
    stratified on the smaller label: query k draws it from the k-th of
    FUSE_QUERIES equal-probability slices of its distribution, then the
    larger label and the order, so every query is still a uniformly random
    ordered pair while the seed-to-seed spread falls to about 4%.
    """

    def __init__(self, bcf, seed: int):
        self.bcf, self.seed = bcf, seed
        k, ell = spec.FUSE_CELL
        datum = bcf.rootdata.make_root_datum("B", k)
        self.params = bcf.fusion.AlcoveParams(datum, ell)
        labels = sorted(bcf.fusion.alcove_enumerate(self.params),
                        key=lambda w: (datum.weyl_dim(w), w.doubled))
        n, count = len(labels), spec.FUSE_QUERIES
        # P(the smaller of two uniform labels is labels[i]) = (2(n-i) - 1) / n^2
        cdf = list(itertools.accumulate((2 * (n - i) - 1) / n**2 for i in range(n)))
        rng = random.Random(seed)
        self.pairs = []
        for stratum in rng.sample(range(count), count):
            i = min(bisect.bisect_right(cdf, (stratum + rng.random()) / count), n - 1)
            # given the smaller, the larger is itself w.p. 1/(2m-1), else uniform above
            j = i + int(rng.random() * (2 * (n - i) - 1) + 1) // 2
            a, b = labels[i], labels[j]
            self.pairs.append((b, a) if rng.random() < 0.5 else (a, b))

    def run(self):
        fuse, clock = self.bcf.fusion.fuse, time.perf_counter
        rows, latencies = [], []
        for a, b in self.pairs:
            t = clock()
            try:
                rows.append(fuse(self.params, a, b))
            except Exception as exc:  # a failed query is counted, not fatal
                rows.append(exc)
            latencies.append(clock() - t)
        return rows, latencies

    def check(self, output):
        rows, latencies = output
        dims = self.bcf.qchar.positive_character(self.params)
        failed, canon = 0, []
        for (a, b), row in zip(self.pairs, rows):
            if isinstance(row, Exception):
                failed += 1
                canon.append([a.doubled, b.doubled, repr(row)])
                continue
            rhs = sum(c * dims[nu] for nu, c in row.items())
            failed += not rel_close(dims[a] * dims[b], rhs, self.bcf.verify.REL_TOL)
            canon.append([a.doubled, b.doubled, sorted([nu.doubled, c] for nu, c in row.items())])
        problems = []
        if failed:
            problems.append(f"{failed} queries broke Dim(a)Dim(b) = sum N Dim(nu)")
        recorded = expected()["fuse-queries-b4-l21"]
        got = digest(canon)
        if str(self.seed) in recorded and recorded[str(self.seed)] != got:
            problems.append(f"result digest {got} differs from the recorded one for seed {self.seed}")
        lat = sorted(latencies)
        info = {"queries": len(lat), "queries_per_s": len(lat) / sum(lat),
                "query_p50_ms": 1e3 * lat[len(lat) // 2],
                "query_p90_ms": 1e3 * lat[int(0.90 * len(lat))],
                "query_p95_ms": 1e3 * lat[int(0.95 * len(lat))], "digest": got}
        return {"attempted": len(rows), "failed": failed, "problems": problems,
                "base": "queries", "info": info}


class UnitarityGrid:
    """`bcfusion unitarity --max-ell 37 --format json`, through the CLI's main()."""

    def __init__(self, bcf, seed: int):
        self.bcf = bcf
        self.argv = ["unitarity", "--max-ell", str(spec.GRID_MAX_ELL), "--format", "json"]

    def run(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = self.bcf.cli.main(self.argv)
        return status, buf.getvalue()

    def check(self, output):
        status, text = output
        cells = json.loads(text)
        conclusive = [c for c in cells if c["conclusive"]]
        failed = sum(not (c["all_distinct"] and c["all_witnessed"]) for c in conclusive)
        exact = [[c["k"], c["ell"], c["conclusive"],
                  [[r["z"], r["strict"], r["distinct"], r["witness"]] for r in c["per_z"]]]
                 for c in cells]
        got = digest(exact)
        problems = []
        if status != 0:
            problems.append(f"exit status {status}")
        if failed:
            problems.append(f"{failed} conclusive cells did not pass")
        if got != expected()["unitarity-grid-l37"]:
            problems.append(f"exact-field digest {got} differs from the recorded one")
        info = {"cells": len(cells), "z_rows": sum(len(c["per_z"]) for c in cells), "digest": got}
        if (info["cells"], info["z_rows"]) != (spec.GRID_CELLS, spec.GRID_Z_ROWS):
            problems.append(f"expected {spec.GRID_CELLS} cells and {spec.GRID_Z_ROWS} z-rows")
        return {"attempted": len(conclusive), "failed": failed, "problems": problems,
                "base": "conclusive cells", "info": info}


WORKLOADS = {
    "verify-b4-l15": VerifyCell,
    "fuse-queries-b4-l21": FuseQueries,
    "unitarity-grid-l37": UnitarityGrid,
}


class SpeedProbe:
    """How fast the host runs Python while the job runs.

    The host's speed moves by a fifth or more over seconds to minutes, so a
    job's wall time says as much about the host as about bcfusion.  Every
    PROBE_INTERVAL_S of wall time, SIGALRM stops the job between two
    bytecodes and the handler times PROBE_LOOP rounds of the small-tuple and
    dict work bcfusion spends its time in.  The mean sample, taken over the
    whole set-up and job, is the host's speed during exactly that time.  The
    samples' own time is taken out of the set-up and wall times.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        t = time.perf_counter()
        acc: dict[tuple[int, ...], int] = {}
        for i in range(spec.PROBE_LOOP):
            key = tuple(sorted(abs(x) for x in (i % 13 - 6, i % 7 - 3, i % 5 - 2, i % 3 - 1)))
            acc[key] = acc.get(key, 0) + 1
        self.samples.append(time.perf_counter() - t)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, spec.PROBE_INTERVAL_S, spec.PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def main(argv: list[str]) -> int:
    name, seed, trace, spawned = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    probe = SpeedProbe()
    with contextlib.nullcontext() if trace else probe:
        bcf = import_bcfusion()
        recorder = None
        if trace:
            from tracer import Recorder

            recorder = Recorder()
            recorder.install()
        workload = WORKLOADS[name](bcf, seed)
        setup_end = time.monotonic()
        in_setup = len(probe.samples)
        t0 = time.perf_counter()
        output = workload.run()
        wall = time.perf_counter() - t0
    out = {"peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if recorder is not None:
        recorder.uninstall()
        out.update(setup_s=setup_end - spawned, wall_s=wall)
    else:
        samples = probe.samples
        out.update(setup_s=setup_end - spawned - sum(samples[:in_setup]),
                   wall_s=wall - sum(samples[in_setup:]),
                   probe_s=statistics.mean(samples), probe_samples=len(samples))
    out.update(workload.check(output))
    if recorder is not None:
        out["per_layer"] = recorder.per_layer()
        out["per_layer"]["verify.checks_skipped"] = out.get("skipped", 0)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
