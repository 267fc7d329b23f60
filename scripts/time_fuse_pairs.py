#!/usr/bin/env python3
"""Time ``fusion.fuse_pairs`` on the label pairs ``verify`` samples at each
type B cell, one fresh interpreter per cell.

Usage:
    python scripts/time_fuse_pairs.py 4,21 5,21 7,21        # seed 0
    python scripts/time_fuse_pairs.py --seed 3 4,15

For each cell the child process enumerates the alcove, draws
``verify.sampled_pairs(labels, seed)`` and times one ``fuse_pairs`` call on
them.  It prints the call's seconds, the process's peak RSS (ru_maxrss, in
MiB), the minor page faults taken during the call (ru_minflt) and the
sha256 of the (pairs, labels) int64 array's bytes.

Exit codes as for the CLI: 0 every cell ran, 2 a malformed or inadmissible
cell, 3 an internal error (a child that failed included).
"""
import argparse
import json
import subprocess
import sys

from bcfusion.cli import _print, parse_cell, run_checked
from bcfusion.fusion import AlcoveParams
from bcfusion.rootdata import make_root_datum

CHILD = """
import hashlib, json, resource, sys, time
from bcfusion.fusion import AlcoveParams, alcove_enumerate, fuse_pairs
from bcfusion.rootdata import make_root_datum
from bcfusion.verify import sampled_pairs

k, ell, seed = map(int, sys.argv[1:])
params = AlcoveParams(make_root_datum("B", k), ell)
pairs = sampled_pairs(alcove_enumerate(params), seed)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
start = time.perf_counter()
out = fuse_pairs(params, pairs)
elapsed = time.perf_counter() - start
usage = resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps({"pairs": len(pairs), "s": elapsed, "peak_rss_mib": usage.ru_maxrss / 1024,
                  "minflt": usage.ru_minflt - faults,
                  "sha256": hashlib.sha256(out.astype("<i8").tobytes()).hexdigest()}))
"""


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cells", nargs="+", metavar="CELL", help="rank,ell of a type B cell")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    cells = [parse_cell(arg) for arg in args.cells]
    for k, ell in cells:
        AlcoveParams(make_root_datum("B", k), ell)  # an inadmissible cell fails before any run
    for k, ell in cells:
        proc = subprocess.run([sys.executable, "-c", CHILD, str(k), str(ell), str(args.seed)],
                              capture_output=True, text=True)
        if proc.returncode:
            raise RuntimeError(f"B({k},{ell}) child exited with {proc.returncode}:\n"
                               f"{proc.stderr.strip()}")
        r = json.loads(proc.stdout.splitlines()[-1])
        _print(f"B({k},{ell}) {r['pairs']} pairs: {r['s']:.3f} s, peak RSS {r['peak_rss_mib']:.1f} MiB, "
               f"{r['minflt']} minor faults, sha256 {r['sha256']}", sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(run_checked(main, sys.argv[1:]))
