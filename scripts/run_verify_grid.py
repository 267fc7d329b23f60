#!/usr/bin/env python3
"""Run the invariant suite over a (rank, ell) grid with per-cell timing and
the process's peak RSS (ru_maxrss, in MiB) after each cell.

Usage:
    python scripts/run_verify_grid.py                 # default desk-scale grid
    python scripts/run_verify_grid.py 2,9 3,13 4,17   # explicit cells

Exit codes as for the CLI: 0 every check passes, 1 a check fails, 2 a
malformed or inadmissible cell, 3 an internal error.  A reader that closes
stdout ends the output and keeps the code.
"""
import resource
import sys
import time

from bcfusion.cli import _print, parse_cell, run_checked
from bcfusion.verify import DEFAULT_GRID, format_results, run_suite


def main(argv) -> int:
    cells = [parse_cell(arg) for arg in argv] or list(DEFAULT_GRID)
    failures = skipped = 0
    for (k, ell) in cells:
        start = time.perf_counter()
        results = run_suite(k, ell)
        elapsed = time.perf_counter() - start
        _print(format_results(k, ell, results), sys.stdout)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        _print(f"  ({elapsed:.1f}s, peak RSS {peak:.0f} MiB)", sys.stdout)
        failures += sum(not r.ok for r in results)
        skipped += sum(r.skipped for r in results)
    _print(f"grid done: {len(cells)} cells, {failures} failing checks, {skipped} skipped",
           sys.stdout)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run_checked(main, sys.argv[1:]))
