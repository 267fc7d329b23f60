#!/usr/bin/env python3
"""Run the invariant suite over a (rank, ell) grid with per-cell timing.

Usage:
    python scripts/run_verify_grid.py                 # default desk-scale grid
    python scripts/run_verify_grid.py 2,9 3,13 4,17   # explicit cells

Exit codes as for the CLI: 0 every check passes, 1 a check fails, 2 a
malformed or inadmissible cell, 3 an internal error.
"""
import sys
import time

from bcfusion.cli import parse_cell, run_checked
from bcfusion.verify import DEFAULT_GRID, format_results, run_suite


def main(argv) -> int:
    cells = [parse_cell(arg) for arg in argv] or list(DEFAULT_GRID)
    failures = skipped = 0
    for (k, ell) in cells:
        start = time.perf_counter()
        results = run_suite(k, ell)
        elapsed = time.perf_counter() - start
        print(format_results(k, ell, results))
        print(f"  ({elapsed:.1f}s)")
        failures += sum(not r.ok for r in results)
        skipped += sum(r.skipped for r in results)
    print(f"grid done: {len(cells)} cells, {failures} failing checks, {skipped} skipped")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run_checked(main, sys.argv[1:]))
