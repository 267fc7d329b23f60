#!/usr/bin/env python3
"""Emit the Gamma/Psi/rank-level duality report for one or more (rank, ell) cells.

Usage:
    python scripts/duality_report.py 2,9 2,11 3,13 > reports.json

Exit codes as for the CLI: 0 every report passes, 1 one fails, 2 a
malformed or inadmissible cell, 3 an internal error.
"""
import json
import sys

from bcfusion.bmwdual import duality_passed, duality_report
from bcfusion.cli import parse_cell, run_checked


def main(argv) -> int:
    cells = [parse_cell(arg) for arg in argv] or [(2, 9), (2, 11), (3, 13)]
    reports = [duality_report(k, ell) for (k, ell) in cells]
    json.dump(reports, sys.stdout, sort_keys=True, indent=1)
    print()
    return 0 if all(duality_passed(r) for r in reports) else 1


if __name__ == "__main__":
    sys.exit(run_checked(main, sys.argv[1:]))
