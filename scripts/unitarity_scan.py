#!/usr/bin/env python3
"""Scan the unitarity audit over every conclusive (rank, ell) cell.

Prints one table per cell and a summary line; pass --json PATH to also dump
the machine-readable reports.

Usage:
    python scripts/unitarity_scan.py [--max-ell N] [--json PATH]
"""
import argparse
import json
import sys

from bcfusion.unitarity import audit_grid


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-ell", type=int, default=25)
    ap.add_argument("--json", default=None)
    args = ap.parse_args(argv)
    # the first conclusive cell, 2(2k+1) < ell at k = 2, is ell = 11
    if args.max_ell < 11:
        ap.error(f"--max-ell {args.max_ell} selects no conclusive cell; it must be >= 11")

    reports = audit_grid(max_ell=args.max_ell)
    for report in reports:
        print(report.format_table())
        print()
    if args.json:
        with open(args.json, "w") as fh:
            json.dump([r.to_json_dict() for r in reports], fh, sort_keys=True)
    certified = sum(r.passed for r in reports)
    print(f"{certified}/{len(reports)} conclusive cells certified non-unitarizable "
          f"(separation + negative even-sector witness at every admissible z)")
    return 0 if certified == len(reports) else 1


if __name__ == "__main__":
    sys.exit(main())
