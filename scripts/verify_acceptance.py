#!/usr/bin/env python3
"""Run the acceptance suite and write checks.json; exit 0 iff all pass.

--quick skips the finest-grid 2-D sweeps (criteria that pin h = 1/256).
This is ``spikelab verify``: it prints a PASS/FAIL line per record, the
notes of each failing one, and a summary line with the wall time and the
process's peak resident set."""

import argparse
import sys

from spikelab import cli


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--out", default="out/acceptance")
    args = ap.parse_args()
    return cli.main(["verify", "--out", args.out] + ["--quick"] * args.quick)


if __name__ == "__main__":
    sys.exit(main())
