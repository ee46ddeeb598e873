#!/usr/bin/env python3
"""Run the acceptance suite and write checks.json; exit 0 iff all pass.

--quick skips the finest-grid 2-D sweeps (criteria that pin h = 1/256).
The summary line gives the wall time and the process's peak resident set."""

import argparse
import resource
import sys
import time

from spikelab import harness, verify


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--out", default="out/acceptance")
    args = ap.parse_args()

    t0 = time.time()
    records = verify.acceptance_records(full=not args.quick)
    harness.emit_reports(records, args.out)
    failed = 0
    for r in records:
        state = "PASS" if r.passed else "FAIL"
        failed += not r.passed
        print(f"[{state}] {r.identifier}: {r.description}")
        if not r.passed and r.notes:
            print(f"       note: {r.notes}")
    # ru_maxrss is in KiB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"\n{len(records) - failed}/{len(records)} checks passed in "
          f"{time.time() - t0:.0f}s, peak RSS {peak_mb:.0f} MB; records in {args.out}/checks.json")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
