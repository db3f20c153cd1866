#!/usr/bin/env python3
"""Run the full analysis on every builtin graph, re-verify every certificate
of each report against a fresh parse of the graph's JSON and against the
analyzed graph object, and print a verdict table.

Verifying against the re-parsed graph rebuilds the automorphism group, the
BFS trees and the subgraph re-analyses from the file form, so a report is
checked the way a saved one would be.  Verifying against the analyzed
object is what library callers and the benchmark do: it reuses what
analyze stored on that object (its group and BFS trees; never analyze's
subgraph reports).  Each row gives the analysis and fresh-parse
verification CPU seconds of this process (time.process_time, the clock
the benchmark reports too; verification includes the group rebuild) and
how many certificates failed to re-verify, counted over both objects.
Exits 1 if any certificate is rejected.

Usage: python scripts/analyze_builtins.py [--json] [caps...]

The cap flags and --seed are the ones `graphperiod analyze` takes, with the
same defaults.
"""

import argparse
import json
import sys
import time

from graphperiod.bounds import analyze, verify_certificate
from graphperiod.catalog import BUILTIN_NAMES, builtin
from graphperiod.cli import _add_cap_flags, _config
from graphperiod.multigraph import parse_graph


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--json", action="store_true")
    _add_cap_flags(parser)
    args = parser.parse_args()

    try:
        config = _config(args)
    except ValueError as exc:
        parser.error(str(exc))
    reports = []
    total_rejected = 0
    for name in BUILTIN_NAMES:
        g = builtin(name)
        start = time.process_time()
        report = analyze(g, config)
        analyze_s = time.process_time() - start
        start = time.process_time()
        fresh = parse_graph(g.to_json())
        rejected = sum(not verify_certificate(fresh, c, config) for c in report.certificates)
        verify_s = time.process_time() - start
        rejected += sum(not verify_certificate(g, c, config) for c in report.certificates)
        total_rejected += rejected
        reports.append(report)
        if not args.json:
            per, ind = report.period, report.index
            fmt = lambda iv: str(iv.lower) if iv.resolved else f"{iv.lower}..{iv.upper}"
            print(
                f"{name:<18} genus {report.genus:<3} |Aut| {report.aut_order:<14} "
                f"period {fmt(per):<7} index {fmt(ind):<7} "
                f"certs {len(report.certificates):<3} analyze {analyze_s:6.2f}s CPU  "
                f"verify {verify_s:5.2f}s CPU rejected {rejected}"
            )
    if args.json:
        print(json.dumps([r.to_json_dict() for r in reports], indent=2))
    if total_rejected:
        print(f"{total_rejected} certificate(s) failed to re-verify", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
