#!/usr/bin/env python3
"""Write the benchmark's frozen inputs: one graph-JSON file per input graph,
taken from the library's builtin catalog, and graphs/reference.json with the
reference interval of every graph and the seed-0 report hash of every
workload.

The files were written once and are committed; the benchmark reads only
them, so later edits to the catalog do not change a workload.  Rerunning
this script overwrites them with whatever the library computes now.

Usage (from the repository root):  python3 perfbench/freeze.py
"""

from __future__ import annotations

import json
import os

from run import GRAPH_DIR, REFERENCE_PATH, import_library, load_workloads, make_config, report_sha256


def main() -> int:
    lib = import_library()
    from graphperiod.catalog import EXPECTED, builtin

    workloads = load_workloads()
    intervals: dict[str, dict] = {}
    hashes: dict[str, dict] = {}
    for wname, spec in workloads.items():
        cfg = make_config(lib, spec["config"], seed=0)
        hashes[wname] = {}
        for name in spec["graphs"]:
            text = builtin(name).to_json() + "\n"
            with open(os.path.join(GRAPH_DIR, f"{name}.json"), "w", encoding="utf-8") as fh:
                fh.write(text)
            report = lib.bounds.analyze(lib.parse_graph(text), cfg)
            found = {
                "period": [report.period.lower, report.period.upper],
                "index": [report.index.lower, report.index.upper],
            }
            _, per, ind = EXPECTED[name]
            if found != {"period": list(per), "index": list(ind)}:
                raise SystemExit(f"{name}: {found} differs from the catalog's expectation")
            if intervals.setdefault(name, found) != found:
                raise SystemExit(f"{name}: interval depends on the workload's caps")
            hashes[wname][name] = report_sha256(report)
            print(wname, name, found, hashes[wname][name])
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"intervals": intervals, "report_sha256_seed0": hashes}, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
