#!/usr/bin/env python3
"""graphperiod benchmark: time to a certified interval, time to re-verify it,
and per-stage counts from a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in perfbench/workloads.json: the frozen graphs they
analyze (perfbench/graphs/) and every Config field; Config.seed is the --seed
argument unless the workload pins it too.  One operation is analyze() on one
parsed graph plus verify_certificate() on every certificate of its report.
An operation fails on any exception, on a certificate that does not
re-verify, or on an interval wider than the reference in
perfbench/graphs/reference.json.

--trace 0 repeats passes over the workload's graphs while one more pass, as
long as the last, still ends within --seconds (at least one pass), and
reports medians over passes.  analyze_s, verify_s and setup_s are CPU
seconds (user plus system, of this process and of any child process it
waited for), not wall-clock: on a virtual machine that accounts steal time
they leave out the time the host ran other guests, which made wall-clock
medians of the same code drift by a third from run to run.  The wall-clock
seconds are printed next to them.  --trace 1 ignores --seconds: it runs one
untraced analyze pass and two traced passes, checks that tracing changed no
report, that every wrapped name was restored and that the counts repeat
exactly, and reports the per-layer metrics of the first traced pass.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The library is imported from src/ next to
this directory; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
from types import SimpleNamespace

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
GRAPH_DIR = os.path.join(HERE, "graphs")
REFERENCE_PATH = os.path.join(GRAPH_DIR, "reference.json")
WORKLOADS_PATH = os.path.join(HERE, "workloads.json")
SETUP_REPEATS = 21


def cpu_clock() -> float:
    """CPU seconds used so far by this process, all its threads and the
    child processes it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def load_workloads() -> dict:
    with open(WORKLOADS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def import_library() -> SimpleNamespace:
    """Import graphperiod from this checkout's src/ and nowhere else."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    multigraph = importlib.import_module("graphperiod.multigraph")
    if not os.path.abspath(multigraph.__file__).startswith(SRC + os.sep):
        raise ImportError(f"graphperiod was imported from {multigraph.__file__}, not {SRC}")
    return SimpleNamespace(
        parse_graph=multigraph.parse_graph,
        bounds=importlib.import_module("graphperiod.bounds"),
        Config=importlib.import_module("graphperiod.config").Config,
    )


def make_config(lib, pinned: dict, seed: int):
    """The workload's pinned Config; the seed is the workload seed unless
    the workload pins it too."""
    unpinned = {f.name for f in dataclasses.fields(lib.Config)} - set(pinned) - {"seed"}
    if unpinned:
        print(f"note: Config fields not pinned by the workload: {sorted(unpinned)}")
    if "seed" in pinned:
        print(f"note: the workload pins Config.seed = {pinned['seed']}; --seed {seed} is not used")
    return lib.Config(**{"seed": seed, **pinned})


def report_sha256(report) -> str:
    """sha256 of the report exactly as `graphperiod analyze --json` prints it."""
    text = json.dumps(report.to_json_dict(), indent=2) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def setup(names: list[str]):
    """Import the library and read and parse every input, SETUP_REPEATS
    times, each from a fresh import; returns the library of the last
    repeat, the input texts, and the set-up CPU seconds and the parse
    wall-clock seconds per repeat."""
    before = set(sys.modules)
    setup_s, parse_s = [], []
    for _ in range(SETUP_REPEATS):
        for mod in set(sys.modules) - before:
            del sys.modules[mod]
        start = cpu_clock()
        lib = import_library()
        texts, parsing = {}, 0.0
        for name in names:
            with open(os.path.join(GRAPH_DIR, f"{name}.json"), encoding="utf-8") as fh:
                texts[name] = fh.read()
            t0 = time.perf_counter()
            lib.parse_graph(texts[name])
            parsing += time.perf_counter() - t0
        setup_s.append(cpu_clock() - start)
        parse_s.append(parsing)
    return lib, texts, setup_s, parse_s


def wider(reference: dict, report) -> str | None:
    """Why the report's interval is wider than the reference, or None.
    Wider: the reference lower bound does not divide the new one, or the
    new upper bound (0 = none) does not divide the reference upper bound."""
    for key, interval in (("period", report.period), ("index", report.index)):
        ref_lower, ref_upper = reference[key]
        upper_ok = ref_upper % interval.upper == 0 if interval.upper else ref_upper == 0
        if interval.lower % ref_lower or not upper_ok:
            return (
                f"{key} interval {interval.lower}..{interval.upper} is wider than "
                f"the reference {ref_lower}..{ref_upper}"
            )
    return None


@dataclasses.dataclass
class Pass:
    analyze_s: float = 0.0
    verify_s: float = 0.0
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    hashes: dict = dataclasses.field(default_factory=dict)
    intervals: dict = dataclasses.field(default_factory=dict)
    problems: list = dataclasses.field(default_factory=list)


def run_pass(lib, texts: dict, cfg, intervals: dict, verify: bool = True, tracer=None) -> Pass:
    """One operation per graph.  Each graph is parsed again, untimed, so
    every pass starts from a graph object with no cached properties."""
    out = Pass()
    for name, text in texts.items():
        out.attempted += 1
        try:
            g = lib.parse_graph(text)
            if tracer:
                tracer.phase = "analyze"
            w0, t0 = time.perf_counter(), cpu_clock()
            report = lib.bounds.analyze(g, cfg)
            t1 = cpu_clock()
            if tracer:
                tracer.phase = "verify"
            rejected = [
                c.rule for c in (report.certificates if verify else ())
                if not lib.bounds.verify_certificate(g, c, cfg)
            ]
            t2, w2 = cpu_clock(), time.perf_counter()
        except Exception as exc:  # any exception fails the operation, not the run
            out.failed += 1
            out.problems.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        out.analyze_s += t1 - t0
        out.verify_s += t2 - t1
        out.wall_s += w2 - w0
        out.hashes[name] = report_sha256(report)
        out.intervals[name] = (report.period, report.index)
        problem = wider(intervals[name], report)
        if rejected:
            problem = f"certificates that do not re-verify: {rejected}"
        if problem:
            out.failed += 1
            out.problems.append(f"{name}: {problem}")
    return out


def spread(values: list[float]) -> str:
    """The median's sample count and spread, as printed next to a metric."""
    if len(values) < 2:
        return f"n={len(values)}, spread not measured"
    median = statistics.median(values)
    if len(values) >= 4:
        low, _, high = statistics.quantiles(values, n=4)
        label = "quartiles"
    else:
        low, high, label = min(values), max(values), "range"
    share = (high - low) / median if median else 0.0
    return f"n={len(values)}, {label} {low:.6g}..{high:.6g} ({share:.1%} of median)"


def print_reports(first: Pass, seed: int, reference_hashes: dict):
    for name, digest in first.hashes.items():
        period, index = first.intervals[name]
        line = (
            f"{name}: period {period.lower}..{period.upper} index {index.lower}..{index.upper}"
            f"  report sha256 (seed {seed}) {digest}"
        )
        if seed == 0:
            same = digest == reference_hashes.get(name)
            line += "  = seed-0 reference" if same else "  differs from seed-0 reference"
        print(line)


def run_timed(lib, texts, cfg, intervals, seconds: float):
    passes = []
    start = last = time.perf_counter()
    while True:
        passes.append(run_pass(lib, texts, cfg, intervals))
        now = time.perf_counter()
        if (now - start) + (now - last) > seconds:
            return passes
        last = now


def run_traced(lib, texts, cfg, intervals):
    """One untraced analyze pass and two traced passes; returns the passes,
    the first trace's spans and whether the self-checks held."""
    untraced = run_pass(lib, texts, cfg, intervals, verify=False)
    traces, ok = [], True
    for _ in range(2):
        tracer = tracing.Tracer()
        replaced, missing = tracing.install(tracer)
        try:
            traced = run_pass(lib, texts, cfg, intervals, tracer=tracer)
        finally:
            still_wrapped = tracing.uninstall(replaced)
        traces.append((traced, tracer.spans))
        if missing:
            print(f"note: not traced, not found in the library: {missing}")
        if still_wrapped:
            print(f"check failed: names not restored after tracing: {still_wrapped}")
            ok = False
    (first, spans), (second, spans2) = traces
    if not untraced.hashes == first.hashes == second.hashes:
        print("check failed: traced and untraced reports differ")
        ok = False
    counts, counts2 = tracing.counts(spans), tracing.counts(spans2)
    if counts != counts2:
        diff = sorted(k for k in counts.keys() | counts2.keys() if counts.get(k) != counts2.get(k))
        print(f"check failed: counts differ between two traced runs: {diff}")
        ok = False
    for label, traced in (("first", first), ("second", second)):
        print(
            f"tracing overhead ({label} traced pass): analyze "
            f"{traced.analyze_s - untraced.analyze_s:+.4f} s over untraced {untraced.analyze_s:.4f} s"
        )
    print(f"{'phase':<8} {'span':<36} {'calls':>8} {'incl_s':>10} {'self_s':>10} {'value_sum':>12}")
    for (phase, name), row in sorted(tracing.table(spans).items()):
        print(
            f"{phase:<8} {name:<36} {row.calls:>8} {row.total_s:>10.4f} "
            f"{row.self_s:>10.4f} {row.value_sum:>12}"
        )
    return [untraced, first, second], spans, ok


def end_to_end_metrics(passes: list[Pass], setup_s: list[float]) -> dict:
    """Medians over passes (set-up: over repeats), printed with their spread;
    the timings are CPU seconds."""
    timings = {
        "analyze_s": [p.analyze_s for p in passes],
        "verify_s": [p.verify_s for p in passes],
        "setup_s": setup_s,
    }
    metrics = {}
    for name, values in timings.items():
        metrics[name] = {"value": statistics.median(values), "unit": "s"}
        print(f"{name:<12} {metrics[name]['value']:.6f} s  ({spread(values)})")
    wall = [p.wall_s for p in passes]
    print(f"wall-clock analyze+verify per pass {statistics.median(wall):.6f} s  ({spread(wall)})")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "unit": "MB",
    }
    metrics["ok_ops_frac"] = {"value": (attempted - failed) / attempted, "unit": "fraction"}
    print(f"peak_rss_mb  {metrics['peak_rss_mb']['value']:.3f} MB  (one reading per run)")
    print(f"ok_ops_frac  {metrics['ok_ops_frac']['value']:.6f}  ({attempted - failed} of {attempted} operations)")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = load_workloads()
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; choices: {sorted(workloads)}", file=sys.stderr)
        return 2
    spec = workloads[args.workload]
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        reference = json.load(fh)
    try:
        lib, texts, setup_s, parse_s = setup(spec["graphs"])
    except ImportError as exc:
        print(f"cannot import graphperiod from {SRC}: {exc}", file=sys.stderr)
        return 2
    cfg = make_config(lib, spec["config"], args.seed)
    intervals = reference["intervals"]
    print(f"workload {args.workload}: {len(texts)} graph(s), seed {args.seed}, {cfg}")

    if args.trace:
        passes, spans, correct = run_traced(lib, texts, cfg, intervals)
        layer = tracing.layer_metrics(spans)
        layer["multigraph.parse_s"] = statistics.median(parse_s)
        metrics = {name: {"value": value, "unit": tracing.unit(name)} for name, value in layer.items()}
    else:
        passes = run_timed(lib, texts, cfg, intervals, args.seconds)
        correct = True
        metrics = end_to_end_metrics(passes, setup_s)
    print_reports(passes[0], cfg.seed, reference["report_sha256_seed0"].get(args.workload, {}))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for problem in p.problems:
            print(f"failed: {problem}")
    result = {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
