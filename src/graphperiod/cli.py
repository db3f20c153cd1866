"""Command-line front end.

    graphperiod analyze (PATH | --builtin NAME) [--json] [caps...]
    graphperiod oracle [--seed N]
    graphperiod examples list
    graphperiod examples emit NAME PATH

The cap flags and --seed are generated from the Config fields that carry
CLI help; analyze takes all of them, oracle only --seed.

Exit codes: 0 report produced / all oracles pass, 1 input error (including
an invalid cap value), 2 the analysis raised an exception other than an
AssertionError (for example MemoryError), 3 oracle mismatch, 4 an internal
check failed: a SoundnessError or any other AssertionError (a bug in
graphperiod, never a result).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import oracle
from .bounds import BoundsReport, analyze
from .catalog import EXPECTED, builtin
from .config import Config
from .multigraph import GraphError, parse_graph

_FLAG_FIELDS = tuple(f for f in dataclasses.fields(Config) if "help" in f.metadata)


def _add_cap_flags(p: argparse.ArgumentParser, names: tuple[str, ...] | None = None):
    """--<field> flags for the Config fields with CLI help, or only those named."""
    for f in _FLAG_FIELDS:
        if names is None or f.name in names:
            p.add_argument("--" + f.name.replace("_", "-"), type=int, default=f.default,
                           help=f"{f.metadata['help']} (default {f.default})")


def _config(args) -> Config:
    return Config(**{f.name: getattr(args, f.name) for f in _FLAG_FIELDS})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphperiod",
        description="Period and index bounds, with certificates, for the "
        "Brauer class of the totally degenerate stable curve with a given "
        "dual graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="analyze a graph JSON file or a builtin")
    p_an.add_argument("path", nargs="?", help="graph JSON file")
    p_an.add_argument("--builtin", metavar="NAME", help="analyze a builtin graph")
    p_an.add_argument("--json", action="store_true", help="emit the report as JSON")
    _add_cap_flags(p_an)

    p_or = sub.add_parser("oracle", help="run the cross-check suites")
    _add_cap_flags(p_or, ("seed",))

    p_ex = sub.add_parser("examples", help="list builtins or emit one as JSON")
    ex_sub = p_ex.add_subparsers(dest="examples_command", required=True)
    ex_sub.add_parser("list", help="list builtin graphs with expected verdicts")
    p_emit = ex_sub.add_parser("emit", help="write a builtin graph as JSON")
    p_emit.add_argument("name")
    p_emit.add_argument("out_path")
    return parser


def render_text(report: BoundsReport) -> str:
    doc = report.to_json_dict()
    lines = [
        f"graph: {doc['graph']}",
        f"genus: {doc['genus']}",
        f"|Aut|: {doc['aut_order']}",
    ]
    for key in ("period", "index"):
        d = doc[key]
        state = "resolved" if d["resolved"] else "interval"
        lines.append(f"{key}: lower {d['lower']}  upper {d['upper']}  [{state}]")
    lines.append(f"certificates ({len(doc['certificates'])}):")
    for c in doc["certificates"]:
        lines.append(
            f"  {c['rule']:<20} {c['target']:<6} {c['direction']:<5} divides {c['divisor']}"
        )
    if doc["status"]:
        lines.append("status:")
        lines.extend(f"  {s}" for s in doc["status"])
    return "\n".join(lines)


def cmd_analyze(args) -> int:
    if bool(args.path) == bool(args.builtin):
        print("analyze needs exactly one of PATH or --builtin", file=sys.stderr)
        return 1
    try:
        config = _config(args)
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    try:
        if args.builtin:
            graph = builtin(args.builtin)
        else:
            try:
                with open(args.path, encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                print(f"cannot read {args.path}: {exc}", file=sys.stderr)
                return 1
            graph = parse_graph(text)
    except GraphError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    try:
        report = analyze(graph, config)
    except AssertionError as exc:  # SoundnessError included
        print(f"internal check failed, this is a bug in graphperiod: {exc}",
              file=sys.stderr)
        return 4
    except Exception as exc:  # resource exhaustion
        print(f"analysis failed: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        print(render_text(report))
    return 0


def cmd_oracle(args) -> int:
    seed = args.seed
    all_ok = True
    for name, fn in oracle.SUITES.items():
        failures = fn(seed)
        if failures:
            all_ok = False
            print(f"FAIL {name}: {len(failures)} mismatch(es)")
            for f in failures[:5]:
                print(f"  counterexample: {f}")
        else:
            print(f"PASS {name}")
    return 0 if all_ok else 3


def cmd_examples(args) -> int:
    if args.examples_command == "list":
        families: list[tuple[str, str]] = [
            (
                "doubled-cycle-g3..doubled-cycle-g8",
                "genus g, period = index = g-1, resolved",
            )
        ]
        for name in ("k5", "doubled-k4", "hybrid", "k34", "soccer-doubled"):
            gen, per, ind = EXPECTED[name]
            per_s = str(per[0]) if per[0] == per[1] else f"{per[0]}..{per[1]}"
            ind_s = str(ind[0]) if ind[0] == ind[1] else f"{ind[0]}..{ind[1]}"
            state = "resolved" if per[0] == per[1] and ind[0] == ind[1] else "interval"
            families.append(
                (name, f"genus {gen}, period {per_s}, index {ind_s}, {state}")
            )
        for name, info in families:
            print(f"{name:<36} {info}")
        return 0
    try:
        graph = builtin(args.name)
    except GraphError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    try:
        with open(args.out_path, "w", encoding="utf-8") as fh:
            fh.write(graph.to_json())
            fh.write("\n")
    except OSError as exc:
        print(f"cannot write {args.out_path}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {graph.name} to {args.out_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "analyze":
        return cmd_analyze(args)
    if args.command == "oracle":
        return cmd_oracle(args)
    return cmd_examples(args)


if __name__ == "__main__":
    sys.exit(main())
