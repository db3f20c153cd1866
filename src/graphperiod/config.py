"""Run configuration shared by the analysis pipeline and the CLI.

Every cap, budget and seed lives here, except the 10 000 draws that
permgroup.sylow_subgroup allows itself: library functions that need one
take the whole Config as a `config` parameter (defaulting to Config(),
which is frozen and so safe to share) and read the field they need.
Fields with a "help" entry in their metadata are exposed as CLI flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


def _flag(default: int, help_text: str):
    """A field the CLI exposes as --<name> with this help text."""
    return field(default=default, metadata={"help": help_text})


@dataclass(frozen=True)
class Config:
    # caps
    max_enum: int = _flag(
        10**6, "element enumeration cap of the complete cyclic scan; above it the scan "
        "is sampled")
    bar_cap: int = _flag(32, "largest Sylow subgroup order for the exact class order")
    union_cap: int = _flag(4096, "max edge-orbit unions enumerated")
    subgraph_depth: int = _flag(1, "invariant-subgraph recursion depth")
    seed: int = _flag(0, "seed for randomized scans")
    # scan budgets (documented: the certificate scan always processes at
    # least scan_quota cyclic subgroups before the early exit on a resolved
    # interval may trigger; for groups above max_enum the subgroup list is
    # sampled from word_budget random words of length <= max_word_length,
    # keeping at most max_subgroups distinct subgroups)
    scan_quota: int = 64
    word_budget: int = 1500
    max_word_length: int = 12
    max_subgroups: int = 400

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # exactly int: True, 1.0 and "1" are not caps
            if type(value) is not int:
                raise ValueError(f"{f.name} must be an int, not {type(value).__name__}")
            low = 0 if f.name == "subgraph_depth" else 1
            if f.name != "seed" and value < low:
                raise ValueError(f"{f.name} must be >= {low}")
