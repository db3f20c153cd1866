"""graphperiod: period and index bounds, with machine-checkable
certificates, for the Brauer obstruction class attached to the dual graph
of a totally degenerate stable curve."""

from .bounds import BoundsReport, analyze, period_lower_loop_summand, verify_certificate
from .catalog import BUILTIN_NAMES, builtin
from .cohomology import (
    class_order_bar,
    class_order_cyclic,
    class_order_exact,
    class_order_presented,
)
from .config import Config
from .homology import fundamental_cycle_basis
from .multigraph import Multigraph, genus, parse_graph, serialize

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "BUILTIN_NAMES",
    "Config",
    "Multigraph",
    "analyze",
    "builtin",
    "class_order_bar",
    "class_order_cyclic",
    "class_order_exact",
    "class_order_presented",
    "fundamental_cycle_basis",
    "genus",
    "parse_graph",
    "period_lower_loop_summand",
    "serialize",
    "verify_certificate",
]
