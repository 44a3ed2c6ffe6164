"""Reachability games on graphs with dynamically grabbed vertex control.

The package models pawn games (graphs whose vertex control transfers
between two players through grabbing mechanisms), provides the explicit
configuration-graph reference solver, three polynomial-time solvers for the
tractable classes, the exact route for k-grabbing games of any ownership
kind, Lock & Key games with their gadget compilation into grabbing games,
and generators that embed SET-COVER, TQBF and alternating-machine
acceptance into these games, each paired with a brute-force oracle.
"""

from .errors import (
    BudgetExceededError,
    GameFormatError,
    PawnGameError,
    SolverPreconditionError,
    ValidationError,
)
from .gamefile import parse_game, serialize_game
from .grab_or_give import reduce_grab_or_give, solve_grab_or_give
from .kgrab_dfs import solve_kgrab_dfs
from .kgrab_ovpp import minimum_grabs, solve_kgrab_ovpp
from .lockkey import (
    LockConfig,
    LockKeyGame,
    expand_lockkey,
    lockkey_to_optional,
    parse_lockkey,
    serialize_lockkey,
    solve_lockkey,
    split_labels,
    tb_to_optional,
    to_always_grabbing,
)
from .model import (
    Configuration,
    GrabRule,
    Mechanism,
    OwnershipKind,
    PawnGame,
    classify,
    mover,
)
from .optional_grabbing import solve_ovpp_optional
from .oracle import (
    AllConfigurations,
    expand_game,
    solve_exact,
    solve_explicit,
    witness_play,
)
from .turnbased import (
    SolveResult,
    TurnBasedGame,
    attract,
    solve_turnbased,
)

__all__ = [
    "AllConfigurations",
    "BudgetExceededError",
    "Configuration",
    "GameFormatError",
    "GrabRule",
    "LockConfig",
    "LockKeyGame",
    "Mechanism",
    "OwnershipKind",
    "PawnGame",
    "PawnGameError",
    "SolveResult",
    "SolverPreconditionError",
    "TurnBasedGame",
    "ValidationError",
    "attract",
    "classify",
    "expand_game",
    "expand_lockkey",
    "lockkey_to_optional",
    "minimum_grabs",
    "mover",
    "parse_game",
    "parse_lockkey",
    "reduce_grab_or_give",
    "serialize_game",
    "serialize_lockkey",
    "solve_exact",
    "solve_explicit",
    "solve_grab_or_give",
    "solve_kgrab_dfs",
    "solve_kgrab_ovpp",
    "solve_lockkey",
    "solve_ovpp_optional",
    "solve_turnbased",
    "split_labels",
    "tb_to_optional",
    "to_always_grabbing",
    "witness_play",
]
