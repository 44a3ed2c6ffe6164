"""One graph, four exchange mechanisms, and the solver for each class.

The same underlying graph is played under optional grabbing, always
grabbing, grab-or-give and k-grabbing.  Each tractable class has its own
polynomial solver; the explicit configuration-graph solver covers the rest
and double-checks everything.
"""

from pawngames import (
    AllConfigurations,
    Configuration,
    Mechanism,
    PawnGame,
    minimum_grabs,
    solve_explicit,
    solve_grab_or_give,
    solve_kgrab_dfs,
)

NAMES = ("hub", "left", "right", "goal", "trap")
EDGES = {
    ("hub", "left"), ("hub", "right"),
    ("left", "goal"), ("left", "trap"),
    ("right", "hub"), ("right", "goal"),
    ("goal", "goal"), ("trap", "trap"),
}


def build(mechanism, owners):
    index = {name: v for v, name in enumerate(NAMES)}
    return PawnGame(
        n=len(NAMES),
        edges=frozenset((index[a], index[b]) for a, b in EDGES),
        targets=frozenset({index["goal"]}),
        d=max(max(o) for o in owners) + 1,
        owners=tuple(frozenset(o) for o in owners),
        mechanism=mechanism,
        names=NAMES,
    )


ovpp = [(0,), (1,), (2,), (3,), (4,)]

# Under grab-or-give the winner only depends on who moves first: the
# non-mover freely decides who controls each vertex the token reaches.
gog = build(Mechanism.grab_or_give(), ovpp)
for pawns in (frozenset(), frozenset({0})):
    winner = solve_grab_or_give(gog, Configuration(0, pawns))
    print("grab-or-give from hub, player 1 holds", sorted(pawns), "->", winner)

# Under k-grabbing only Player 1 ever gains pawns, at most k times.  The
# minimum-grab labels answer every budget at once.
kgrab = build(Mechanism.k_grabbing(3), ovpp)
labels = minimum_grabs(kgrab, frozenset())
for v, name in enumerate(NAMES):
    print(f"grabs needed from {name}: {labels[v]}")

# kgrab-dfs, the exact route for k-grabbing games of any ownership kind,
# solves the same game; its certificate is a play against a delaying
# adversary.
result = solve_kgrab_dfs(kgrab, Configuration(0, frozenset(), 2))
print("kgrab-dfs winner with 2 grabs from hub:", result.winner)
print("certified play:", result.witness())

# Always grabbing removes the option of declining an exchange.  Here the
# explicit solver is the tool of choice; its bit-parallel sweep grades all
# configurations at once, which makes claims like "dropping pawns never
# hurts, as long as you keep the one you stand on" cheap to check.
always = build(Mechanism.always(), [(0,), (0,), (1,), (2,), (2,)])
oracle = AllConfigurations(always)
print("\nalways-grabbing winners from hub, by pawn set:")
for mask in range(2 ** always.d):
    pawns = frozenset(j for j in range(always.d) if mask >> j & 1)
    print(f"   {sorted(pawns)!s:12} -> {oracle.winner(0, pawns)}")

print("reference solver on one configuration:",
      solve_explicit(always, Configuration(0, frozenset({1}))).winner)
