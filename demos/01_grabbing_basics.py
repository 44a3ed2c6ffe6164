"""A first tour of pawn games.

A pawn game is a directed graph whose vertices are owned by pawns; whoever
controls the pawn owning the token's vertex moves the token, and after each
move control of at most one pawn changes hands.  This script builds the two
little games that motivate the model and shows their surprising behavior:
holding more pawns can lose a game that fewer pawns win.
"""

from pawngames import (
    Configuration,
    parse_game,
    solve_explicit,
    solve_ovpp_optional,
    witness_play,
)

# Game one: a chain where the mover at v1 decides between the sink and the
# target.  Every vertex is owned by its own pawn (ids in declaration order)
# and the exchange rule is optional grabbing: after your move, I may take
# one of your pawns.
G1 = """
pawngame g1
mechanism optional-grabbing
pawns 4
vertex v0 owners=0
vertex v1 owners=1
vertex s owners=2
vertex t owners=3 target
edge v0 v1
edge v1 s
edge v1 t
edge s s
edge t t
init vertex=v0 p1pawns=
"""

game, empty_handed = parse_game(G1)

# Starting with no pawns at all, Player 1 wins: Player 2 must make the
# first move into v1, which lets Player 1 grab v1 and walk to the target.
print("g1 from <v0, {}>:   winner", solve_explicit(game, empty_handed).winner)

# Starting with the pawn of v0, Player 1 must move first, the grab
# opportunity evaporates, and Player 2 steers v1 into the sink.
holding_v0 = Configuration(empty_handed.vertex, frozenset({0}))
print("g1 from <v0, {v0}>: winner", solve_explicit(game, holding_v0).winner)

# The dedicated polynomial solver for one-vertex-per-pawn optional
# grabbing agrees, and also exposes its absorption trace: each round names
# its rule and the vertices it adds to the winning region W.
result = solve_ovpp_optional(game, empty_handed)
print("absorption solver:  winner", result.winner)
absorbed = set()
for entry in result.trace:
    absorbed |= entry.added
    added = sorted(game.names[v] for v in entry.added)
    region = sorted(game.names[v] for v in absorbed)
    print(f"   {entry.rule:<17} adds {added}, W = {region}")

# Game two: winning can require revisiting a vertex, which never happens in
# ordinary turn-based reachability.
G2 = """
pawngame g2
mechanism optional-grabbing
pawns 5
vertex v0 owners=0
vertex v1 owners=1
vertex v2 owners=2
vertex v3 owners=3
vertex t owners=4 target
edge v0 v1
edge v1 v2
edge v1 t
edge v2 v3
edge v3 v1
edge t t
init vertex=v0 p1pawns=0,2
"""

game2, start2 = parse_game(G2)
outcome = solve_explicit(game2, start2)
print("\ng2 winner:", outcome.winner)
moves = [game2.names[step[1]] for step in witness_play(game2, outcome)
         if step[0] == "move"]
print("a best-play line visits:", " -> ".join(moves))
print("v1 appears", moves.count("v1"), "times before the target falls")
