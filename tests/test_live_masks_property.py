"""Property test: the lazy expansion's live pawn masks against a per-vertex
search.

``_graph_reach_masks`` computes, for each vertex, the owners of the interior
vertices (hopeful, not targets) that a play can reach from it while it
passes through interior vertices only.  Hypothesis draws the graph, the
owners and the hopeful set; a breadth-first search from every vertex gives
the reference."""

from __future__ import annotations

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from pawngames import Mechanism, PawnGame
from pawngames.oracle import _graph_reach_masks, _owner_masks


@st.composite
def graphs_with_hopes(draw):
    n = draw(st.integers(1, 14))
    d = draw(st.integers(1, 6))
    vertices = st.integers(0, n - 1)
    edges = set()
    for v in range(n):
        for u in draw(st.sets(vertices, min_size=1, max_size=4)):
            edges.add((v, u))
    owners = tuple(
        frozenset(draw(st.sets(st.integers(0, d - 1), min_size=1, max_size=2)))
        for _ in range(n))
    game = PawnGame(n=n, edges=frozenset(edges),
                    targets=frozenset(draw(st.sets(vertices))), d=d,
                    owners=owners, mechanism=Mechanism.optional())
    return game, draw(st.sets(vertices))


def searched_masks(game, hopeful, omask):
    interior = [v in hopeful and v not in game.targets for v in range(game.n)]
    live = []
    for v in range(game.n):
        seen, queue, m = {v}, deque([v]), 0
        while queue:
            w = queue.popleft()
            if not interior[w]:
                continue
            m |= omask[w]
            for u in game.succ[w]:
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
        live.append(m)
    return live


@settings(deadline=None, max_examples=400)
@given(graphs_with_hopes())
def test_live_masks_match_a_search_through_interior_vertices(drawn):
    game, hopeful = drawn
    omask = _owner_masks(game)
    assert (_graph_reach_masks(game, hopeful, omask)
            == searched_masks(game, hopeful, omask))
