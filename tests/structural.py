"""Name-keyed game equality, used only by the test suite."""

from __future__ import annotations

from pawngames.model import Configuration, PawnGame


def structurally_equal(
    a: PawnGame, ca: Configuration, b: PawnGame, cb: Configuration
) -> bool:
    """Name-keyed equality, insensitive to the order vertices were declared."""
    if (a.name, a.d, a.mechanism) != (b.name, b.d, b.mechanism):
        return False
    if set(a.names) != set(b.names):
        return False
    to_a = {name: v for v, name in enumerate(a.names)}
    to_b = {name: v for v, name in enumerate(b.names)}
    for name in a.names:
        va, vb = to_a[name], to_b[name]
        if a.owners[va] != b.owners[vb]:
            return False
        if (va in a.targets) != (vb in b.targets):
            return False
    edges_a = {(a.names[u], a.names[v]) for u, v in a.edges}
    edges_b = {(b.names[u], b.names[v]) for u, v in b.edges}
    if edges_a != edges_b:
        return False
    return (
        a.names[ca.vertex] == b.names[cb.vertex]
        and ca.p1_pawns == cb.p1_pawns
        and ca.grabs_left == cb.grabs_left
    )
