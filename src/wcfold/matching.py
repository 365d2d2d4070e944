"""Maximum matching for bipartite graphs on integer nodes split by parity.

Kuhn's augmenting-path algorithm, with an explicit stack so that no path
depth can exhaust Python's recursion limit.  Node labels are chain indices;
every edge must join an odd and an even index, which is exactly the
structure contact graphs have on the square lattice.  Iteration order is
fixed (sorted nodes, sorted adjacency, first unvisited partner) so the
returned matching is deterministic.  The partner and visited marks are flat
lists indexed by label, so labels must be non-negative.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable


def maximum_bipartite_matching(edges: Iterable[tuple[int, int]]) -> set[tuple[int, int]]:
    """Return a maximum matching as a set of (min, max) index pairs."""
    adj: dict[int, list[int]] = defaultdict(list)
    for i, j in edges:
        if (i + j) % 2 == 0:
            raise ValueError(f"edge {(i, j)} does not join opposite parities")
        if i < 0 or j < 0:
            raise ValueError(f"edge {(i, j)} has a negative node label")
        odd, even = (i, j) if i % 2 else (j, i)
        adj[odd].append(even)
    for nbrs in adj.values():
        nbrs.sort()
    size = max(max(adj, default=0), max((nbrs[-1] for nbrs in adj.values()), default=0)) + 1
    match = [-1] * size  # partner of each label, both directions; -1: free
    visited = [0] * size  # visited[v] == root: v was reached from that odd root

    # Kuhn's search from each odd root, with an explicit stack in place of
    # recursion: on a long, thin folding the augmenting paths run past
    # Python's default recursion limit.  path, empty between roots, holds
    # (u, v, u's partner iterator) for each odd node u whose partner v is
    # matched to the next one, so a dead end resumes its predecessor at its
    # next partner, as a recursive call returning False would, and a free
    # partner flips every pair on the path.  An odd node is matched only on
    # a path from an earlier root, so each root starts free; roots are odd,
    # never 0, so no mark is ever cleared.
    odds = sorted(adj)
    path: list = []
    for root in odds:
        u = root
        partners = iter(adj[root])
        while True:
            for v in partners:
                if visited[v] != root:
                    visited[v] = root
                    break
            else:  # every partner of u failed
                if not path:
                    break
                u, _, partners = path.pop()
                continue
            w = match[v]
            if w >= 0:
                path.append((u, v, partners))
                u = w
                partners = iter(adj[w])
                continue
            match[u] = v
            match[v] = u
            if path:
                for u, v, _ in path:
                    match[u] = v
                    match[v] = u
                path.clear()
            break
    return {(u, v) if u < v else (v, u) for u in odds if (v := match[u]) >= 0}
