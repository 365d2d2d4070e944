import random
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from wcfold.approx import approx_fold
from wcfold.matching import maximum_bipartite_matching
from wcfold.model import Chain, Folding, contact_graph, score

from conftest import boustrophedon


def reference_matching(edges):
    """Kuhn's algorithm on a dict of partners and a fresh visited set per
    root, in the same order as maximum_bipartite_matching (sorted odd
    nodes, sorted adjacency), so both return the same edge set."""
    adj = defaultdict(list)
    for i, j in edges:
        odd, even = (i, j) if i % 2 else (j, i)
        adj[odd].append(even)
    for nbrs in adj.values():
        nbrs.sort()

    match = {}  # both directions

    def try_augment(u, visited):
        for v in adj[u]:
            if v in visited:
                continue
            visited.add(v)
            w = match.get(v)
            if w is None or try_augment(w, visited):
                match[v] = u
                match[u] = v
                return True
        return False

    for u in sorted(adj):
        if u not in match:
            try_augment(u, set())

    return {(min(u, v), max(u, v)) for u, v in match.items() if u < v}


def _random_walk(length, rng):
    """A self-avoiding walk of `length` cells that starts off the origin."""
    start = (rng.randint(-40, 40), rng.randint(-40, 40))
    while True:
        points, seen = [start], {start}
        for _ in range(length - 1):
            x, y = points[-1]
            free = [p for p in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))
                    if p not in seen]
            if not free:
                break
            points.append(rng.choice(free))
            seen.add(points[-1])
        if len(points) == length:
            return tuple(points)


def test_matches_reference_on_random_walks():
    rng = random.Random(3)
    for _ in range(400):
        length = rng.randint(1, 60)
        chain = Chain("".join(rng.choice("GCAUX") for _ in range(length)))
        edges = contact_graph(chain, Folding(_random_walk(length, rng)))
        assert maximum_bipartite_matching(edges) == reference_matching(edges), chain.seq


def test_matches_reference_on_approx_foldings():
    rng = random.Random(5)
    for _ in range(4):
        chain = Chain("".join(rng.choice("GC") for _ in range(1000)))
        folding, achieved = approx_fold(chain)
        edges = contact_graph(chain, folding)
        matched = maximum_bipartite_matching(edges)
        assert matched == reference_matching(edges)
        assert len(matched) == achieved


@given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15))
                .filter(lambda e: (e[0] + e[1]) % 2), max_size=40))
@settings(max_examples=200, deadline=None)
def test_matches_reference_with_label_zero(edges):
    edges.append((0, 1))
    assert maximum_bipartite_matching(edges) == reference_matching(edges)


def test_deep_augmenting_paths_do_not_recurse():
    # 9000 bases on a strip four cells high: the augmenting paths run past
    # Python's default recursion limit.
    chain, folding = boustrophedon(9000, 4)
    size, witness = score(chain, folding)
    assert size == 4499
    assert witness.edges <= set(contact_graph(chain, folding))
    assert len({i for edge in witness.edges for i in edge}) == 2 * size


def test_empty_graph():
    assert maximum_bipartite_matching([]) == set()


@pytest.mark.parametrize("edges", [[(-1, 2)], [(1, -2)], [(0, 1), (3, -4)]],
                         ids=["odd", "even", "later-edge"])
def test_negative_label_raises(edges):
    with pytest.raises(ValueError, match="negative"):
        maximum_bipartite_matching(edges)
