import itertools

import pytest
from hypothesis import given, settings, strategies as st

from wcfold.matching import maximum_bipartite_matching
from wcfold.model import (
    Chain,
    ChainParseError,
    Folding,
    FoldingValidationError,
    contact_graph,
    parse_chain,
    score,
    validate_folding,
)
from wcfold.walks import enumerate_walk_points

from conftest import brute_force_matching_size


def test_parse_basic():
    chain = parse_chain("GGGGCCCC")
    assert chain.seq == "GGGGCCCC"
    assert len(chain) == 8


def test_parse_case_folding():
    assert parse_chain("gxu").seq == "GXU"


def test_parse_rejects_bad_alphabet():
    with pytest.raises(ChainParseError) as exc:
        parse_chain("GQ")
    assert exc.value.position == 2


def test_parse_ignores_whitespace():
    assert parse_chain(" gg cc\n").seq == "GGCC"


def test_parse_empty():
    with pytest.raises(ChainParseError):
        parse_chain("   ")


def test_validate_unit_square():
    chain = parse_chain("GGCC")
    folding = validate_folding(chain, [(0, 0), (1, 0), (1, 1), (0, 1)])
    assert len(folding) == 4


def test_validate_self_intersection():
    chain = parse_chain("GGCC")
    with pytest.raises(FoldingValidationError) as exc:
        validate_folding(chain, [(0, 0), (1, 0), (0, 0), (0, 1)])
    assert exc.value.index == 3


def test_validate_non_unit_step():
    chain = parse_chain("GGC")
    with pytest.raises(FoldingValidationError) as exc:
        validate_folding(chain, [(0, 0), (2, 0), (2, 1)])
    assert exc.value.index == 2


def test_validate_length_mismatch():
    with pytest.raises(FoldingValidationError):
        validate_folding(parse_chain("GG"), [(0, 0)])


def test_contact_graph_square():
    chain = parse_chain("GGCC")
    folding = validate_folding(chain, [(0, 0), (1, 0), (1, 1), (0, 1)])
    assert contact_graph(chain, folding) == [(1, 4)]


def test_contact_graph_no_complement():
    chain = parse_chain("GGGG")
    folding = validate_folding(chain, [(0, 0), (1, 0), (1, 1), (0, 1)])
    assert contact_graph(chain, folding) == []


def test_contact_graph_chain_adjacent_excluded():
    chain = parse_chain("GC")
    folding = validate_folding(chain, [(0, 0), (1, 0)])
    assert contact_graph(chain, folding) == []


def _hairpin(n):
    bottom = [(x, 0) for x in range(n)]
    top = [(x, 1) for x in range(n - 1, -1, -1)]
    return bottom + top


def test_score_hairpin_witness():
    chain = parse_chain("GGGGCCCC")
    folding = validate_folding(chain, _hairpin(4))
    size, witness = score(chain, folding)
    assert size == 3
    assert witness.edges == frozenset({(1, 8), (2, 7), (3, 6)})


def test_score_no_bonds():
    chain = parse_chain("GGGG")
    folding = validate_folding(chain, _hairpin(2))
    assert score(chain, folding)[0] == 0


def test_score_straight_line():
    chain = parse_chain("GCG")
    folding = validate_folding(chain, [(0, 0), (1, 0), (2, 0)])
    assert score(chain, folding)[0] == 0


def test_greedy_is_not_enough():
    # Frozen counterexample: sorted-order greedy picks (1, 4) and blocks the
    # two-bond matching {(1, 8), (4, 7)}.
    chain = parse_chain("GXXCXXGC")
    pts = [(0, 0), (0, -1), (1, -1), (1, 0), (2, 0), (2, 1), (1, 1), (0, 1)]
    folding = validate_folding(chain, pts)
    edges = contact_graph(chain, folding)
    assert edges == [(1, 4), (1, 8), (4, 7)]

    used = set()
    greedy = 0
    for i, j in edges:
        if i not in used and j not in used:
            used.update((i, j))
            greedy += 1
    size, _ = score(chain, folding)
    assert greedy == 1
    assert size == 2
    assert size == brute_force_matching_size(edges)


def test_matching_rejects_same_parity_edge():
    with pytest.raises(ValueError):
        maximum_bipartite_matching([(1, 3)])


@pytest.mark.parametrize("length", [4, 5, 6])
def test_contact_edges_have_odd_index_sum(length):
    for combo in itertools.product("GCAU", repeat=length):
        chain = Chain("".join(combo))
        for pts in enumerate_walk_points(length):
            for i, j in contact_graph(chain, Folding(pts)):
                assert (i + j) % 2 == 1
        break  # one chain per alphabet suffices here; the solver suite goes deeper


def test_score_at_most_half_length():
    chain = parse_chain("GCGCGCGC")
    for pts in enumerate_walk_points(8):
        assert score(chain, Folding(pts))[0] <= 4


_SYMMETRIES = [
    lambda x, y: (x, y),
    lambda x, y: (-y, x),
    lambda x, y: (-x, -y),
    lambda x, y: (y, -x),
    lambda x, y: (-x, y),
    lambda x, y: (x, -y),
    lambda x, y: (y, x),
    lambda x, y: (-y, -x),
]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_score_invariant_under_symmetry(data):
    length = data.draw(st.integers(min_value=2, max_value=7))
    walks = list(enumerate_walk_points(length))
    pts = data.draw(st.sampled_from(walks))
    seq = data.draw(st.text(alphabet="GCAUX", min_size=length, max_size=length))
    chain = Chain(seq)
    base_score = score(chain, Folding(pts))[0]
    dx = data.draw(st.integers(min_value=-5, max_value=5))
    dy = data.draw(st.integers(min_value=-5, max_value=5))
    for sym in _SYMMETRIES:
        moved = tuple((sym(x, y)[0] + dx, sym(x, y)[1] + dy) for x, y in pts)
        assert score(chain, Folding(moved))[0] == base_score


@pytest.mark.parametrize("length", [2, 3, 4, 5, 6])
def test_score_matches_brute_force_small(length):
    # Oracle equivalence at small scale; the acceptance suite covers L <= 8.
    for combo in itertools.product("GC", repeat=length):
        chain = Chain("".join(combo))
        for pts in enumerate_walk_points(length):
            folding = Folding(pts)
            edges = contact_graph(chain, folding)
            assert score(chain, folding)[0] == brute_force_matching_size(edges)
