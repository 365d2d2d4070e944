import random
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from wcfold.bounds import (
    bbox_bound_is_extension,
    bounding_box_bound,
    gc_block_chain,
    hairpin_folding,
    mixed_block_chain,
    parity_bound,
    parity_census,
)
from wcfold.model import Chain, Folding, parse_chain, score, validate_folding

from conftest import all_gc_chains
from wcfold.walks import enumerate_walk_points


@pytest.mark.parametrize("length,expected", [(8, 3), (2, 0), (20, 9)])
def test_bbox_bound(length, expected):
    assert bounding_box_bound(length) == expected


def test_bbox_bound_odd_is_extension():
    assert bounding_box_bound(7) == 2
    assert bbox_bound_is_extension(7)
    assert not bbox_bound_is_extension(8)
    assert bounding_box_bound(1) == 0
    with pytest.raises(ValueError, match="length must be positive"):
        bounding_box_bound(0)


def test_parity_census_block():
    census = parity_census(parse_chain("GGGGCCCC"))
    assert (census.odd_g, census.even_g, census.odd_c, census.even_c) == (2, 2, 2, 2)
    assert not census.has_au


def test_parity_census_single():
    census = parity_census(parse_chain("G"))
    assert census.odd_g == 1
    assert sum(asdict(census).values()) == 1


def test_parity_census_ignores_x():
    census = parity_census(parse_chain("XXXX"))
    assert sum(asdict(census).values()) == 0


@pytest.mark.parametrize(
    "seq,expected", [("GGGGCCCC", 4), ("GC", 1), ("GGGG", 0), ("GAUC", 2)]
)
def test_parity_bound_values(seq, expected):
    assert parity_bound(parse_chain(seq)) == expected


def test_gc_block_chain():
    assert gc_block_chain(4).seq == "GGGGCCCC"
    assert gc_block_chain(1).seq == "GC"
    assert gc_block_chain(5).seq == "GGGGGCCCCC"


def test_mixed_block_chain():
    assert mixed_block_chain(4, 4).seq == "GGAAUUCC"
    assert mixed_block_chain(2, 0).seq == "GC"
    assert mixed_block_chain(0, 8).seq == "AAAAUUUU"
    with pytest.raises(ValueError):
        mixed_block_chain(3, 4)
    # Each has m + n >= 2; the sign is checked before parity.
    for m, n in [(-2, 4), (4, -2), (-3, 6)]:
        with pytest.raises(ValueError, match="^m and n must be at least 0"):
            mixed_block_chain(m, n)


@pytest.mark.parametrize("n", range(2, 31))
def test_hairpin_scores_n_minus_one(n):
    chain = gc_block_chain(n)
    assert score(chain, hairpin_folding(n))[0] == n - 1


def test_hairpin_smallest():
    chain = gc_block_chain(2)
    size, witness = score(chain, hairpin_folding(2))
    assert size == 1
    assert witness.edges == frozenset({(1, 4)})


def _random_folding_points(length, rng):
    """A uniform-ish random self-avoiding walk, grown with backtracking."""
    while True:
        pts = [(0, 0)]
        used = {(0, 0)}
        dead = False
        while len(pts) < length:
            x, y = pts[-1]
            options = [
                p for p in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))
                if p not in used
            ]
            if not options:
                dead = True
                break
            nxt = rng.choice(options)
            pts.append(nxt)
            used.add(nxt)
        if not dead:
            return tuple(pts)


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=24))
@settings(max_examples=80, deadline=None)
def test_bounds_hold_on_random_longer_foldings(seed, length):
    rng = random.Random(seed)
    seq = "".join(rng.choice("GCAU") for _ in range(length))
    chain = Chain(seq)
    folding = validate_folding(chain, _random_folding_points(length, rng))
    s = score(chain, folding)[0]
    assert s <= parity_bound(chain)
    assert s <= bounding_box_bound(length)


@pytest.mark.parametrize("length", [4, 6])
def test_bounds_hold_exhaustively_small(length):
    # Both bounds checked against every folding of every G/C chain; the
    # acceptance suite extends this to L = 10.
    walks = list(enumerate_walk_points(length))
    for chain in all_gc_chains(length):
        pbound = parity_bound(chain)
        bbound = bounding_box_bound(length)
        for pts in walks:
            s = score(chain, Folding(pts))[0]
            assert s <= bbound
            assert s <= pbound
