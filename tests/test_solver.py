import itertools

import pytest
from hypothesis import given, settings, strategies as st

from wcfold.bounds import bounding_box_bound, gc_block_chain, mixed_block_chain, parity_bound
from wcfold.model import Chain, parse_chain, validate_folding, score
from wcfold.solver import (
    LengthLimitError,
    exact_solve,
    optimal_score,
)
from wcfold.walks import canonical_moves, enumerate_walk_points

from conftest import brute_force_optimum


def test_block_chain_n4():
    report = exact_solve(gc_block_chain(4))
    assert report.optimal_score == 3
    assert report.optimal_count == 1


def test_block_chain_n5():
    report = exact_solve(gc_block_chain(5))
    assert report.optimal_score == 4
    assert report.optimal_count == 1


def test_mixed_chain():
    report = exact_solve(parse_chain("GGAAUUCC"))
    assert report.optimal_score == 3
    assert report.optimal_count == 1


def test_no_bond_chain_counts_all_walks():
    report = exact_solve(parse_chain("GGGG"))
    assert report.optimal_score == 0
    assert report.optimal_count == 5  # every length-4 walk scores zero


def test_single_step_chain():
    # One symmetry class exists at length 2, so the (zero-bond) optimum is
    # attained by exactly one folding.
    report = exact_solve(parse_chain("GC"))
    assert report.optimal_score == 0
    assert report.optimal_count == 1


def test_single_node_chain():
    report = exact_solve(parse_chain("G"))
    assert report.optimal_score == 0
    assert report.optimal_count == 1


@pytest.mark.parametrize("seq", ["GCGC", "GGCC", "GCCG", "CGGC", "GCGCGC"])
def test_matches_brute_force(seq):
    chain = parse_chain(seq)
    expected_score, expected_count = brute_force_optimum(chain)
    report = exact_solve(chain)
    assert report.optimal_score == expected_score
    assert report.optimal_count == expected_count


def test_brute_force_sweep_length_6():
    for combo in itertools.product("GC", repeat=6):
        chain = Chain("".join(combo))
        expected_score, expected_count = brute_force_optimum(chain)
        report = exact_solve(chain)
        assert (report.optimal_score, report.optimal_count) == (
            expected_score,
            expected_count,
        ), chain.seq


def test_mixed_alphabet_against_brute_force():
    for seq in ["GAUCX", "XGCAU", "AUAUA", "GGXCC", "UUGGA"]:
        chain = parse_chain(seq)
        expected_score, expected_count = brute_force_optimum(chain)
        report = exact_solve(chain)
        assert (report.optimal_score, report.optimal_count) == (
            expected_score,
            expected_count,
        ), seq


def test_pruning_does_not_change_results():
    for combo in itertools.product("GC", repeat=7):
        chain = Chain("".join(combo))
        fast = exact_solve(chain)
        slow = exact_solve(chain, prune=False)
        assert fast.optimal_score == slow.optimal_score
        assert fast.optimal_count == slow.optimal_count


def test_representatives_are_valid_and_optimal():
    chain = gc_block_chain(4)
    report = exact_solve(chain)
    assert len(report.representatives) == 1
    rep = report.representatives[0]
    validate_folding(chain, rep.points)
    assert score(chain, rep)[0] == report.optimal_score


def test_representative_cap():
    chain = parse_chain("GGGG")
    capped = exact_solve(chain, representative_cap=2)
    assert len(capped.representatives) == 2
    assert capped.optimal_count == 5
    full = exact_solve(chain, representative_cap=None)
    assert len(full.representatives) == 5
    assert len({canonical_moves(r.points) for r in full.representatives}) == 5


def test_length_limit():
    chain = Chain("G" * 21)
    with pytest.raises(LengthLimitError):
        exact_solve(chain)
    # Score-only mode prunes ties, so a degenerate 21-base chain stays cheap.
    report = exact_solve(chain, max_length=21, count=False, representative_cap=0)
    assert report.optimal_score == 0


def test_leaf_count_matches_walk_enumeration():
    # With pruning off, every canonical walk is visited exactly once.
    chain = Chain("X" * 7)
    report = exact_solve(chain, prune=False)
    assert report.optimal_count == len(list(enumerate_walk_points(7)))


@pytest.mark.parametrize("length", [12, 13])
def test_node_count_is_the_walk_tree_size(length):
    # With pruning off every canonical walk prefix is placed once, on both
    # sides of the partition threshold (12 bases).
    report = exact_solve(Chain("X" * length), prune=False)
    tree_size = sum(len(list(enumerate_walk_points(d))) for d in range(1, length + 1))
    assert report.nodes_explored == tree_size


def test_worker_determinism_small():
    chains = [gc_block_chain(7), parse_chain("GCGCGCGCGCGCG"), parse_chain("GGAAUUCCGGAAUU")]
    for chain in chains:
        one = exact_solve(chain, workers=1)
        two = exact_solve(chain, workers=2)
        assert one == two


def test_score_only_mode():
    chain = gc_block_chain(5)
    assert optimal_score(chain) == 4
    report = exact_solve(chain, count=False, representative_cap=0)
    assert report.optimal_count is None


@given(st.text(alphabet="GCAUX", min_size=1, max_size=9))
@settings(max_examples=60, deadline=None)
def test_every_chain_has_an_optimal_folding(seq):
    report = exact_solve(Chain(seq))
    assert report.optimal_count >= 1
    assert report.representatives
    rep = report.representatives[0]
    assert score(Chain(seq), rep)[0] == report.optimal_score


def test_optimum_never_exceeds_bounds():
    for combo in itertools.product("GC", repeat=8):
        chain = Chain("".join(combo))
        s = optimal_score(chain)
        assert s <= bounding_box_bound(8)
        assert s <= parity_bound(chain)
