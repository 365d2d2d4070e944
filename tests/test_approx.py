import itertools
import math
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from wcfold.approx import (
    BRANCH_EVENG_ODDC,
    BRANCH_ODDG_EVENC,
    FoldPlan,
    ScopeError,
    _relabel_as,
    _fold_role,
    approx_fold,
    build_folding,
    choose_fold_point,
    pair_floor_guarantee,
    relabel,
)
from wcfold.bounds import parity_bound
from wcfold.model import Chain, parse_chain, validate_folding
from wcfold.solver import optimal_score


def test_relabel_block_chain():
    rl = relabel(parse_chain("GGGGCCCC"))
    assert rl.branch == BRANCH_ODDG_EVENC
    assert rl.odd_one_positions == (1, 3)
    assert rl.even_one_positions == (6, 8)


def test_relabel_all_g():
    rl = relabel(parse_chain("GGGG"))
    assert min(len(rl.odd_one_positions), len(rl.even_one_positions)) == 0


def test_relabel_gc():
    rl = relabel(parse_chain("GC"))
    assert (rl.odd_one_positions, rl.even_one_positions) == ((1,), (2,))


def test_relabel_positions_exhaustive():
    """odd-1 is each odd-index G (oddG/evenC) or C (evenG/oddC), even-1
    each even-index node of the other base."""
    for length in range(1, 9):
        for combo in itertools.product("GC", repeat=length):
            seq = "".join(combo)
            for branch, ones in ((BRANCH_ODDG_EVENC, "GC"), (BRANCH_EVENG_ODDC, "CG")):
                rl = _relabel_as(Chain(seq), branch)
                assert rl.odd_one_positions == tuple(
                    i for i in range(1, length + 1) if i % 2 and seq[i - 1] == ones[0])
                assert rl.even_one_positions == tuple(
                    i for i in range(1, length + 1) if not i % 2 and seq[i - 1] == ones[1])


def test_relabel_scope():
    with pytest.raises(ScopeError):
        relabel(parse_chain("GA"))


def test_relabel_keeps_half_of_parity_bound():
    for combo in itertools.product("GC", repeat=8):
        chain = Chain("".join(combo))
        rl = relabel(chain)
        ones = min(len(rl.odd_one_positions), len(rl.even_one_positions))
        assert 2 * ones >= parity_bound(chain)


def test_fold_point_block_chain():
    plan = choose_fold_point(relabel(parse_chain("GGGGCCCC")))
    assert plan.fold_index == 4
    assert plan.matched_pairs == ((1, 8), (3, 6))
    assert plan.branch == BRANCH_ODDG_EVENC


def _reference_fold_point(relabeled):
    """The direct quadratic sweep: rebuild both side lists for every fold
    edge and role, pair them outside-in, drop a chain-adjacent innermost
    pair, and keep the first plan with the largest (pairs, -|2f-L|,
    odd-1-left) key."""
    length = len(relabeled.chain)
    if length < 2:
        return FoldPlan(0, (), relabeled.branch)
    odd1 = relabeled.odd_one_positions
    even1 = relabeled.even_one_positions
    best = best_plan = None
    for f in range(1, length):
        for left_nodes, right_nodes in ((odd1, even1), (even1, odd1)):
            left = [p for p in left_nodes if p <= f]
            right = [p for p in right_nodes if p > f]
            take = min(len(left), len(right))
            pairs = [(left[t], right[len(right) - 1 - t]) for t in range(take)]
            if pairs and pairs[-1][1] == pairs[-1][0] + 1:
                pairs.pop()
            key = (len(pairs), -abs(2 * f - length), left_nodes is odd1)
            if best is None or key > best:
                best = key
                best_plan = FoldPlan(f, tuple(pairs), relabeled.branch)
    return best_plan


def _assert_sweep_matches_reference(seq):
    """Check the plan from either branch as the preferred one against the
    quadratic sweep of both branches, the other winning only with strictly
    more pairs; return how many of their role searches met a one-edge
    interval (the innermost pair dropped) and how many had M = 0, with M
    counted by a linear scan."""
    drops = empty = 0
    branches = (BRANCH_ODDG_EVENC, BRANCH_EVENG_ODDC)
    sweeps = {b: _reference_fold_point(_relabel_as(Chain(seq), b)) for b in branches}
    for branch, other in zip(branches, reversed(branches)):
        relabeled = _relabel_as(Chain(seq), branch)
        own, alt = sweeps[branch], sweeps[other]
        expected = alt if len(alt.matched_pairs) > len(own.matched_pairs) else own
        assert choose_fold_point(relabeled) == expected, (seq, branch)
        odd1, even1 = relabeled.odd_one_positions, relabeled.even_one_positions
        for left, right in ((odd1, even1), (even1, odd1)):
            m = sum(map(operator.lt, left, reversed(right)))
            drop = m > 0 and left[m - 1] + 1 == right[-m]
            if len(seq) >= 2:
                assert _fold_role(left, right, len(seq))[0] == m - drop, (seq, branch)
            drops += drop
            empty += m == 0
    return drops, empty


def test_fold_point_matches_quadratic_sweep_exhaustive():
    drops = empty = 0
    for length in range(1, 13):
        for combo in itertools.product("GC", repeat=length):
            d, e = _assert_sweep_matches_reference("".join(combo))
            drops += d
            empty += e
    # Both closed-form special cases are reached, not just the plain interval.
    assert drops > 0 and empty > 0, (drops, empty)


@st.composite
def _skewed_gc_chains(draw):
    """A G/C chain of 13-400 bases whose G share is drawn too, so runs of
    one base, and the special cases they cause, are common."""
    share = draw(st.floats(min_value=0.0, max_value=1.0))
    length = draw(st.integers(min_value=13, max_value=400))
    rng = draw(st.randoms(use_true_random=False))
    return "".join("G" if rng.random() < share else "C" for _ in range(length))


@given(_skewed_gc_chains())
@settings(max_examples=100, deadline=None)
def test_fold_point_matches_quadratic_sweep_random(seq):
    _assert_sweep_matches_reference(seq)


def test_fold_point_is_what_approx_fold_builds():
    for seq in ["CCGG", "GGGGCCCC", "GCGCGCGCGC", "CCCGGG"]:
        chain = Chain(seq)
        plan = choose_fold_point(relabel(chain))
        built, achieved = build_folding(chain, plan)
        assert (built, achieved) == approx_fold(chain)
        assert achieved >= len(plan.matched_pairs)
    # CCGG: the census prefers oddG/evenC, whose only pair is chain-adjacent
    plan = choose_fold_point(relabel(Chain("CCGG")))
    assert relabel(Chain("CCGG")).branch == BRANCH_ODDG_EVENC
    assert plan.branch == BRANCH_EVENG_ODDC
    assert plan.matched_pairs == ((1, 4),)


def test_fold_point_no_ones():
    plan = choose_fold_point(relabel(parse_chain("GGGG")))
    assert plan.matched_pairs == ()


def test_fold_point_pairs_are_nested_and_sided():
    for seq in ["GCGCGCGCGC", "GGGCCCGGCC", "CCGGCCGGCC"]:
        plan = choose_fold_point(relabel(parse_chain(seq)))
        f = plan.fold_index
        prev = None
        for left, right in plan.matched_pairs:
            assert left <= f < right
            assert right - left >= 3  # bondable: not chain-adjacent, odd gap
            if prev is not None:
                assert prev[0] < left and right < prev[1]  # nesting
            prev = (left, right)


def test_fold_point_guarantee_exhaustive():
    for length in (2, 4, 6, 8, 10):
        for combo in itertools.product("GC", repeat=length):
            chain = Chain("".join(combo))
            rl = relabel(chain)
            plan = choose_fold_point(rl)
            assert len(plan.matched_pairs) >= pair_floor_guarantee(rl), chain.seq


def test_approx_block_chain():
    folding, achieved = approx_fold(parse_chain("GGGGCCCC"))
    assert achieved >= 2
    validate_folding(parse_chain("GGGGCCCC"), folding.points)


def test_approx_degenerate():
    folding, achieved = approx_fold(parse_chain("GGGG"))
    assert achieved == 0
    assert folding.points == ((0, 0), (1, 0), (2, 0), (3, 0))


@pytest.mark.parametrize("length", [2, 4, 6, 8, 10])
def test_approx_exhaustive_guarantees(length):
    for combo in itertools.product("GC", repeat=length):
        chain = Chain("".join(combo))
        folding, achieved = approx_fold(chain)
        validate_folding(chain, folding.points)
        assert achieved >= pair_floor_guarantee(relabel(chain))
        opt = optimal_score(chain)
        assert 12 * achieved >= opt
        assert achieved >= math.ceil(opt / 12)


@given(st.text(alphabet="GC", min_size=1, max_size=24))
@settings(max_examples=150, deadline=None)
def test_approx_valid_on_random_chains(seq):
    chain = Chain(seq)
    folding, achieved = approx_fold(chain)
    validate_folding(chain, folding.points)
    assert achieved >= pair_floor_guarantee(relabel(chain))


def _fold_probes(seq):
    """The comparisons of the four role searches that choose_fold_point makes."""
    probes = 0
    for branch in (BRANCH_ODDG_EVENC, BRANCH_EVENG_ODDC):
        rl = _relabel_as(Chain(seq), branch)
        odd1, even1 = rl.odd_one_positions, rl.even_one_positions
        for left, right in ((odd1, even1), (even1, odd1)):
            probes += _fold_role(left, right, len(seq))[-1]
    return probes


def test_approx_linear_operation_growth():
    """Planning counts the comparisons its binary searches make: at most
    (L // 2).bit_length() per role search, four searches per plan, and
    doubling the chain (by repeating it, which doubles every class count)
    adds at most two per search.  The search is logarithmic in L, so
    relabelling, listing the pairs and the construction, all linear, set
    approx_fold's cost."""
    rng = random.Random(2)
    seeds = ["GC" * 32, "G" * 32 + "C" * 32, "GGCC" * 16, "G" * 64,
             "".join(rng.choice("GC") for _ in range(64))]
    for seq in seeds:
        probes = []
        for _ in range(7):  # 64 .. 4096 bases
            probes.append(_fold_probes(seq))
            assert probes[-1] <= 4 * (len(seq) // 2).bit_length(), seq[:8]
            seq += seq
        for prev, cur in zip(probes, probes[1:]):
            assert cur <= prev + 8
        # Every seed but the all-G one has pairs to search for.
        assert probes[0] > 0 or "C" not in seq, seq[:8]


def test_approx_scope_error():
    with pytest.raises(ScopeError):
        approx_fold(parse_chain("GAC"))
