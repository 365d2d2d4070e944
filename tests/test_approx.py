import hashlib
import itertools
import math
import operator
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from wcfold import approx
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
from wcfold.bounds import parity_bound, parity_census
from wcfold.model import Chain, FoldingValidationError, parse_chain, validate_folding
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


def test_relabel_branch_matches_the_census_rule():
    """The branch is the one the census terms prefer, oddG/evenC on a tie."""
    for length in range(1, 15):
        for combo in itertools.product("GC", repeat=length):
            chain = Chain("".join(combo))
            c = parity_census(chain)
            expected = (BRANCH_ODDG_EVENC if min(c.odd_g, c.even_c) >= min(c.even_g, c.odd_c)
                        else BRANCH_EVENG_ODDC)
            assert relabel(chain).branch == expected, chain.seq


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


def _construction_lines(chain):
    """Line events in approx.py's frames (build_folding and _arm_cells)
    while build_folding realizes the chain's plan.  Scoring runs in
    model.py and matching.py, and each zip run lays its cells in C, so
    neither adds lines here."""
    plan = choose_fold_point(relabel(chain))
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return local

    def enter(frame, event, arg):
        return local if frame.f_code.co_filename == approx.__file__ else None

    sys.settrace(enter)
    try:
        build_folding(chain, plan)
    finally:
        sys.settrace(None)
    return lines


def test_construction_lines_grow_linearly():
    """The construction runs a fixed number of lines per matched pair, and a
    chain has fewer pairs than nodes: doubling the chain (by repeating it)
    at most doubles the count, give or take a pair or two."""
    rng = random.Random(2)
    seeds = ["GC" * 32, "G" * 32 + "C" * 32, "GGCC" * 16, "G" * 64,
             "".join(rng.choice("GC") for _ in range(64))]
    for seq in seeds:
        lines = []
        for _ in range(7):  # 64 .. 4096 bases
            lines.append(_construction_lines(Chain(seq)))
            seq += seq
        for prev, cur in zip(lines, lines[1:]):
            assert cur <= 2 * prev + 40, (seq[:8], lines)
        # Every seed but the all-G one has pairs, so its count grows.
        assert (lines[-1] > lines[0]) == ("C" in seq), (seq[:8], lines)


# sha256 over (fold_index, branch, matched_pairs, points, achieved) of 200
# random G/C chains, one repr per line, pinned before build_folding's
# construction and check were rewritten.  A change that moves a plan or a
# cell on purpose re-pins it and gives its reason.
APPROX_DIGEST = "8b6aa8b80ad41bd69db657d09a0a8530ef89e8202f2980c20d58a1679cfcd0b1"


def test_plans_and_foldings_are_pinned_byte_for_byte():
    # Lengths are log-uniform over 1-4,999 bases and each chain draws its
    # own G share, so short chains, pairless ones and skewed ones all occur.
    rng = random.Random(35)
    digest = hashlib.sha256()
    bases = 0
    for _ in range(200):
        length = int(5000 ** rng.random())
        share = rng.random()
        chain = Chain("".join("G" if rng.random() < share else "C" for _ in range(length)))
        plan = choose_fold_point(relabel(chain))
        folding, achieved = build_folding(chain, plan)
        digest.update(repr((plan.fold_index, plan.branch, plan.matched_pairs,
                            folding.points, achieved)).encode() + b"\n")
        bases += length
    assert (bases, digest.hexdigest()) == (116554, APPROX_DIGEST)


@pytest.mark.parametrize("length,pairs,message,index", [
    # 4 - 1 - 1 = 2 nodes between the first two left ends: the loop lays one.
    (11, ((1, 11), (4, 9)), "folding has 10 points for a chain of length 11", 10),
    # (1, 12) and (5, 13) cross, so the bottom arm steps back from node 13
    # to 12 and that loop turns up into the top arm; the even gap between
    # 5 and 8 keeps the point count right, so the fault named is that
    # loop's peak, at index 11, landing on index 3's cell.
    (13, ((1, 12), (5, 13), (8, 10)),
     "self-intersection at index 11 (point (1, 2) already used at index 3)", 11),
], ids=["even-gap", "crossed"])
def test_build_folding_names_the_fault_of_a_plan_that_is_not_a_walk(length, pairs, message, index):
    # The messages are the ones validate_folding gave before build_folding
    # checked its own walk first.
    with pytest.raises(FoldingValidationError) as caught:
        build_folding(Chain("G" * length), FoldPlan(5, pairs, BRANCH_ODDG_EVENC))
    assert (str(caught.value), caught.value.index) == (message, index)


def test_approx_scope_error():
    with pytest.raises(ScopeError):
        approx_fold(parse_chain("GAC"))
