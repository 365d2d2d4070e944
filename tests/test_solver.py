import itertools
import os
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from wcfold.bounds import bounding_box_bound, gc_block_chain, mixed_block_chain, parity_bound
from wcfold.matching import maximum_bipartite_matching
from wcfold.model import (Chain, Folding, complementary, contact_graph, parse_chain,
                          validate_folding, score)
from wcfold import solver
from wcfold.solver import LengthLimitError, exact_solve, optimal_score
from wcfold.walks import enumerate_walk_points

from conftest import brute_force_optimum
from test_walks import canonical_moves


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


@pytest.mark.parametrize("seq, beaten", [
    ("GGGCCGCGGGCGG", False),  # the probe's seed 4 is the optimum
    ("CCCCGGCCGGGCG", True),   # probe 4, optimum 5 in a later subtree
    ("GAUCCGAUGCAUG", True),   # probe 3, optimum 4
    ("GGAUXCCAUGXXC", True),   # probe 2, optimum 3
    ("GGGGGGCCCCCCC", False),  # the probe's seed 5 is the optimum
])
def test_pruning_does_not_change_results_above_the_threshold(seq, beaten):
    # 13 bases: partitioned, so every pruned search starts from the probe's
    # seed, and beaten says whether the seed falls short of the optimum.
    chain = Chain(seq)
    fast = exact_solve(chain)
    slow = exact_solve(chain, prune=False)
    assert (fast.optimal_score, fast.optimal_count, fast.representatives) == (
        slow.optimal_score, slow.optimal_count, slow.representatives)
    assert (fast.seed < slow.optimal_score) == beaten
    assert exact_solve(chain, count=False).optimal_score == slow.optimal_score
    assert exact_solve(chain, count=False, prune=False).optimal_score == slow.optimal_score


@pytest.mark.parametrize("seq", [
    "GCCGGCGCCGCGGC",  # the probe's seed 5 is the optimum
    "GGGCGCCCGGCGCC",  # probe 4, optimum 5
    "AUGGCUAGCAUCGA",  # probe 4, optimum 5
    "XGCAUGGCXAUCCG",  # X beside bondable nodes; probe 3, optimum 4
])
def test_pruning_keeps_every_optimum_at_14_bases(seq):
    # At 14 bases the prunes before placement, on node i and on node i + 1,
    # cut most cells; the search must still reach every optimal folding the
    # unpruned one does, in the same order.
    chain = Chain(seq)
    slow = exact_solve(chain, prune=False, representative_cap=None)
    fast = exact_solve(chain, representative_cap=None)
    assert (fast.optimal_score, fast.optimal_count, fast.representatives) == (
        slow.optimal_score, slow.optimal_count, slow.representatives)
    assert exact_solve(chain, count=False).optimal_score == slow.optimal_score


@pytest.mark.parametrize("length", range(2, 13))
def test_alternating_chain_attains_the_bounding_box_bound(length):
    # A score-only search stops at the bounding-box bound: exhaustively,
    # GCGC... reaches it and nothing exceeds it.
    chain = Chain(("GC" * length)[:length])
    report = exact_solve(chain, prune=False, count=False, representative_cap=0)
    assert report.optimal_score == bounding_box_bound(length) == length // 2 - 1


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
    # Score-only mode stops at the parity bound 0, so a degenerate 21-base
    # chain stops at its first leaf.
    report = exact_solve(chain, max_length=21, count=False, representative_cap=0)
    assert (report.optimal_score, report.nodes_explored) == (0, 21)


def test_leaf_count_matches_walk_enumeration():
    # With pruning off, every canonical walk is visited exactly once.
    chain = Chain("X" * 7)
    report = exact_solve(chain, prune=False)
    assert report.optimal_count == len(list(enumerate_walk_points(7)))


@pytest.mark.parametrize("length", [1, 2, 3, 12, 13])
def test_node_count_is_the_walk_tree_size(length):
    # With pruning off every canonical walk prefix is placed once, on both
    # sides of the partition threshold (12 bases).  Up to 2 bases the
    # subtree prefix is the whole walk, so its leaf lies in the forced steps.
    report = exact_solve(Chain("X" * length), prune=False)
    tree_size = sum(len(list(enumerate_walk_points(d))) for d in range(1, length + 1))
    assert report.nodes_explored == tree_size


@pytest.mark.parametrize("seq, count, expected", [
    ("GGGGGGGCCCCCCC", True, (6, 1, 1167, 692)),
    ("GCGGCCGCGGCCGC", True, (6, 1, 997, 600)),
    ("GGCGCCGCGGCGC", False, (5, None, 70, 32)),
    ("GAUCGGAUCCGAUC", True, (6, 1, 1007, 617)),
    ("AUGCAUGCAUGCAU", False, (6, None, 60, 24)),
    ("GGAUXCCAUGXXCG", True, (3, 65, 34754, 19954)),
    ("UAGCCGAUUAGCGC", False, (3, None, 3884, 2415)),
    # The benchmark's heaviest G/C search; only GAGGAACUACGGCUCGUCAG, whose
    # 359,695 nodes CI pins, searches more.
    ("GGGCGGGCCGCGGCCCGCGG", True, (7, 244, 296913, 174441)),
    # Skewed: the parity bound 1 ends the search at its first leaf.
    ("GGGGGGGGGGGGGGGC", False, (1, None, 21, 3)),
    # Score-only past the first 3 subtrees, whose best is 4 and 3 against
    # optima 5 and 4: each later subtree starts from the best so far.  The
    # first row stops at its parity bound 5, the second runs to the end.
    ("GCGGCGCGGGGCGC", False, (5, None, 310, 177)),
    ("CAUGCCGUUGCGAA", False, (4, None, 2458, 1504)),
])
def test_search_shape_is_pinned(seq, count, expected):
    # Above the partition threshold: these node and prune counts pin the
    # search itself, so a change to the bound, the seed or the visiting
    # order shows.  Three score-only rows reach the cap in the first
    # subtree and search no other.
    report = exact_solve(parse_chain(seq), count=count)
    got = (report.optimal_score, report.optimal_count, report.nodes_explored, report.pruned)
    assert got == expected


# The solver's step order; a canonical walk takes only the first two before
# its first turn.
STEPS = ((1, 0), (0, 1), (-1, 0), (0, -1))


class _Done(Exception):
    """The reference search reached its score-only stop."""


def reference_search(seq, count, cuts=None):
    """The documented pruned search, with its state recomputed at every
    placement.

    After each placement the matching is a fresh maximum matching on the
    placed nodes' contact graph.  The bound (bonds + unplaced bondable
    nodes), the tie rule and the score-only stop at the smaller of the
    bounding-box and parity bounds are those of the wcfold.solver
    docstring.  So is the prune before placement: with
    slack = mu + (bondable nodes after i) - best - tie, taken when the
    call that places node i starts, a cell is pruned unplaced when
    slack < 0 and i has no partner beside it, or when node j = i + 1 can
    bond, slack < 0 or slack == 0 with no partner of i beside the cell,
    and either no free cell e beside it has a partner of j beside it, or
    node k = i + 2 can bond and no free cell beside any such e has a
    partner of k beside it.  cuts, if given, counts the j prunes by the
    sign of slack, under "third node" the cells only k's test prunes,
    and under "parity stop" the stops below the bounding-box bound.  Only
    for 12 bases or fewer: then the one subtree hangs below the prefix
    (0, 0), (1, 0) and starts from nothing.  Returns (optimal_score,
    optimal_count, every optimal folding's points, nodes_explored, pruned).
    """
    assert len(seq) <= 12
    length = len(seq)
    tie = 0 if count else 1
    stop = None if count else min(bounding_box_bound(length), parity_bound(Chain(seq)))
    prefix = [(0, 0), (1, 0)][:length]
    best, found, reps, nodes, pruned = -1, 0, [], len(prefix), 0

    def matched(pts):
        placed = contact_graph(Chain(seq[:len(pts)]), Folding(tuple(pts)))
        return len(maximum_bipartite_matching(placed))

    def beside(cell):
        return [(cell[0] + dx, cell[1] + dy) for dx, dy in STEPS]

    def partner_beside(k, cell, pts):
        """Some placed node beside cell can bond with node k."""
        return any(q != k - 1 and q != k + 1 and complementary(seq[k - 1], seq[q - 1])
                   for q, pt in enumerate(pts, start=1) if pt in beside(cell))

    def search(pts, turned, mu):
        nonlocal best, found, nodes, pruned
        if len(pts) == length:
            if mu >= best:
                if mu > best:
                    best, found, reps[:] = mu, 0, []
                found += 1
                reps.append(tuple(pts))
                if best == stop:
                    if cuts is not None and stop < bounding_box_bound(length):
                        cuts["parity stop"] += 1
                    raise _Done
            return
        i = len(pts) + 1
        slack = mu + len(seq[i:].replace("X", "")) - best - tie
        x, y = pts[-1]
        for dx, dy in STEPS if turned else STEPS[:2]:
            nxt = pts + [(x + dx, y + dy)]
            if nxt[-1] in pts:
                continue
            nodes += 1
            hit = partner_beside(i, nxt[-1], pts)
            if slack < 0 and not hit:
                pruned += 1
                continue
            if (slack < 0 or slack == 0 and not hit) and i < length and seq[i] != "X":
                holds_j = [e for e in beside(nxt[-1])
                           if e not in nxt and partner_beside(i + 1, e, nxt)]
                if not holds_j:
                    pruned += 1
                    if cuts is not None:
                        cuts[slack < 0] += 1
                    continue
                if i + 1 < length and seq[i + 1] != "X" and not any(
                        partner_beside(i + 2, f, nxt + [e])
                        for e in holds_j for f in beside(e) if f not in nxt + [e]):
                    pruned += 1
                    if cuts is not None:
                        cuts["third node"] += 1
                    continue
            bonds = matched(nxt)
            unplaced = len(seq[len(nxt):].replace("X", ""))
            if bonds + unplaced < best + tie:
                pruned += 1
            else:
                search(nxt, turned or dy != 0, bonds)

    try:
        search(prefix, False, matched(prefix))
    except _Done:
        pass
    return best, found if count else None, tuple(reps), nodes, pruned


def _reference_chains():
    rng = random.Random(20261019)
    mixed = ["".join(rng.choice("GCAUX") for _ in range(rng.randint(1, 10))) for _ in range(40)]
    gc = ["".join(c) for n in range(1, 9) for c in itertools.product("GC", repeat=n)]
    # 10-12 bases, with A/U and X, where both j prunes fire.
    longer = ["GGCAUXCCGAUG", "AUGCXGCAUAGC", "GGXCCAUUAGCC", "CAUGGCXAUCG", "GCAUGCAUGC",
              "GGGCCCXGCCGG"]
    # Skewed chains, whose parity bound ends a score-only search.
    skewed = ["GGGGGGGGGC", "CCGGGGGGGG", "AAAAGGGGGC"]
    return gc + mixed + longer + skewed


@pytest.mark.parametrize("count", [True, False])
def test_search_matches_a_from_scratch_reference(count):
    # Node for node: the incremental matching and undo, and the prunes
    # before placement, must leave the search exactly where recomputing
    # everything would.
    cuts = Counter()
    for seq in _reference_chains():
        report = exact_solve(Chain(seq), count=count, representative_cap=None)
        got = (report.optimal_score, report.optimal_count,
               tuple(rep.points for rep in report.representatives),
               report.nodes_explored, report.pruned)
        assert got == reference_search(seq, count, cuts), seq
    # Both j prunes, slack < 0 and slack == 0, and the third node's are
    # exercised, and so is the parity stop in score-only mode.
    assert cuts[True] and cuts[False] and cuts["third node"], cuts
    assert bool(cuts["parity stop"]) == (not count), cuts


def test_worker_determinism_small():
    chains = [gc_block_chain(7), parse_chain("GCGCGCGCGCGCG"), parse_chain("GGAAUUCCGGAAUU")]
    for chain in chains:
        one = exact_solve(chain, workers=1)
        two = exact_solve(chain, workers=2)
        assert one == two
    score_only = parse_chain("GAUCCGAUGCAUGC")
    one = exact_solve(score_only, workers=1, count=False)
    two = exact_solve(score_only, workers=2, count=False)
    assert one.optimal_count is None
    assert one == two


@pytest.mark.parametrize("count", [True, False])
def test_worker_determinism_with_a_raised_seed(count):
    # The probe's seed is the optimum 4; its placements and prunes are in
    # the report whatever the worker count.
    chain = parse_chain("CAAUAGAUGUGGCU")
    one = exact_solve(chain, workers=1, count=count)
    assert (one.seed, one.optimal_score) == (4, 4)
    assert exact_solve(chain, workers=2, count=count) == one


@pytest.mark.parametrize("count", [True, False])
def test_worker_determinism_without_a_probe(count):
    # At 12 bases no probe runs: every subtree starts from nothing.
    chain = parse_chain("GCAUGGCAUCCG")
    one = exact_solve(chain, workers=1, count=count)
    assert one.seed is None
    assert exact_solve(chain, workers=2, count=count) == one


def test_pool_has_at_most_one_worker_per_subtree(monkeypatch):
    # A 13-base chain splits into 36 subtrees, and the calling process
    # counts too, so workers=64 forks 35 children in count mode and
    # workers=2 forks one.  A score-only search is one pass in the calling
    # process and forks none.  The wrapper counts forks and passes them on.
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    chain = parse_chain("GGCGCCGCGGCGC")
    expected = exact_solve(chain, workers=1)
    monkeypatch.setattr(os, "fork", counting_fork)
    assert exact_solve(chain, workers=64) == expected
    assert len(forks) == 35
    assert exact_solve(chain, workers=2) == expected
    assert len(forks) == 36
    # The first 3 subtrees reach 4, and a later one the optimum 5.
    score_only = parse_chain("CCCCGGCCGGGCG")
    expected = exact_solve(score_only, workers=1, count=False)
    assert exact_solve(score_only, workers=64, count=False) == expected
    assert (expected.optimal_score, len(forks)) == (5, 36)
    counted = exact_solve(score_only, workers=64)
    assert counted == exact_solve(score_only, workers=1)
    assert (counted.optimal_score, len(forks)) == (5, 36 + 35)


@pytest.mark.parametrize("in_caller", [False, True])
def test_a_failing_subtree_search_reaches_the_caller(monkeypatch, in_caller):
    # Forked children inherit the patched search, which fails in every
    # counting subtree a child takes, and with in_caller in those the
    # calling process takes too.  A child's ValueError reaches the caller,
    # the caller's own wins over its children's, and either way every
    # child has been reaped by then.
    chain = parse_chain("GGCGCCGCGGCGC")
    search = solver._solve_subtree
    caller = os.getpid()

    def failing_search(args):
        if args[3] and (in_caller or os.getpid() != caller):
            raise ValueError(os.getpid())
        return search(args)

    monkeypatch.setattr(solver, "_solve_subtree", failing_search)
    with pytest.raises(ValueError) as raised:
        exact_solve(chain, workers=3)
    assert (raised.value.args[0] == caller) == in_caller
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_score_only_mode():
    chain = gc_block_chain(5)
    assert optimal_score(chain) == 4
    report = exact_solve(chain, count=False, representative_cap=0)
    assert report.optimal_count is None
    # An optimal folding is listed also when no walk beats the first one
    # found: the pass's first subtree reaches the bound 9 on G^10 C^10.
    for seq, best in [("GC", 0), ("G" * 10 + "C" * 10, 9), ("GGGG", 0)]:
        chain = Chain(seq)
        report = exact_solve(chain, count=False)
        assert report.optimal_score == best
        assert [score(chain, rep)[0] for rep in report.representatives] == [best], seq


@pytest.mark.parametrize("count", [True, False])
@given(seq=st.text(alphabet="GCAUX", min_size=1, max_size=9))
@settings(max_examples=60, deadline=None)
def test_every_chain_has_an_optimal_folding(count, seq):
    report = exact_solve(Chain(seq), count=count)
    if count:
        assert report.optimal_count >= 1
    assert report.representatives
    for rep in report.representatives:
        assert score(Chain(seq), rep)[0] == report.optimal_score


def test_optimum_never_exceeds_bounds():
    for combo in itertools.product("GC", repeat=8):
        chain = Chain("".join(combo))
        s = optimal_score(chain)
        assert s <= bounding_box_bound(8)
        assert s <= parity_bound(chain)
