"""Constant-factor approximate folding for G/C chains.

The chain is first relabeled by parity dominance: of (odd-G, even-C) and
(odd-C, even-G), the census-preferred branch, the one whose
bounds.parity_terms term is larger (oddG/evenC on a tie), keeps its two
classes, called odd-1 and even-1, and every other node is ignored.  This
throws away at most half of the parity bound.  A relabel branch is just the
two sorted position lists of its classes.  A fold point, one chain edge,
is then chosen, and odd-1 nodes on one side of it are paired with even-1
nodes on the other, outside-in, which always yields at least
floor(min(#odd-1, #even-1) / 2) nested pairs.  The folding realizes one bond per pair: the two
arms run along two adjacent rows, each pair sits in its own column, the
leftover nodes between consecutive paired nodes loop away from the
interface inside the two columns they span, and the stretch between the
innermost pair routes around the open end.

The ratio is at most 6.  Let P be the parity bound, so opt <= P.  The
census-preferred branch keeps the larger of P's two terms, so
min(#odd-1, #even-1) >= ceil(P/2), and the plan has at least
floor(ceil(P/2) / 2) pairs.  If any folding has a bond, it joins an odd
node and an even node i < j, complementary, so j - i >= 3.  In the branch
whose classes hold them, the side role with i's class on the left arm has
left[0] <= i and right[-1] >= j, so it keeps at least one pair (see
_fold_role), and so does choose_fold_point, which takes the best of both
branches.  Every pair is a bond, so whenever opt >= 1,

    opt / achieved <= P / max(1, floor(ceil(P/2) / 2)),

which is P for P <= 6, at most 5 for 7 <= P <= 13 (5 at P = 10), and at
most 4P / (P - 2) <= 14/3 beyond, since floor(ceil(P/2) / 2) >= (P - 2)/4.
Its maximum is 6, at P = 6.  test_criterion_5 checks achieved >=
ceil(opt / 6) over every G/C chain of 5-14 bases, and a CI step over
every one of 15-17 bases; they pin the worst ratio found at each length
from 5 to 17: 1, 2, 2, 3, 3, 4, 4, 5, 5, 5, 4, 4 and 4.

Planning (choose_fold_point) and building (build_folding) are separate
steps, so a caller can report the plan that was actually built.  The best
edge of each side-role assignment is found in closed form by a binary
search over the position lists: at most (L // 2).bit_length()
comparisons, which _fold_role returns and
test_approx_linear_operation_growth in tests/test_approx.py counts.
Relabelling, listing the matched pairs and the construction are the
linear part.  The construction runs a fixed number of Python lines per
matched pair and lays each run of cells with zip in C, and a chain has
fewer pairs than nodes; test_construction_lines_grow_linearly counts its
lines with sys.settrace.  It checks the walk it built once, in C
(model._is_walk), and calls validate_folding only to name the fault of a
plan that is not a walk.  A random 8000-base G/C chain folds
in 0.014-0.022 s and plans in 0.64-0.91 ms (approx_fold and
choose_fold_point, median of 5 calls on each of 5 chains, the median
over the chains in each of four runs, Python 3.11 on a shared 2-vCPU Xeon
whose speed drifts by up to 2x between runs).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import eq, itemgetter

from .bounds import parity_terms
from .model import COMPLEMENT, Chain, Folding, _is_walk, score, validate_folding

BRANCH_ODDG_EVENC = "oddG/evenC"
BRANCH_EVENG_ODDC = "evenG/oddC"
# Each relabel branch's odd-1 base, which keys its parity_terms term.
_ODD_BASE = {BRANCH_ODDG_EVENC: "G", BRANCH_EVENG_ODDC: "C"}


class ScopeError(ValueError):
    """Chain contains bases outside the G/C scope of the approximation."""


@dataclass(frozen=True)
class RelabeledChain:
    """One relabel branch: the 1-based positions of its odd-1 and even-1
    nodes, each in increasing order."""

    chain: Chain
    branch: str
    odd_one_positions: tuple[int, ...]
    even_one_positions: tuple[int, ...]


@dataclass(frozen=True)
class FoldPlan:
    """A fold edge, the nested bond pairs, and where they came from.

    matched_pairs are (left, right) chain indices, left <= fold_index <
    right, nested outside-in; branch is the relabel branch whose classes
    were paired.
    """

    fold_index: int
    matched_pairs: tuple[tuple[int, int], ...]
    branch: str


def _relabel_as(chain: Chain, branch: str) -> RelabeledChain:
    # odd-1 is the branch's odd-index base, and even-1 its even-index
    # complement; the slices are the ones parity_terms counts.
    odd_base = _ODD_BASE[branch]
    seq, end = chain.seq, len(chain) + 1
    return RelabeledChain(
        chain=chain,
        branch=branch,
        odd_one_positions=tuple(
            compress(range(1, end, 2), map(eq, seq[0::2], repeat(odd_base)))),
        even_one_positions=tuple(
            compress(range(2, end, 2), map(eq, seq[1::2], repeat(COMPLEMENT[odd_base])))),
    )


def relabel(chain: Chain) -> RelabeledChain:
    """The census-preferred branch: the one whose parity_terms term is
    larger, oddG/evenC on a tie."""
    if set(chain.seq) - {"G", "C"}:
        raise ScopeError("the approximation applies to chains over G and C only")
    terms = parity_terms(chain)
    return _relabel_as(chain, max(_ODD_BASE, key=lambda branch: terms[_ODD_BASE[branch]]))


def _fold_role(
    left: tuple[int, ...], right: tuple[int, ...], length: int
) -> tuple[int, int, int, int]:
    """The best fold edge with `left`'s class on the left arm, in closed form.

    Returns (pairs, -|2f - L|, f, probes) for the best edge f; a chain with
    no fold edge (L < 2) gives edge 0 with no pairs.  At edge f the nested
    outside-in pairing takes m pairs exactly when left[m-1] <= f <
    right[-m], so the most any edge takes is M, the number of t with
    left[t] < right[-1-t]; that test is true and then false, so a binary
    search finds M in `probes` comparisons.  The edges that take M pairs
    form the interval [left[M-1], right[-M] - 1].  When that interval is one
    edge, its innermost pair is chain-adjacent and cannot bond, so every
    edge keeps at most M - 1 pairs, and the M - 1 interval holds them (for
    0 pairs, every edge [1, L-1]).  The chosen edge is L // 2 clamped into
    the interval: the one closest to the middle, the smaller on a tie.
    """
    if length < 2:
        return 0, -length, 0, 0
    lo, hi, probes = 0, min(len(left), len(right)), 0
    while lo < hi:
        mid = (lo + hi) // 2
        probes += 1
        if left[mid] < right[-1 - mid]:
            lo = mid + 1
        else:
            hi = mid
    pairs = lo
    if pairs and left[pairs - 1] + 1 == right[-pairs]:
        pairs -= 1
    first, last = (left[pairs - 1], right[-pairs] - 1) if pairs else (1, length - 1)
    f = min(max(length // 2, first), last)
    return pairs, -abs(2 * f - length), f, probes


def choose_fold_point(preferred: RelabeledChain) -> FoldPlan:
    """The plan approx_fold builds from relabel(chain): the fold edge, relabel
    branch and side role with the most pairs.

    The four candidates are both branches, each with either class on the
    left arm; each one's best edge comes from a binary search over its
    position lists (_fold_role), no sweep over the edges.  One max over the
    keys (pairs, branch is preferred.branch, -|2f-L|, odd-1 on the left)
    picks the plan, and the keys never tie: the other branch wins only with
    strictly more pairs, and within a branch ties prefer the edge closest to
    the middle of the chain, then odd-1 on the left arm.  Trying the other
    branch guarantees a bond whenever any folding of the chain has one,
    which the census-preferred branch alone does not: its only pairing can
    be a chain-adjacent, unbondable pair.  The matched pairs are the
    winner's first `pairs` outside-in pairs, built for it only.
    """
    chain = preferred.chain
    other = BRANCH_EVENG_ODDC if preferred.branch == BRANCH_ODDG_EVENC else BRANCH_ODDG_EVENC
    candidates = []  # (key, fold edge, left nodes, right nodes, branch)
    for relabeled in (preferred, _relabel_as(chain, other)):
        odd1, even1 = relabeled.odd_one_positions, relabeled.even_one_positions
        for left, right, odd_left in ((odd1, even1, True), (even1, odd1, False)):
            pairs, centre, f, _ = _fold_role(left, right, len(chain))
            key = (pairs, relabeled is preferred, centre, odd_left)
            candidates.append((key, f, left, right, relabeled.branch))

    (pairs, *_), fold_index, left, right, branch = max(candidates, key=itemgetter(0))
    return FoldPlan(
        fold_index=fold_index,
        matched_pairs=tuple(zip(left[:pairs], right[:-pairs - 1:-1])),
        branch=branch,
    )


def _arm_cells(ends: list[int], col: int, row: int, side: int) -> list[tuple[int, int]]:
    """One arm's cells from its first paired node to its last, in chain order.

    ends are the arm's paired chain indices in chain order.  Each paired
    node sits on `row` in its own column, the first at col and each next
    one 2 * side further.  The (odd) in-between nodes before the next one
    loop away from the interface, inside the two columns they span: a
    single node sits in the column between, and 2h + 1 of them (h >= 1)
    run out along column c, across to the peak in column c + side and back
    to the row.
    The top arm (row 1, side +1) runs east and loops up; the bottom arm
    (row 0, side -1), the top one turned half a turn, runs west and loops
    down.
    """
    cells = []
    for end, nxt in zip(ends, ends[1:]):
        h = (nxt - end - 2) // 2
        peak = row + side * h
        if h > 0:
            cells.append((col, row))
            cells += zip(repeat(col), range(row + side, peak + side, side))
            cells.append((col + side, peak))
            cells += zip(repeat(col + side), range(peak - side, row - side, -side))
        else:  # h == 0; a hand-made plan's h < 0 lays these two cells too
            cells += ((col, row), (col + side, peak))
        col += 2 * side
    cells.append((col, row))
    return cells


def approx_fold(chain: Chain) -> tuple[Folding, int]:
    """Fold the chain with the fold-point construction.

    Returns the folding and the number of bonds it achieves (its exact
    score).  The score is at least the number of matched pairs, which is at
    least floor(min(#odd-1, #even-1) / 2).
    """
    return build_folding(chain, choose_fold_point(relabel(chain)))


def build_folding(chain: Chain, plan: FoldPlan) -> tuple[Folding, int]:
    """Realize a plan: the folding and its exact score, which is at least
    len(plan.matched_pairs)."""
    length = len(chain)
    pairs = plan.matched_pairs
    if not pairs:
        folding = Folding(tuple(zip(range(length), repeat(0))))
        return folding, score(chain, folding)[0]

    # Top arm east from column 0, behind its prefix tail; the connector
    # between the innermost pair round the open end; the bottom arm west
    # under the top one, then its suffix tail.
    k = len(pairs)
    a_in, b_in = pairs[-1]
    half = (b_in - a_in - 1) // 2  # the gap is even: chain-adjacent pairs were dropped
    last = 2 * k - 2
    points = (
        *zip(range(1 - pairs[0][0], 0), repeat(1)),
        *_arm_cells([a for a, _ in pairs], 0, 1, 1),
        *zip(range(last + 1, last + 1 + half), repeat(1)),
        *zip(range(last + half, last, -1), repeat(0)),
        *_arm_cells([b for _, b in reversed(pairs)], last, 0, -1),
        *zip(range(-1, pairs[0][1] - length - 1, -1), repeat(0)),
    )
    # The cells are ints by construction, so one whole-walk check in C
    # replaces validate_folding, which runs only to name a fault.
    if len(points) != length or not _is_walk(points):
        validate_folding(chain, points)
        raise AssertionError("validate_folding accepted a walk the construction check rejected")
    folding = Folding(points)
    achieved = score(chain, folding)[0]
    if achieved < k:
        raise AssertionError("construction must realize every matched pair")
    return folding, achieved


def pair_floor_guarantee(relabeled: RelabeledChain) -> int:
    """floor(min(#odd-1, #even-1) / 2): the construction-level lower bound."""
    return min(len(relabeled.odd_one_positions), len(relabeled.even_one_positions)) // 2
