"""Constant-factor approximate folding for G/C chains.

The chain is first relabeled by parity dominance: whichever of the pairings
(odd-G with even-C) or (even-G with odd-C) admits more bonds keeps its two
classes, renamed odd-1 and even-1, and every other node becomes a 0.  This
throws away at most half of the parity bound.  A fold-point sweep then picks
a chain edge and pairs odd-1 nodes on one side with even-1 nodes on the
other, outside-in, which always yields at least floor(min(#odd-1,
#even-1) / 2) nested pairs.  The folding realizes one bond per pair: the two
arms run along two adjacent rows, each pair sits in its own column, the
leftover nodes between consecutive paired nodes loop away from the
interface inside the two columns they span, and the stretch between the
innermost pair routes around the open end.

Planning (plan_fold) and building (build_folding) are separate steps, so a
caller can report the plan that was actually built.  The sweep makes one
pass per side-role assignment, fewer than 4L steps per relabel branch
(fold edges visited plus pointer advances);
test_approx_linear_operation_growth in tests/test_approx.py counts them.  The construction places each node once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import parity_census
from .model import Chain, Folding, score, validate_folding

LABEL_ODD1 = "odd-1"
LABEL_EVEN1 = "even-1"
LABEL_ZERO = "0"

BRANCH_ODDG_EVENC = "oddG/evenC"
BRANCH_EVENG_ODDC = "evenG/oddC"


class ScopeError(ValueError):
    """Chain contains bases outside the G/C scope of the approximation."""


@dataclass(frozen=True)
class RelabeledChain:
    chain: Chain
    labels: tuple[str, ...]
    branch: str

    @property
    def odd_one_positions(self) -> tuple[int, ...]:
        return tuple(i for i, lab in enumerate(self.labels, 1) if lab == LABEL_ODD1)

    @property
    def even_one_positions(self) -> tuple[int, ...]:
        return tuple(i for i, lab in enumerate(self.labels, 1) if lab == LABEL_EVEN1)


@dataclass(frozen=True)
class FoldPlan:
    """A fold edge, the nested bond pairs, and where they came from.

    matched_pairs are (left, right) chain indices, left <= fold_index <
    right, nested outside-in.  left_class is the label class on the left
    arm, and branch is the relabel branch whose classes were paired.
    """

    fold_index: int
    matched_pairs: tuple[tuple[int, int], ...]
    left_class: str
    branch: str


def _relabel_as(chain: Chain, branch: str) -> RelabeledChain:
    if branch == BRANCH_ODDG_EVENC:
        ones = {("G", 1): LABEL_ODD1, ("C", 0): LABEL_EVEN1}
    else:
        ones = {("G", 0): LABEL_EVEN1, ("C", 1): LABEL_ODD1}
    labels = tuple(
        ones.get((b, i % 2), LABEL_ZERO) for i, b in enumerate(chain.seq, 1)
    )
    return RelabeledChain(chain=chain, labels=labels, branch=branch)


def relabel(chain: Chain) -> RelabeledChain:
    """Rename the dominant parity classes to odd-1/even-1, the rest to 0."""
    if set(chain.seq) - {"G", "C"}:
        raise ScopeError("the approximation applies to chains over G and C only")
    c = parity_census(chain)
    if min(c.odd_g, c.even_c) >= min(c.even_g, c.odd_c):
        return _relabel_as(chain, BRANCH_ODDG_EVENC)
    return _relabel_as(chain, BRANCH_EVENG_ODDC)


def _pairing(left: tuple[int, ...], right: tuple[int, ...], take: int) -> list[tuple[int, int]]:
    """Nested outside-in pairing of the first `take` left nodes with the
    last `take` right nodes.  A chain-adjacent innermost pair cannot bond
    (it only occurs when the fold edge sits exactly between the two), so it
    is dropped; the sweep then prefers fold edges without the defect."""
    pairs = [(left[t], right[len(right) - 1 - t]) for t in range(take)]
    if pairs and pairs[-1][1] == pairs[-1][0] + 1:
        pairs.pop()
    return pairs


def _sweep_role(
    left: tuple[int, ...], right: tuple[int, ...], length: int
) -> tuple[int, int, int, int, int]:
    """One pass over the fold edges with `left`'s class on the left arm.

    Returns (pairs, -|2f - L|, f, take, steps) for the best edge f; ties
    keep the smaller edge.  As f moves right, a pointer into each position
    list counts that class's nodes at or left of f, so take = min(#left <=
    f, #right > f) needs no rescan.  _pairing drops the innermost pair when
    it is chain-adjacent, which happens exactly when the take-th left node
    is f and its partner is f + 1, so that is one lookup too.  steps counts
    the fold edges visited plus the pointer advances.
    """
    n_left, n_right = len(left), len(right)
    i = j = 0  # nodes of each class at or left of the fold edge
    steps = 0
    best_pairs, best_centre, best_f, best_take = -1, 0, 0, 0
    for f in range(1, length):
        steps += 1
        while i < n_left and left[i] <= f:
            i += 1
            steps += 1
        while j < n_right and right[j] <= f:
            j += 1
            steps += 1
        # min(i, n_right - j) inline: the call took a third of the pass
        take = i if i < n_right - j else n_right - j
        pairs = take
        if take and left[take - 1] == f and right[n_right - take] == f + 1:
            pairs -= 1
        if pairs >= best_pairs:
            centre = -abs(2 * f - length)
            if pairs > best_pairs or centre > best_centre:
                best_pairs, best_centre, best_f, best_take = pairs, centre, f, take
    return best_pairs, best_centre, best_f, best_take, steps


def choose_fold_point(relabeled: RelabeledChain, *, _stats: dict | None = None) -> FoldPlan:
    """Sweep every fold edge and side-role assignment for the most pairs.

    Ties prefer the fold edge closest to the middle of the chain, then the
    smaller edge, then odd-1 on the left arm.  Each role is one linear
    pass (_sweep_role); the keys (pairs, -|2f-L|, role preference) of the
    two roles never tie, so the better of the two per-role bests is the
    best overall.  Pairs are built for the winning edge only.  With
    _stats, "sweep_steps" is set to the steps both passes took.
    """
    length = len(relabeled.chain)
    branch = relabeled.branch
    if length < 2:
        return FoldPlan(fold_index=0, matched_pairs=(), left_class=LABEL_ODD1, branch=branch)
    odd1 = relabeled.odd_one_positions
    even1 = relabeled.even_one_positions

    best = None  # (key, fold edge, left nodes, right nodes, take, left class)
    steps = 0
    for left, right, left_class, pref in (
        (odd1, even1, LABEL_ODD1, 1),
        (even1, odd1, LABEL_EVEN1, 0),
    ):
        pairs, centre, f, take, role_steps = _sweep_role(left, right, length)
        steps += role_steps
        key = (pairs, centre, pref)
        if best is None or key > best[0]:
            best = (key, f, left, right, take, left_class)

    if _stats is not None:
        _stats["sweep_steps"] = steps
    _, fold_index, left, right, take, left_class = best
    return FoldPlan(
        fold_index=fold_index,
        matched_pairs=tuple(_pairing(left, right, take)),
        left_class=left_class,
        branch=branch,
    )


def plan_fold(chain: Chain) -> FoldPlan:
    """The plan approx_fold builds: both relabel branches are swept and the
    one with more pairs wins (the census-preferred branch on ties).

    This costs nothing asymptotically and guarantees a bond whenever any
    folding of the chain has one, which the single census-chosen branch
    does not: its only pairing can be a chain-adjacent, unbondable pair.
    """
    preferred = relabel(chain)
    other = _relabel_as(
        chain,
        BRANCH_EVENG_ODDC
        if preferred.branch == BRANCH_ODDG_EVENC
        else BRANCH_ODDG_EVENC,
    )
    plan = choose_fold_point(preferred)
    alt = choose_fold_point(other)
    if len(alt.matched_pairs) > len(plan.matched_pairs):
        return alt
    return plan


def _loop_cells_top(col: int, count: int) -> list[tuple[int, int]]:
    """Cells for `count` (odd) in-between nodes from column col to col+2 on
    the top row, looping upward inside columns col and col+1."""
    if count == 1:
        return [(col + 1, 1)]
    h = (count - 1) // 2
    cells = [(col, 1 + k) for k in range(1, h + 1)]
    cells.append((col + 1, 1 + h))
    cells.extend((col + 1, y) for y in range(h, 0, -1))
    return cells


def approx_fold(chain: Chain) -> tuple[Folding, int]:
    """Fold the chain with the fold-point construction.

    Returns the folding and the number of bonds it achieves (its exact
    score).  The score is at least the number of matched pairs, which is at
    least floor(min(#odd-1, #even-1) / 2).
    """
    return build_folding(chain, plan_fold(chain))


def build_folding(chain: Chain, plan: FoldPlan) -> tuple[Folding, int]:
    """Realize a plan: the folding and its exact score, which is at least
    len(plan.matched_pairs)."""
    length = len(chain)
    pairs = plan.matched_pairs
    if not pairs:
        folding = Folding(tuple((x, 0) for x in range(length)))
        return folding, score(chain, folding)[0]

    k = len(pairs)
    cells: dict[int, tuple[int, int]] = {}

    # Top arm: prefix tail west of column 0, pairs at even columns.
    a_first = pairs[0][0]
    for node in range(1, a_first):
        cells[node] = (node - a_first, 1)
    for t, (a, _) in enumerate(pairs):
        cells[a] = (2 * t, 1)
        if t + 1 < k:
            gap = pairs[t + 1][0] - a - 1
            for node, cell in zip(range(a + 1, pairs[t + 1][0]), _loop_cells_top(2 * t, gap)):
                cells[node] = cell

    # Open-end connector between the innermost pair.
    a_in, b_in = pairs[-1]
    gap = b_in - a_in - 1  # even and >= 2: chain-adjacent pairs were dropped
    half = gap // 2
    col0 = 2 * (k - 1)
    conn = [(col0 + 1 + j, 1) for j in range(half)]
    conn.append((col0 + half, 0))
    conn.extend((col0 + half - 1 - j, 0) for j in range(half - 1))
    for node, cell in zip(range(a_in + 1, b_in), conn):
        cells[node] = cell

    # Bottom arm: pairs mirror the top columns, suffix tail west of column 0.
    for t in range(k - 1, -1, -1):
        b = pairs[t][1]
        cells[b] = (2 * t, 0)
        if t > 0:
            gap = pairs[t - 1][1] - b - 1
            # The top loop turned half a turn about (2t, 1/2): from column 2t
            # to 2t-2 on the bottom row, looping downward.
            for node, (x, y) in zip(range(b + 1, pairs[t - 1][1]), _loop_cells_top(2 * t, gap)):
                cells[node] = (4 * t - x, 1 - y)
    b_first = pairs[0][1]
    for node in range(b_first + 1, length + 1):
        cells[node] = (b_first - node, 0)

    folding = validate_folding(chain, [cells[i] for i in range(1, length + 1)])
    achieved = score(chain, folding)[0]
    if achieved < k:
        raise AssertionError("construction must realize every matched pair")
    return folding, achieved


def pair_floor_guarantee(relabeled: RelabeledChain) -> int:
    """floor(min(#odd-1, #even-1) / 2): the construction-level lower bound."""
    return min(len(relabeled.odd_one_positions), len(relabeled.even_one_positions)) // 2
