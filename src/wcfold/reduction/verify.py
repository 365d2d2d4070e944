"""Gadget-level verification by exhaustive search.

Isolated straight sections must fold straight: the hairpinned single-chain
form of a flex or rigid double strand has the antiparallel zipper as its
unique optimal folding.  This is checked exactly with the solver at sizes
where exhaustive search is feasible.
"""

from __future__ import annotations

from ..bounds import hairpin_folding
from ..model import Chain
from ..solver import exact_solve
from ..walks import canonical_moves
from .gadgets import hairpinned_gadget_chain

STRAIGHTNESS_LIMIT = 24


def verify_straightness(kind: str, periods: int, *, workers: int = 1) -> bool:
    """True iff the straight embedding (the 2 x n hairpin) is the unique
    optimal folding of the hairpinned gadget chain, established by
    exhaustive search."""
    seq = hairpinned_gadget_chain(kind, periods)
    if len(seq) > STRAIGHTNESS_LIMIT:
        raise ValueError(
            f"{kind} x {periods} gives a {len(seq)}-base chain, beyond the "
            f"exhaustive-search limit {STRAIGHTNESS_LIMIT}"
        )
    report = exact_solve(Chain(seq), max_length=STRAIGHTNESS_LIMIT, workers=workers)
    if report.optimal_count != 1:
        return False
    straight = hairpin_folding(len(seq) // 2)
    return canonical_moves(report.representatives[0].points) == canonical_moves(straight.points)
