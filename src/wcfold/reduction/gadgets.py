"""Sequence gadgets for the SAT-to-folding compiler, and their check.

A compiled instance is one RNA molecule that traces a routed corridor twice:
an outbound strand carrying only C and A bases and a returning strand
carrying only G and U, zipped antiparallel.  Straight corridor sections use
a 4-cycle pattern (bendable: a two-base alignment shift lands back on the
same pattern phase) or an 8-cycle pattern (rigid: a shift misaligns the
joint bases and costs bonds).  Non-bonding X tails protect the two chain
ends.

Isolated straight sections must fold straight: the hairpinned single-chain
form of a flex or rigid double strand has the antiparallel zipper as its
unique optimal folding.  verify_straightness checks this exactly with the
solver at sizes where exhaustive search is feasible.
"""

from __future__ import annotations

from ..bounds import hairpin_folding
from ..model import COMPLEMENT, Chain
from ..solver import exact_solve

# The outbound strand's period for each segment kind; the returning strand
# carries its complement.
PERIODS = {"flex": "CCCA", "rigid": "CCCCCCCA"}

STRAIGHTNESS_LIMIT = 24


def hairpinned_gadget_chain(kind: str, periods: int) -> str:
    """The single-chain form of an isolated double-strand section.

    The outbound strand PERIODS[kind] * periods joined to the reversed
    returning strand (its complement), so the straight antiparallel
    embedding is the hairpin that pairs position i with position L + 1 - i.
    """
    if kind not in PERIODS:
        raise ValueError(f"unknown gadget kind {kind!r}")
    if periods < 1:
        raise ValueError("periods must be at least 1")
    outbound = PERIODS[kind] * periods
    return outbound + "".join(COMPLEMENT[b] for b in reversed(outbound))


def verify_straightness(kind: str, periods: int) -> bool:
    """True iff the straight embedding (the 2 x n hairpin) is the unique
    optimal folding of the hairpinned gadget chain, established by
    exhaustive search in one process.

    The solver's representative and hairpin_folding are both canonical
    walks from the origin (first step +x, first turn left), so the two
    are the same folding exactly when their points are equal.  Raises
    ValueError beyond STRAIGHTNESS_LIMIT bases.
    """
    seq = hairpinned_gadget_chain(kind, periods)
    if len(seq) > STRAIGHTNESS_LIMIT:
        raise ValueError(
            f"{kind} x {periods} gives a {len(seq)}-base chain, beyond the "
            f"exhaustive-search limit {STRAIGHTNESS_LIMIT}"
        )
    report = exact_solve(Chain(seq), max_length=STRAIGHTNESS_LIMIT)
    straight = hairpin_folding(len(seq) // 2)
    return report.optimal_count == 1 and report.representatives[0] == straight
