"""Sequence gadgets for the SAT-to-folding compiler.

A compiled instance is one RNA molecule that traces a routed corridor twice:
an outbound strand carrying only C and A bases and a returning strand
carrying only G and U, zipped antiparallel.  Straight corridor sections use
a 4-cycle pattern (bendable: a two-base alignment shift lands back on the
same pattern phase) or an 8-cycle pattern (rigid: a shift misaligns the
joint bases and costs bonds).  Non-bonding X tails protect the two chain
ends.
"""

from __future__ import annotations

from ..model import COMPLEMENT

FLEX_PERIOD = "CCCA"
RIGID_PERIOD = "CCCCCCCA"
FLEX_COMPLEMENT = "".join(COMPLEMENT[b] for b in FLEX_PERIOD)    # GGGU
RIGID_COMPLEMENT = "".join(COMPLEMENT[b] for b in RIGID_PERIOD)  # GGGGGGGU


def flex_strands(periods: int) -> tuple[str, str]:
    """Bendable straight section: ("CCCA" * n, "GGGU" * n), laid antiparallel."""
    if periods < 1:
        raise ValueError("periods must be at least 1")
    return FLEX_PERIOD * periods, FLEX_COMPLEMENT * periods


def rigid_strands(periods: int) -> tuple[str, str]:
    """Rigid straight section: ("CCCCCCCA" * n, "GGGGGGGU" * n)."""
    if periods < 1:
        raise ValueError("periods must be at least 1")
    return RIGID_PERIOD * periods, RIGID_COMPLEMENT * periods


def hairpinned_gadget_chain(kind: str, periods: int) -> str:
    """The single-chain form of an isolated double-strand section.

    The outbound strand joined to the reversed returning strand, so the
    straight antiparallel embedding is the hairpin that pairs position i
    with position L + 1 - i.
    """
    if kind == "flex":
        a, b = flex_strands(periods)
    elif kind == "rigid":
        a, b = rigid_strands(periods)
    else:
        raise ValueError(f"unknown gadget kind {kind!r}")
    return a + b[::-1]
