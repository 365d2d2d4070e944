"""Closed-form upper bounds and the explicit chain/folding families.

Two bounds apply to every folding of a chain:

* the bounding-box bound, n - 1 bonds for a chain of length 2n, from
  counting corner and extreme nodes of the folding's bounding box;
* the parity bound, the sum of parity_terms: bonded nodes sit on adjacent
  lattice points and so have opposite index parity, and each odd-index
  base b bonds only with an even-index COMPLEMENT[b] (model.COMPLEMENT).

The generators build the G^n C^n block family, its 2 x n hairpin folding
(which attains n - 1 bonds and is uniquely optimal for n > 3), and the
mixed-alphabet family G^(m/2) A^(n/2) U^(n/2) C^(m/2).
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import COMPLEMENT, Chain, Folding


def bounding_box_bound(length: int) -> int:
    """Upper bound on bonds for any chain of this length.

    Exact statement for even lengths (length/2 - 1); odd lengths use the
    floor extension (length // 2) - 1.  Never negative.
    """
    if length < 1:
        raise ValueError("length must be positive")
    return max(0, length // 2 - 1)


def bbox_bound_is_extension(length: int) -> bool:
    """True when bounding_box_bound(length) relies on the odd-length extension."""
    return length % 2 == 1


@dataclass(frozen=True)
class ParityCensus:
    """Counts of each bondable base split by 1-based index parity."""

    odd_g: int = 0
    even_g: int = 0
    odd_c: int = 0
    even_c: int = 0
    odd_a: int = 0
    even_a: int = 0
    odd_u: int = 0
    even_u: int = 0

    @property
    def has_au(self) -> bool:
        return bool(self.odd_a or self.even_a or self.odd_u or self.even_u)


def parity_census(chain: Chain) -> ParityCensus:
    """Count bondable bases by index parity (X nodes are not counted)."""
    odd, even = chain.seq[0::2], chain.seq[1::2]  # 1-based odd and even indices
    return ParityCensus(
        odd_g=odd.count("G"), even_g=even.count("G"),
        odd_c=odd.count("C"), even_c=even.count("C"),
        odd_a=odd.count("A"), even_a=even.count("A"),
        odd_u=odd.count("U"), even_u=even.count("U"),
    )


def parity_terms(chain: Chain) -> dict[str, int]:
    """For each base b of model.COMPLEMENT, the bonds that odd-index b
    nodes can make: min(#odd-index b, #even-index COMPLEMENT[b])."""
    odd, even = chain.seq[0::2], chain.seq[1::2]  # 1-based odd and even indices
    return {b: min(odd.count(b), even.count(c)) for b, c in COMPLEMENT.items()}


def parity_bound(chain: Chain) -> int:
    """Parity upper bound on bonds over all foldings of the chain: the sum
    of parity_terms.  The A/U terms are an extension beyond the G/C-only
    statement and are flagged by ParityCensus.has_au for callers that care.
    """
    return sum(parity_terms(chain).values())


def gc_block_chain(n: int) -> Chain:
    """The chain of n G's followed by n C's."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return Chain("G" * n + "C" * n)


def hairpin_folding(n: int) -> Folding:
    """The 2 x n hairpin: nodes 1..n left-to-right on row 0, nodes n+1..2n
    right-to-left on row 1.  Scores n - 1 against gc_block_chain(n)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    bottom = [(x, 0) for x in range(n)]
    top = [(x, 1) for x in range(n - 1, -1, -1)]
    return Folding(tuple(bottom + top))


def mixed_block_chain(m: int, n: int) -> Chain:
    """The chain G^(m/2) A^(n/2) U^(n/2) C^(m/2); m and n must be even
    and at least 0, with m + n at least 2."""
    if m < 0 or n < 0:
        raise ValueError(f"m and n must be at least 0, got m={m}, n={n}")
    if m % 2 or n % 2:
        raise ValueError("m and n must be even")
    if m + n < 2:
        raise ValueError("m + n must be at least 2")
    h_m, h_n = m // 2, n // 2
    return Chain("G" * h_m + "A" * h_n + "U" * h_n + "C" * h_m)
