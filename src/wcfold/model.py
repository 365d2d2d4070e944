"""Core model: bases, chains, lattice foldings, contact graphs and bond scores.

A chain is a 1-indexed string over the alphabet A, U, G, C, X.  A folding
embeds the chain into the unit square lattice, one point per node, with
consecutive nodes on adjacent lattice points and no point reused.  Bonds may
form between complementary bases (G-C and A-U; X bonds with nothing) that are
lattice-adjacent but not consecutive in the chain, and every node takes part
in at most one bond.  The score of a folding is the size of a maximum
matching on its contact graph.

All types here are immutable values and all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matching import maximum_bipartite_matching

BASES = frozenset("AUGCX")
COMPLEMENT = {"G": "C", "C": "G", "A": "U", "U": "A"}  # X is absent on purpose

Point = tuple[int, int]
ContactEdge = tuple[int, int]


class ChainParseError(ValueError):
    """Raised for text that is not a valid chain; carries the 1-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


class FoldingValidationError(ValueError):
    """Raised for point lists that are not valid foldings; carries the 1-based index."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def complementary(a: str, b: str) -> bool:
    """True when the two bases can bond (G-C or A-U, either order)."""
    return COMPLEMENT.get(a) == b


@dataclass(frozen=True)
class Chain:
    """An indexed base sequence.  Node i (1-based) carries base ``seq[i-1]``."""

    seq: str

    def __post_init__(self):
        if not self.seq:
            raise ValueError("a chain needs at least one base")
        bad = set(self.seq) - BASES
        if bad:
            raise ValueError(f"invalid bases in chain: {sorted(bad)}")

    def __len__(self) -> int:
        return len(self.seq)

    def __str__(self) -> str:
        return self.seq


def parse_chain(text: str) -> Chain:
    """Parse sequence text into a Chain.

    Whitespace is ignored, letters are case-insensitive, and anything outside
    {A, U, G, C, X} raises ChainParseError naming the offending position
    (counted over the non-whitespace characters).
    """
    cleaned = []
    for ch in text:
        if ch.isspace():
            continue
        up = ch.upper()
        if up not in BASES:
            raise ChainParseError(
                f"invalid base {ch!r} at position {len(cleaned) + 1}", len(cleaned) + 1
            )
        cleaned.append(up)
    if not cleaned:
        raise ChainParseError("empty sequence", 1)
    return Chain("".join(cleaned))


@dataclass(frozen=True)
class Folding:
    """A validated embedding: one lattice point per chain node, in chain order."""

    points: tuple[Point, ...]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def validate_folding(chain: Chain, points) -> Folding:
    """Check self-avoidance and unit steps, returning a Folding.

    Raises FoldingValidationError with the first offending 1-based index:
    the later of a repeated pair of points, or the point that is not one
    unit step from its predecessor.
    """
    pts = tuple((int(x), int(y)) for x, y in points)
    if len(pts) != len(chain):
        raise FoldingValidationError(
            f"folding has {len(pts)} points for a chain of length {len(chain)}",
            len(pts),
        )
    seen: dict[Point, int] = {}
    prev = None
    for i, pt in enumerate(pts, start=1):
        if pt in seen:
            raise FoldingValidationError(
                f"self-intersection at index {i} (point {pt} already used at index {seen[pt]})",
                i,
            )
        seen[pt] = i
        if prev is not None:
            if abs(pt[0] - prev[0]) + abs(pt[1] - prev[1]) != 1:
                raise FoldingValidationError(
                    f"non-unit step at index {i} (from {prev} to {pt})", i
                )
        prev = pt
    return Folding(pts)


def contact_graph(chain: Chain, folding: Folding) -> list[ContactEdge]:
    """Edges (i, j), i < j, between complementary, lattice-adjacent,
    non-consecutive nodes, sorted by (i, j)."""
    index_of = {pt: i for i, pt in enumerate(folding.points, start=1)}
    seq = chain.seq
    edges: list[ContactEdge] = []
    for i, (x, y) in enumerate(folding.points, start=1):
        # Checking only the +x and +y neighbours visits each adjacency once.
        for nb in ((x + 1, y), (x, y + 1)):
            j = index_of.get(nb)
            if j is None:
                continue
            if abs(i - j) < 2:
                continue
            if complementary(seq[i - 1], seq[j - 1]):
                edges.append((i, j) if i < j else (j, i))
    edges.sort()
    return edges


@dataclass(frozen=True)
class BondSet:
    """A matching on the contact graph; its size is the folding's bond count."""

    edges: frozenset[ContactEdge]

    @property
    def size(self) -> int:
        return len(self.edges)


def score(chain: Chain, folding: Folding) -> tuple[int, BondSet]:
    """Maximum number of simultaneous bonds for this folding, with a witness.

    The contact graph is bipartite between odd and even chain indices (a
    consequence of lattice parity), so a maximum bipartite matching gives
    the exact bond count.
    """
    edges = contact_graph(chain, folding)
    matched = maximum_bipartite_matching(edges)
    return len(matched), BondSet(frozenset(matched))
