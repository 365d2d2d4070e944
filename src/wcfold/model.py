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
from itertools import chain as _chain, compress
from operator import itemgetter, sub

from .matching import maximum_bipartite_matching

BASES = frozenset("AUGCX")
_BASE_BYTES = "".join(BASES).encode("ascii")
COMPLEMENT = {"G": "C", "C": "G", "A": "U", "U": "A"}  # X is absent on purpose


def _mask(base: str) -> bytes:
    """A bytes.translate table that maps base to 1 and every other byte to 0."""
    table = bytearray(256)
    table[ord(base)] = 1
    return bytes(table)


# Each bond's two bases, as masks: the side that looks around, then the
# side that it finds.
_BOND_SIDES = tuple((_mask(base), _mask(COMPLEMENT[base])) for base in "GA")

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
        # Deleting the alphabet's bytes leaves only the strays, in C; text
        # that is not ASCII holds a stray by definition.
        try:
            stray = self.seq.encode("ascii").translate(None, _BASE_BYTES)
        except UnicodeEncodeError:
            stray = True
        if stray:
            raise ValueError(f"invalid bases in chain: {sorted(set(self.seq) - BASES)}")

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


_UNIT_STEPS = frozenset({(1, 0), (-1, 0), (0, 1), (0, -1)})


def validate_folding(chain: Chain, points) -> Folding:
    """Check integer coordinates, self-avoidance and unit steps, returning
    a Folding.

    Every point is unpacked as a pair and each coordinate coerced with
    int(); ints, bools and integral floats pass.  Raises
    FoldingValidationError with the first offending 1-based index: a point
    with a coordinate that int() changes (1.9, say) or cannot take (an
    infinity), the later of a repeated pair of points, or the point that is
    not one unit step from its predecessor.
    """
    raw = list(points)
    try:
        ints = [(int(x), int(y)) for x, y in raw]
    except OverflowError:  # an infinity
        _raise_first_fraction(raw)
    # Tuple points whose coordinates int() keeps compare equal at once;
    # list points fall back to comparing the flat coordinates.
    if ints != raw and list(_chain.from_iterable(ints)) != list(_chain.from_iterable(raw)):
        _raise_first_fraction(raw)
    pts = tuple(ints)
    if len(pts) != len(chain):
        raise FoldingValidationError(
            f"folding has {len(pts)} points for a chain of length {len(chain)}",
            len(pts),
        )
    if not _is_walk(pts):
        _raise_first_fault(pts)
    return Folding(pts)


def _is_walk(pts: tuple[Point, ...]) -> bool:
    """Whether pts reuses no point and moves one unit step at a time.

    Whole-walk checks in C; _raise_first_fault's loop runs only to name
    the first fault.
    """
    xs = list(map(itemgetter(0), pts))
    ys = list(map(itemgetter(1), pts))
    steps = zip(map(sub, xs[1:], xs), map(sub, ys[1:], ys))
    return len(set(pts)) == len(pts) and _UNIT_STEPS.issuperset(steps)


def _raise_first_fraction(raw: list) -> None:
    """Raise FoldingValidationError for the first point of raw with a
    coordinate that int() changes or cannot take (an infinity)."""
    for i, (x, y) in enumerate(raw, start=1):
        try:
            changed = (int(x), int(y)) != (x, y)
        except OverflowError:
            changed = True
        if changed:
            raise FoldingValidationError(
                f"non-integer coordinate at index {i} (point {(x, y)})", i
            )


def _raise_first_fault(pts: tuple[Point, ...]) -> None:
    """Raise FoldingValidationError for the first repeated point or
    non-unit step in pts, scanning in chain order."""
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


def contact_graph(chain: Chain, folding: Folding) -> list[ContactEdge]:
    """Edges (i, j), i < j, between complementary, lattice-adjacent,
    non-consecutive nodes, sorted by (i, j).

    Every contact joins a G or A node to its complement, C or U, so the
    lookup runs from one side only: the points of the C nodes and of the U
    nodes are indexed, and each G and A node looks up its four neighbours
    in its complement's index, which finds each contact once.  The nodes
    of a base are picked out in C, by a byte mask; X nodes are never
    indexed or visited.
    """
    raw = chain.seq.encode("ascii")
    points = folding.points
    nodes = range(1, len(raw) + 1)
    edges: list[ContactEdge] = []
    for base_mask, want_mask in _BOND_SIDES:
        keep = raw.translate(want_mask)
        partner_at = dict(zip(compress(points, keep), compress(nodes, keep)))
        if not partner_at:
            continue
        get = partner_at.get
        keep = raw.translate(base_mask)
        for i, (x, y) in zip(compress(nodes, keep), compress(points, keep)):
            for j in (get((x + 1, y)), get((x - 1, y)), get((x, y + 1)), get((x, y - 1))):
                if j and i - j not in (1, -1):  # chain neighbours cannot bond
                    edges.append((i, j) if i < j else (j, i))
    edges.sort()
    return edges


@dataclass(frozen=True)
class BondSet:
    """A matching on the contact graph; len(edges) is the folding's bond count."""

    edges: frozenset[ContactEdge]


def score(chain: Chain, folding: Folding) -> tuple[int, BondSet]:
    """Maximum number of simultaneous bonds for this folding, with a witness.

    The contact graph is bipartite between odd and even chain indices (a
    consequence of lattice parity), so a maximum bipartite matching gives
    the exact bond count.
    """
    edges = contact_graph(chain, folding)
    matched = maximum_bipartite_matching(edges)
    return len(matched), BondSet(frozenset(matched))
