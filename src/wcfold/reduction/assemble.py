"""Compile a routed layout into a single RNA chain with intended foldings.

The route is traced by a turtle.  The outbound strand (C/A bases only)
occupies the route cells; the returning strand (G/U only) occupies the
track one cell to the LEFT of travel, traversed backwards by the molecule,
so the two strands zip antiparallel along every straight stretch.  The
molecule is

    X-tail + outbound strand + turnaround + returning strand + X-tail

with the turnaround at the route's far end and both tails fixed
rectangles anchored at the route start, which every layout shares.

Turn mechanics (the returning strand sits left of travel):

* left turn: the inner track pinches, so the corner and its following
  route cell have no partners.  Fixed left turns fill those two cells with
  non-bonding-by-position spacer bases ("fillers", excluded from the
  bondable count); variable turns leave two pattern bases unbound there,
  which is exactly their cost.
* right turn: the outer track spends two extra cells (the corner diagonal
  and its flank).  Fixed right turns put fillers there; variable turns
  leave two pattern bases unbound.

Either way one turn shifts the zip alignment by two bases.  A variable
turn's two realizations shift by +2 and -2, which land on the same phase
of the 4-cycle flex pattern, so flex corridors re-zip under every
assignment; the 8-cycle rigid pattern does not absorb the shift, which is
what makes rigid clause couplings (and rigidity in general) work.  The
assembler slides each variable turn forward by at most one cell so that
both bend directions strand exactly two bases (the route may turn at
either position around the intended corner without changing the
bookkeeping).

One trace routine builds the molecule and re-traces every assignment.
Both bend directions of a variable turn draw two flex bases, and a slide
depends only on the declared true direction, so the base streams, the
slides and the outbound strand are the same under every assignment; only
the cells move.

Counting: with Z zip pairs and t variable turns, bondable = 2Z + 2t and
the bond target is k = bondable / 2 - t = Z, achieved exactly by the
intended folding of the building (all-true) assignment.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import chain as _chain, compress, repeat
from operator import itemgetter

from ..bounds import hairpin_folding
from ..model import COMPLEMENT, Chain, Folding, Point, _is_walk, complementary, score, validate_folding
from .gadgets import PERIODS
from .layout import LayoutError, SatLayout, Segment, Turn, _opposite

_LEFT = {(1, 0): (0, 1), (0, 1): (-1, 0), (-1, 0): (0, -1), (0, -1): (1, 0)}
_RIGHT = {v: k for k, v in _LEFT.items()}
_COMPLEMENT_BASES = str.maketrans(COMPLEMENT)


def _step(cell: Point, heading: Point) -> Point:
    return cell[0] + heading[0], cell[1] + heading[1]


def _line(first: Point, heading: Point, n: int) -> Iterator[Point]:
    """n cells from first, one step apart along heading."""
    (x, y), (dx, dy) = first, heading
    return zip(range(x, x + dx * n, dx) if dx else repeat(x, n),
               range(y, y + dy * n, dy) if dy else repeat(y, n))


class _Tracer:
    """One pass over the route for one assignment: the cells and bases of
    both strands as (cell, base) records, base None for a spacer, and the
    zip pairs as (outbound, returning) record indices."""

    START = (0, 0)  # every trace starts here heading east

    def __init__(self, layout: SatLayout, directions: dict[str, bool]):
        self.layout = layout
        self.directions = directions
        self.pos = self.START
        self.heading = (1, 0)
        self.drawn = dict.fromkeys(PERIODS, 0)  # bases drawn from each pattern
        self.a: list[tuple[Point, str | None]] = []
        self.b: list[tuple[Point, str | None]] = []
        self.zips: list[tuple[int, int]] = []

    def _draw(self, kind: str, n: int) -> str:
        """The next n bases of the kind's pattern stream."""
        period = PERIODS[kind]
        drawn = self.drawn[kind]
        self.drawn[kind] = drawn + n
        phase = drawn % len(period)
        return (period * ((phase + n) // len(period) + 1))[phase:phase + n]

    def _zip(self, first: Point, heading: Point, n: int, kind: str) -> None:
        """n route cells from first along heading, each zipped with its
        partner one cell left of travel.  The last of them becomes pos."""
        bases = self._draw(kind, n)
        a, b = self.a, self.b
        self.zips += zip(range(len(a), len(a) + n), range(len(b), len(b) + n))
        a += zip(_line(first, heading, n), bases)
        b += zip(_line(_step(first, _LEFT[heading]), heading, n),
                 bases.translate(_COMPLEMENT_BASES))
        self.pos = a[-1][0]

    def run(self) -> None:
        self._zip(self.pos, self.heading, 1, "flex")  # route origin
        for elem in self.layout.elements:
            if isinstance(elem, Segment):
                self._zip(_step(self.pos, self.heading), self.heading, elem.cells, elem.kind)
            else:
                self._turn(elem)
        # The molecule turnaround: one spacer on each strand, chain-joined.
        a_tip = _step(self.pos, self.heading)
        self.a.append((a_tip, None))
        self.b.append((_step(a_tip, _LEFT[self.heading]), None))

    def _turn(self, turn: Turn) -> None:
        """Bend the corridor.  Either direction leaves two cells unpartnered:
        on a variable turn they hold pattern bases (its cost), on a fixed
        turn spacers."""
        variable = turn.variable is not None
        realized = turn.direction
        if variable:
            if not self.directions[turn.variable]:
                realized = _opposite(realized)
            self._slide(turn)
        h = self.heading
        new_h = _LEFT[h] if realized == "left" else _RIGHT[h]
        corner = _step(self.pos, h)
        post = _step(corner, new_h)
        if realized == "left":
            # The inner track pinches: the corner and the cell after it.
            self.a += zip((corner, post), self._draw("flex", 2) if variable else (None, None))
        else:
            # The outer track spends the corner diagonal and its flank.  On a
            # variable turn their bases pair two cells back along the
            # corridor in the mirrored (left) realization of the same
            # molecule, which pins them.
            self._zip(corner, h, 1, "flex")
            diag = _step(_step(corner, _LEFT[h]), h)
            flank = _step(corner, h)
            for cell, back in ((diag, -4), (flank, -3)):
                self.b.append((cell, COMPLEMENT[self.a[back][1]] if variable else None))
            self._zip(post, new_h, 1, "flex")
        self.pos = post
        self.heading = new_h

    def _slide(self, turn: Turn) -> None:
        """Advance so both bend directions strand exactly two bases.

        The corner's flex-stream phase must be even when the declared true
        direction is left and odd when it is right.  One cell flips the
        phase, so the slide is zero or one cell; the corridor may turn at
        either position.
        """
        if (self.drawn["flex"] % 2 == 1) != (turn.direction == "right"):
            self._zip(_step(self.pos, self.heading), self.heading, 1, "flex")


def _tail_cells(length: int, x: int, y: int) -> tuple[Point, ...]:
    """An X tail: the 2 x (length/2) hairpin of bounds.hairpin_folding,
    transposed and moved to start at (x, y), so that it runs north up
    column x and back down column x + 1.  length is even and at least 4."""
    return tuple((x + dy, y + dx) for dx, dy in hairpin_folding(length // 2).points)


# The X tails' first cells.  The lead tail ends west of the route start
# (x, y); the end tail starts north of the returning strand's end (x, y + 1).
_LEAD_TAIL = (_Tracer.START[0] - 2, _Tracer.START[1])
_END_TAIL = (_Tracer.START[0], _Tracer.START[1] + 2)


def _with_tails(route: tuple[Point, ...], tail_length: int) -> tuple[Point, ...]:
    """The whole molecule's cells: lead tail, route, end tail."""
    return _tail_cells(tail_length, *_LEAD_TAIL) + route + _tail_cells(tail_length, *_END_TAIL)


# The four columns that the tails fill.
_TAIL_COLUMNS = frozenset(x for x0, _ in (_LEAD_TAIL, _END_TAIL) for x in (x0, x0 + 1))


def _hits_tail(cells: Sequence[Point], tail_length: int) -> bool:
    """Whether any of cells lies in the rectangle that either tail fills:
    two columns from its first cell (x, y) up to row y + tail_length/2 - 1.
    Only the few cells in the tails' columns, picked out in C, are tested."""
    rows = tail_length // 2
    near = compress(cells, map(_TAIL_COLUMNS.__contains__, map(itemgetter(0), cells)))
    return any(x0 <= x <= x0 + 1 and y0 <= y < y0 + rows
               for x, y in near for x0, y0 in (_LEAD_TAIL, _END_TAIL))


@dataclass(frozen=True)
class ReductionInstance:
    """A compiled decision instance: find a folding with at least k bonds.
    It holds no per-assignment state; tail_length alone fixes the tails."""

    chain: Chain
    k: int
    t: int
    bondable: int
    tail_length: int
    layout: SatLayout
    zip_pairs: tuple[tuple[int, int], ...]       # molecule index pairs

    def route(self, assignment: dict[str, bool]) -> tuple[Point, ...]:
        """The assignment's route cells, outbound then returning, checked.

        The tails are fixed rectangles anchored at the route start, so only
        the route is checked: as a walk from the lead tail's last cell to
        the end tail's first, and against the rectangles the tails fill.
        A route that fails is re-checked as the whole molecule by
        validate_folding, whose error names its first offending index.

        Raises LayoutError when the assignment leaves out a layout variable
        or names one the layout does not declare, or when its route
        crosses itself or a tail.
        """
        missing = [v for v in self.layout.variables if v not in assignment]
        if missing:
            raise LayoutError(f"assignment missing variables {missing}")
        unknown = sorted(set(assignment) - set(self.layout.variables))
        if unknown:
            raise LayoutError(f"assignment names unknown variables {unknown}")
        tracer = _Tracer(self.layout, {v: bool(assignment[v]) for v in self.layout.variables})
        tracer.run()
        return self._checked_route(tracer)

    def _checked_route(self, tracer: _Tracer) -> tuple[Point, ...]:
        """The trace's route cells, outbound then returning, checked as
        route describes."""
        route = tuple(map(itemgetter(0), _chain(tracer.a, reversed(tracer.b))))
        lead_end = (_LEAD_TAIL[0] + 1, _LEAD_TAIL[1])
        if not _is_walk((lead_end,) + route + (_END_TAIL,)) or _hits_tail(route, self.tail_length):
            try:
                validate_folding(self.chain, _with_tails(route, self.tail_length))
            except ValueError as exc:
                raise LayoutError(f"route crosses itself: {exc}") from exc
            raise AssertionError("the route check rejected a valid walk")
        return route

    def intended_folding(self, assignment: dict[str, bool]) -> Folding:
        """The assignment's folding: lead tail, route (checked by route),
        end tail.  Raises LayoutError as route does."""
        return Folding(_with_tails(self.route(assignment), self.tail_length))

    @property
    def build_assignment(self) -> dict[str, bool]:
        return {v: True for v in self.layout.variables}


def _choose_filler_bases(tracer: _Tracer) -> dict[Point, str]:
    """The base of every traced cell.  Spacer cells get bases from their
    strand's palette that cannot bond with any geometric neighbour, so they
    stay structural; each choice is seen by the spacers filled after it.
    The outbound palette is the gadget periods' bases in order of first
    appearance (C, A), the returning palette their complements (G, U)."""
    bases = dict(tracer.a + tracer.b)
    outbound = tuple(dict.fromkeys("".join(PERIODS.values())))
    returning = tuple(COMPLEMENT[b] for b in outbound)
    for records, palette in ((tracer.a, outbound), (tracer.b, returning)):
        for cell, base in records:
            if base is not None:
                continue
            x, y = cell
            around = ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))
            neighbour_bases = {bases.get(nb) for nb in around}
            for filler in palette:
                if COMPLEMENT[filler] not in neighbour_bases:
                    bases[cell] = filler
                    break
            else:
                raise AssertionError(f"no safe spacer base at {cell}; gadget geometry broken")
    return bases


def assemble(layout: SatLayout) -> ReductionInstance:
    """Compile the layout into a ReductionInstance.

    Raises LayoutError for invalid layouts, including a route that crosses
    itself for the building assignment.  k is certified without scoring:
    every zip pair must be a contact of the building route, which gives
    that route a matching of k bonds, and AssertionError names the first
    pair that is not.  The route check is the only check of the folding's
    geometry.
    """
    directions = {v: True for v in layout.variables}
    tracer = _Tracer(layout, directions)
    tracer.run()
    pattern_nodes = sum(base is not None for _, base in tracer.a + tracer.b)
    bases = _choose_filler_bases(tracer)

    a_len, b_len = len(tracer.a), len(tracer.b)
    tail_required = math.ceil(((a_len + b_len) / 2) ** 2)
    tail_length = tail_required + tail_required % 2

    seq = (
        "X" * tail_length
        + "".join(bases[cell] for cell, _ in tracer.a)
        + "".join(bases[cell] for cell, _ in reversed(tracer.b))
        + "X" * tail_length
    )
    chain = Chain(seq)

    # 1-based molecule indices: tail, outbound, returning (reversed), tail.
    zip_pairs = tuple((tail_length + 1 + ai, tail_length + a_len + b_len - bi)
                      for ai, bi in tracer.zips)

    t = layout.turn_count
    if pattern_nodes != 2 * len(tracer.zips) + 2 * t:
        raise AssertionError(
            f"bookkeeping broken: {pattern_nodes} bondable nodes vs "
            f"{len(tracer.zips)} zips and {t} variable turns"
        )
    k = pattern_nodes // 2 - t

    instance = ReductionInstance(
        chain=chain,
        k=k,
        t=t,
        bondable=pattern_nodes,
        tail_length=tail_length,
        layout=layout,
        zip_pairs=zip_pairs,
    )
    _certify_k(instance, tracer)
    return instance


def _certify_k(instance: ReductionInstance, tracer: _Tracer) -> None:
    """Check the building trace's route, and that its k zip pairs are a
    matching of contacts of that route: each pair has lattice-adjacent
    cells and complementary bases and is not chain neighbours, and no two
    pairs share a node.  The route then scores at least k, and no matching
    is run.  Raises AssertionError naming the first pair that is no
    contact."""
    route = instance._checked_route(tracer)
    seq, start, k = instance.chain.seq, instance.tail_length, instance.k
    for i, j in instance.zip_pairs:
        (xi, yi), (xj, yj) = route[i - start - 1], route[j - start - 1]
        adjacent = abs(xi - xj) + abs(yi - yj) == 1
        if not adjacent or not complementary(seq[i - 1], seq[j - 1]) or j - i < 2:
            raise AssertionError(
                f"zip pair {(i, j)} is not a contact of the building route, "
                f"so k = {k} is not certified"
            )
    if len(set(_chain.from_iterable(instance.zip_pairs))) != 2 * k:
        raise AssertionError(f"zip pairs share a node, so k = {k} is not certified")


def verify_instance(instance: ReductionInstance, assignment: dict[str, bool]) -> tuple[int, bool]:
    """Trace and check the assignment's route and count its bonds against k.
    Only the route is scored: X bonds with nothing, and the route's slice
    of the chain keeps chain adjacency, so the count is the molecule's."""
    route = instance.route(assignment)
    start = instance.tail_length
    bonds = score(Chain(instance.chain.seq[start:start + len(route)]), Folding(route))[0]
    return bonds, bonds >= instance.k
