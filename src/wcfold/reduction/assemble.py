"""Compile a routed layout into a single RNA chain with intended foldings.

The route is traced by a turtle.  The outbound strand (C/A bases only)
occupies the route cells; the returning strand (G/U only) occupies the
track one cell to the LEFT of travel, traversed backwards by the molecule,
so the two strands zip antiparallel along every straight stretch.  The
molecule is

    X-tail + outbound strand + turnaround + returning strand + X-tail

with both tails anchored at the route start and the turnaround at its far
end.

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
from dataclasses import dataclass, field

from ..bounds import hairpin_folding
from ..model import COMPLEMENT, Chain, Folding, Point, validate_folding, score
from .gadgets import PERIODS
from .layout import LayoutError, SatLayout, Segment, Turn, _opposite

_LEFT = {(1, 0): (0, 1), (0, 1): (-1, 0), (-1, 0): (0, -1), (0, -1): (1, 0)}
_RIGHT = {v: k for k, v in _LEFT.items()}


def _step(cell: Point, heading: Point) -> Point:
    return cell[0] + heading[0], cell[1] + heading[1]


@dataclass
class _Emission:
    cell: Point
    base: str | None  # None marks a spacer until _choose_filler_bases fills it


class _Tracer:
    """One pass over the route for one assignment: the cells and bases of
    both strands, the zip pairs and the bases each variable turn strands."""

    def __init__(self, layout: SatLayout, directions: dict[str, bool]):
        self.layout = layout
        self.directions = directions
        self.pos = (0, 0)
        self.heading = (1, 0)
        self.drawn = dict.fromkeys(PERIODS, 0)  # bases drawn from each pattern
        self.a: list[_Emission] = []
        self.b: list[_Emission] = []
        self.zips: list[tuple[int, int]] = []
        self.unbound: dict[str, list[tuple[str, int]]] = {}

    def _next_base(self, kind: str) -> str:
        period = PERIODS[kind]
        base = period[self.drawn[kind] % len(period)]
        self.drawn[kind] += 1
        return base

    def _emit(self, strand: str, cell: Point, base: str | None = None) -> tuple[str, int]:
        emissions = self.a if strand == "a" else self.b
        emissions.append(_Emission(cell, base))
        return strand, len(emissions) - 1

    def _zip(self, cell: Point, heading: Point, kind: str) -> None:
        """A route cell and its partner one cell left of travel, zipped."""
        base = self._next_base(kind)
        _, ai = self._emit("a", cell, base)
        _, bi = self._emit("b", _step(cell, _LEFT[heading]), COMPLEMENT[base])
        self.zips.append((ai, bi))

    def _straight(self, kind: str) -> None:
        self.pos = _step(self.pos, self.heading)
        self._zip(self.pos, self.heading, kind)

    def run(self) -> None:
        self._zip(self.pos, self.heading, "flex")  # route origin
        for elem in self.layout.elements:
            if isinstance(elem, Segment):
                for _ in range(elem.cells):
                    self._straight(elem.kind)
            else:
                self._turn(elem)
        # The molecule turnaround: one spacer on each strand, chain-joined.
        a_tip = _step(self.pos, self.heading)
        self._emit("a", a_tip)
        self._emit("b", _step(a_tip, _LEFT[self.heading]))

    def _turn(self, turn: Turn) -> None:
        """Bend the corridor.  Either direction leaves two cells unpartnered:
        on a variable turn they hold pattern bases (its cost), on a fixed
        turn spacers."""
        variable = turn.kind == "variable"
        if variable:
            want = self.directions.get(turn.variable)
            if want is None:
                raise LayoutError(f"assignment missing variable {turn.variable}")
            realized = turn.true_direction if want else _opposite(turn.true_direction)
            self._slide(turn)
        else:
            realized = turn.direction
        h = self.heading
        new_h = _LEFT[h] if realized == "left" else _RIGHT[h]
        corner = _step(self.pos, h)
        post = _step(corner, new_h)
        if realized == "left":
            # The inner track pinches: the corner and the cell after it.
            stranded = [self._emit("a", cell, self._next_base("flex") if variable else None)
                        for cell in (corner, post)]
        else:
            # The outer track spends the corner diagonal and its flank.  On a
            # variable turn their bases pair two cells back along the
            # corridor in the mirrored (left) realization of the same
            # molecule, which pins them.
            self._zip(corner, h, "flex")
            diag = _step(_step(corner, _LEFT[h]), h)
            flank = _step(corner, h)
            stranded = [self._emit("b", cell, COMPLEMENT[self.a[back].base] if variable else None)
                        for cell, back in ((diag, -4), (flank, -3))]
            self._zip(post, new_h, "flex")
        if variable:
            self.unbound[turn.ident] = stranded
        self.pos = post
        self.heading = new_h

    def _slide(self, turn: Turn) -> None:
        """Advance so both bend directions strand exactly two bases.

        The corner's flex-stream phase must be even when the declared true
        direction is left and odd when it is right.  One cell flips the
        phase, so the slide is zero or one cell; the corridor may turn at
        either position.
        """
        if (self.drawn["flex"] % 2 == 1) != (turn.true_direction == "right"):
            self._straight("flex")


def _tail_cells(length: int, x: int, y: int) -> tuple[Point, ...]:
    """An X tail: the 2 x (length/2) hairpin stood on end, running north up
    column x from (x, y) and back down column x + 1."""
    return tuple((x + dy, y + dx) for dx, dy in hairpin_folding(length // 2).points)


@dataclass(frozen=True)
class ReductionInstance:
    """A compiled decision instance: find a folding with at least k bonds."""

    chain: Chain
    k: int
    t: int
    bondable: int
    tail_length: int
    layout: SatLayout
    unbound_by_turn: dict[str, tuple[int, ...]]  # molecule indices per turn
    zip_pairs: tuple[tuple[int, int], ...]       # molecule index pairs
    outbound_length: int
    returning_length: int
    lead_tail_cells: tuple[Point, ...] = field(repr=False)  # before the outbound strand
    end_tail_cells: tuple[Point, ...] = field(repr=False)   # after the returning strand
    # Per-assignment foldings; tracing and validating one walks every tail cell.
    _foldings: dict[tuple, Folding] = field(default_factory=dict, compare=False, repr=False)

    def intended_folding(self, assignment: dict[str, bool]) -> Folding:
        """Trace the layout for an assignment and return the folding.

        Raises LayoutError when the assignment leaves out a layout variable
        or names one the layout does not declare.
        """
        key = tuple(sorted(assignment.items()))
        if key not in self._foldings:
            missing = [v for v in self.layout.variables if v not in assignment]
            if missing:
                raise LayoutError(f"assignment missing variables {missing}")
            unknown = sorted(set(assignment) - set(self.layout.variables))
            if unknown:
                raise LayoutError(f"assignment names unknown variables {unknown}")
            directions = {v: bool(assignment[v]) for v in self.layout.variables}
            tracer = _Tracer(self.layout, directions)
            tracer.run()
            if len(tracer.a) != self.outbound_length or len(tracer.b) != self.returning_length:
                raise LayoutError(
                    "assignment trace does not conserve strand lengths; "
                    "variable turn pairs are inconsistent"
                )
            cells = list(self.lead_tail_cells)
            cells.extend(e.cell for e in tracer.a)
            cells.extend(e.cell for e in reversed(tracer.b))
            cells.extend(self.end_tail_cells)
            try:
                self._foldings[key] = validate_folding(self.chain, cells)
            except ValueError as exc:
                raise LayoutError(f"route crosses itself: {exc}") from exc
        return self._foldings[key]

    @property
    def build_assignment(self) -> dict[str, bool]:
        return {v: True for v in self.layout.variables}

    @property
    def outbound_range(self) -> tuple[int, int]:
        """1-based molecule index range (inclusive) of the outbound strand."""
        start = self.tail_length + 1
        return start, start + self.outbound_length - 1

    @property
    def returning_range(self) -> tuple[int, int]:
        """1-based molecule index range (inclusive) of the returning strand."""
        start = self.tail_length + self.outbound_length + 1
        return start, start + self.returning_length - 1


def _choose_filler_bases(tracer: _Tracer) -> None:
    """Give spacer cells bases from their strand's palette that cannot bond
    with any geometric neighbour, so they stay structural."""
    occupied = {emission.cell: emission for emission in tracer.a + tracer.b}
    for emissions, palette in ((tracer.a, ("C", "A")), (tracer.b, ("G", "U"))):
        for emission in emissions:
            if emission.base is not None:
                continue
            x, y = emission.cell
            neighbour_bases = {
                occupied[nb].base
                for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))
                if nb in occupied
            }
            for base in palette:
                if COMPLEMENT[base] not in neighbour_bases:
                    emission.base = base
                    break
            else:
                raise AssertionError(
                    f"no safe spacer base at {emission.cell}; gadget geometry broken"
                )


def assemble(layout: SatLayout) -> ReductionInstance:
    """Compile the layout into a ReductionInstance.

    Raises LayoutError for invalid layouts, including a route that crosses
    itself for the building assignment, and AssertionError when the
    building assignment's intended folding falls short of k.
    """
    directions = {v: True for v in layout.variables}
    tracer = _Tracer(layout, directions)
    tracer.run()
    pattern_nodes = sum(e.base is not None for e in tracer.a + tracer.b)
    _choose_filler_bases(tracer)

    n_nontail = len(tracer.a) + len(tracer.b)
    tail_required = math.ceil((n_nontail / 2) ** 2)
    tail_length = tail_required + tail_required % 2
    (a_x, a_y), (b_x, b_y) = tracer.a[0].cell, tracer.b[0].cell

    seq = (
        "X" * tail_length
        + "".join(e.base for e in tracer.a)
        + "".join(e.base for e in reversed(tracer.b))
        + "X" * tail_length
    )
    chain = Chain(seq)

    # Molecule indexing: tails, then outbound, then returning (reversed).
    a_off = tail_length
    b_len = len(tracer.b)

    def a_mol(i: int) -> int:
        return a_off + i + 1

    def b_mol(i: int) -> int:
        return a_off + len(tracer.a) + (b_len - i)

    zip_pairs = tuple((a_mol(ai), b_mol(bi)) for ai, bi in tracer.zips)
    unbound = {
        ident: tuple(sorted(a_mol(i) if strand == "a" else b_mol(i) for strand, i in nodes))
        for ident, nodes in tracer.unbound.items()
    }

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
        unbound_by_turn=unbound,
        zip_pairs=zip_pairs,
        outbound_length=len(tracer.a),
        returning_length=b_len,
        # The tails end west of the route start and start north of the
        # returning strand's last cell.
        lead_tail_cells=_tail_cells(tail_length, a_x - 2, a_y),
        end_tail_cells=_tail_cells(tail_length, b_x, b_y + 1),
    )

    folding = instance.intended_folding(instance.build_assignment)
    bonds = score(chain, folding)[0]
    if bonds < k:
        raise AssertionError(
            f"intended folding scores {bonds}, below the target k = {k}"
        )
    return instance


def verify_instance(instance: ReductionInstance, assignment: dict[str, bool]) -> tuple[int, bool]:
    """Recount the bonds of the assignment's intended folding against k."""
    folding = instance.intended_folding(assignment)
    bonds = score(instance.chain, folding)[0]
    return bonds, bonds >= instance.k
