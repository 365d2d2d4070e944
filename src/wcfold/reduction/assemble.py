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
assembler slides each variable turn forward 0..3 cells so that both bend
directions strand exactly two bases (the route may turn at any of a few
positions around the intended corner without changing the bookkeeping).

Counting: with Z zip pairs and t variable turns, bondable = 2Z + 2t and
the bond target is k = bondable / 2 - t = Z, achieved exactly by the
intended folding of the building (all-true) assignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..bounds import hairpin_folding
from ..model import COMPLEMENT, Chain, Folding, Point, validate_folding, score
from .gadgets import FLEX_PERIOD, RIGID_PERIOD
from .layout import LayoutError, SatLayout, Segment, Turn, _opposite

_LEFT = {(1, 0): (0, 1), (0, 1): (-1, 0), (-1, 0): (0, -1), (0, -1): (1, 0)}
_RIGHT = {v: k for k, v in _LEFT.items()}

PATTERN = "pattern"
FILLER = "filler"


@dataclass
class _Emission:
    cell: tuple[int, int]
    base: str | None
    tag: str


class _Tracer:
    """One pass over the route.  In build mode it also assigns bases, zip
    pairs and bookkeeping; in geometry mode (re-tracing an assignment) it
    only lays out cells and must reproduce the build's emission counts."""

    def __init__(self, layout: SatLayout, directions: dict[str, str],
                 build: bool, slides: dict[str, int] | None = None):
        self.layout = layout
        self.directions = directions
        self.build = build
        self.slides = {} if slides is None else slides
        self.pos = (0, 0)
        self.heading = (1, 0)
        self.stream = 0           # flex pattern position (4-cycle)
        self.rigid_stream = 0     # rigid pattern position (8-cycle)
        self.a: list[_Emission] = []
        self.b: list[_Emission] = []
        self.zips: list[tuple[int, int]] = []
        self.unbound: dict[str, list[tuple[str, int]]] = {}

    # -- base streams -------------------------------------------------

    def _next_base(self, kind: str) -> str:
        if kind == "flex":
            base = FLEX_PERIOD[self.stream % len(FLEX_PERIOD)]
            self.stream += 1
        else:
            base = RIGID_PERIOD[self.rigid_stream % len(RIGID_PERIOD)]
            self.rigid_stream += 1
        return base

    # -- emission helpers ----------------------------------------------

    def _emit_a(self, cell, base, tag) -> int:
        self.a.append(_Emission(cell, base, tag))
        return len(self.a) - 1

    def _emit_b(self, cell, base, tag) -> int:
        self.b.append(_Emission(cell, base, tag))
        return len(self.b) - 1

    def _straight_cell(self, kind: str, advance: bool = True) -> None:
        """One zipped corridor cell: route node plus its across partner."""
        if advance:
            self.pos = (self.pos[0] + self.heading[0], self.pos[1] + self.heading[1])
        base = self._next_base(kind) if self.build else None
        ai = self._emit_a(self.pos, base, PATTERN)
        off = _LEFT[self.heading]
        bcell = (self.pos[0] + off[0], self.pos[1] + off[1])
        bi = self._emit_b(bcell, COMPLEMENT[base] if self.build else None, PATTERN)
        self.zips.append((ai, bi))

    # -- elements --------------------------------------------------------

    def run(self) -> None:
        self._straight_cell("flex", advance=False)  # route origin
        for elem in self.layout.elements:
            if isinstance(elem, Segment):
                for _ in range(elem.cells):
                    self._straight_cell(elem.kind)
            else:
                self._turn(elem)
        self._tip()

    def _turn(self, turn: Turn) -> None:
        if turn.kind == "fixed":
            realized = turn.direction
        else:
            want = self.directions.get(turn.variable)
            if want is None:
                raise LayoutError(f"assignment missing variable {turn.variable}")
            realized = turn.true_direction if want else _opposite(turn.true_direction)
            self._slide(turn)
        h = self.heading
        new_h = _LEFT[h] if realized == "left" else _RIGHT[h]
        corner = (self.pos[0] + h[0], self.pos[1] + h[1])
        post = (corner[0] + new_h[0], corner[1] + new_h[1])

        if turn.kind == "fixed":
            if realized == "left":
                self._emit_a(corner, None, FILLER)
                self._emit_a(post, None, FILLER)
            else:
                self._right_turn_b_cells(h, new_h, corner, post, filler=True)
        else:
            if realized == "left":
                i1 = self._emit_a(corner, self._next_base("flex") if self.build else None, PATTERN)
                i2 = self._emit_a(post, self._next_base("flex") if self.build else None, PATTERN)
                if self.build:
                    self.unbound[turn.ident] = [("a", i1), ("a", i2)]
            else:
                strand_idx = self._right_turn_b_cells(h, new_h, corner, post, filler=False)
                if self.build:
                    self.unbound[turn.ident] = strand_idx

        self.pos = post
        self.heading = new_h

    def _right_turn_b_cells(self, h, new_h, corner, post, filler: bool):
        """Emit the corner pair plus the outer track's two extra cells."""
        off_old = _LEFT[h]
        off_new = _LEFT[new_h]
        p1 = (corner[0] + off_old[0], corner[1] + off_old[1])
        diag = (p1[0] + h[0], p1[1] + h[1])
        flank = (corner[0] + h[0], corner[1] + h[1])
        p4 = (post[0] + off_new[0], post[1] + off_new[1])

        if filler:
            base_c = self._next_base("flex") if self.build else None
            base_p = self._next_base("flex") if self.build else None
            ai_c = self._emit_a(corner, base_c, PATTERN)
            bi_1 = self._emit_b(p1, COMPLEMENT[base_c] if self.build else None, PATTERN)
            self._emit_b(diag, None, FILLER)
            self._emit_b(flank, None, FILLER)
            ai_p = self._emit_a(post, base_p, PATTERN)
            bi_4 = self._emit_b(p4, COMPLEMENT[base_p] if self.build else None, PATTERN)
            self.zips.append((ai_c, bi_1))
            self.zips.append((ai_p, bi_4))
            return None

        # Variable turn bent right: the two extra outer cells hold pattern
        # bases that stay unbound here; in the mirrored (left) realization
        # of the same molecule they pair two cells back along the corridor,
        # which pins their bases.
        base_c = self._next_base("flex") if self.build else None
        base_p = self._next_base("flex") if self.build else None
        ai_c = self._emit_a(corner, base_c, PATTERN)
        bi_1 = self._emit_b(p1, COMPLEMENT[base_c] if self.build else None, PATTERN)
        if self.build:
            diag_base = COMPLEMENT[self.a[len(self.a) - 4].base]
            flank_base = COMPLEMENT[self.a[len(self.a) - 3].base]
        else:
            diag_base = flank_base = None
        bi_d = self._emit_b(diag, diag_base, PATTERN)
        bi_f = self._emit_b(flank, flank_base, PATTERN)
        ai_p = self._emit_a(post, base_p, PATTERN)
        bi_4 = self._emit_b(p4, COMPLEMENT[base_p] if self.build else None, PATTERN)
        self.zips.append((ai_c, bi_1))
        self.zips.append((ai_p, bi_4))
        return [("b", bi_d), ("b", bi_f)]

    def _slide(self, turn: Turn) -> None:
        """Advance 0..3 cells so both bend directions cost exactly two bases.

        The corner's flex-stream phase must be even when the declared true
        direction is left and odd when it is right; the corridor may turn at
        any of the nearby positions, so sliding is free.
        """
        if self.build:
            want_odd = turn.true_direction == "right"
            steps = 0
            while (self.stream % 2 == 1) != want_odd:
                self._straight_cell("flex")
                steps += 1
                if steps > 3:
                    raise AssertionError("phase slide cannot need more than 3 cells")
            self.slides[turn.ident] = steps
        else:
            for _ in range(self.slides.get(turn.ident, 0)):
                self._straight_cell("flex")

    def _tip(self) -> None:
        """The molecule turnaround: one spacer on each strand, chain-joined."""
        h = self.heading
        a_tip = (self.pos[0] + h[0], self.pos[1] + h[1])
        off = _LEFT[h]
        b_tip = (a_tip[0] + off[0], a_tip[1] + off[1])
        self._emit_a(a_tip, None, FILLER)
        self._emit_b(b_tip, None, FILLER)


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
    slides: dict[str, int]
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
            tracer = _Tracer(self.layout, directions, build=False, slides=dict(self.slides))
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
    occupied: dict[tuple[int, int], _Emission] = {}
    for emission in tracer.a + tracer.b:
        occupied[emission.cell] = emission
    for strand, palette in (("a", ("C", "A")), ("b", ("G", "U"))):
        emissions = tracer.a if strand == "a" else tracer.b
        for idx, emission in enumerate(emissions):
            if emission.tag != FILLER or emission.base is not None:
                continue
            x, y = emission.cell
            neighbour_bases = set()
            for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                other = occupied.get(nb)
                if other is not None and other.base is not None:
                    neighbour_bases.add(other.base)
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
    tracer = _Tracer(layout, directions, build=True)
    tracer.run()
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

    zip_pairs = tuple(
        (a_mol(ai), b_mol(bi)) if a_mol(ai) < b_mol(bi) else (b_mol(bi), a_mol(ai))
        for ai, bi in tracer.zips
    )
    unbound = {
        ident: tuple(sorted(a_mol(i) if strand == "a" else b_mol(i) for strand, i in nodes))
        for ident, nodes in tracer.unbound.items()
    }

    pattern_nodes = sum(1 for e in tracer.a if e.tag == PATTERN) + sum(
        1 for e in tracer.b if e.tag == PATTERN
    )
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
        slides=dict(tracer.slides),
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
