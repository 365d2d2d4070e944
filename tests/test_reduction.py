import dataclasses
import importlib
import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from wcfold.bounds import hairpin_folding
from wcfold.model import COMPLEMENT, Chain, score, validate_folding
from wcfold.reduction import (
    LayoutError,
    SatLayout,
    Segment,
    Turn,
    assemble,
    bundled_layout_text,
    hairpinned_gadget_chain,
    parse_layout,
    verify_instance,
    verify_straightness,
)
from wcfold.reduction.assemble import _LEFT, _RIGHT, _Tracer, _step, _tail_cells
from wcfold.reduction.gadgets import PERIODS
from wcfold.reduction.layout import _opposite

from conftest import ZERO_PERIOD_LAYOUT


def test_flex_strands():
    # The outbound strand, then its complement (the returning strand) reversed.
    assert hairpinned_gadget_chain("flex", 1) == "CCCA" + "GGGU"[::-1]
    assert hairpinned_gadget_chain("flex", 3) == "CCCACCCACCCA" + "GGGUGGGUGGGU"[::-1]
    with pytest.raises(ValueError, match="periods must be at least 1"):
        hairpinned_gadget_chain("flex", 0)


def test_rigid_strands():
    assert hairpinned_gadget_chain("rigid", 1) == "CCCCCCCA" + "GGGGGGGU"[::-1]
    assert hairpinned_gadget_chain("rigid", 3) == "CCCCCCCA" * 3 + ("GGGGGGGU" * 3)[::-1]
    assert len(hairpinned_gadget_chain("rigid", 2)) == 2 * 16
    with pytest.raises(ValueError, match="periods must be at least 1"):
        hairpinned_gadget_chain("rigid", 0)


def test_hairpinned_gadget_chain():
    assert hairpinned_gadget_chain("flex", 1) == "CCCAUGGG"
    assert hairpinned_gadget_chain("rigid", 1) == "CCCCCCCAUGGGGGGG"
    with pytest.raises(ValueError, match="unknown gadget kind 'loop'"):
        hairpinned_gadget_chain("loop", 1)


def _assemble_text(text):
    return assemble(parse_layout(text))


def _route(layout, assignment):
    """The route cells in molecule order: outbound, then returning."""
    tracer = _Tracer(layout, assignment)
    tracer.run()
    return [cell for cell, _ in tracer.a] + [cell for cell, _ in reversed(tracer.b)]


def _tails(length):
    """The lead and end X tails: the lead one ends west of the route start
    (0, 0), the end one starts north of the returning strand's end (0, 1)."""
    return _tail_cells(length, -2, 0), _tail_cells(length, 0, 2)


def _full_walk(inst, assignment):
    """The assignment's whole molecule walk, checked the long way: every
    cell of both tails and the route through validate_folding."""
    lead, end = _tails(inst.tail_length)
    return validate_folding(inst.chain, list(lead) + _route(inst.layout, assignment) + list(end))


def _verify_against_full_walk(inst, assignment):
    """verify_instance, checked against the whole molecule's walk: the
    intended folding is that walk, and scoring only the route counts the
    walk's bonds."""
    walk = _full_walk(inst, assignment)
    assert inst.intended_folding(assignment).points == walk.points
    bonds, meets = verify_instance(inst, assignment)
    assert bonds == score(inst.chain, walk)[0]
    return bonds, meets


def _full_walk_error(inst, assignment):
    """The LayoutError text of a route that fails the whole-walk check."""
    with pytest.raises(ValueError) as caught:
        _full_walk(inst, assignment)
    return f"route crosses itself: {caught.value}"


MINI_TURN = """
spacing 1
segment flex 2
turn f1 fixed {direction}
segment flex 2
"""


@pytest.mark.parametrize("direction", ["left", "right"])
def test_fixed_turn_shifts_alignment_by_two(direction):
    inst = _assemble_text(MINI_TURN.format(direction=direction))
    sums = [i + j for i, j in inst.zip_pairs]
    distinct = sorted(set(sums))
    assert len(distinct) == 2
    assert abs(distinct[0] - distinct[1]) == 2


MINI_PAIR = """
spacing 81
variable v
segment flex 2
turn p1 variable v true={d1} partner=p2
segment flex 21
turn p2 variable v true={d2} partner=p1
segment flex 2
"""


@pytest.mark.parametrize("d1,d2", [("left", "right"), ("right", "left")])
def test_variable_pair_shifts_and_restores(d1, d2):
    inst = _assemble_text(MINI_PAIR.format(d1=d1, d2=d2))
    # Walk the zips in outbound order: pre-pair sum, shifted sum, restored.
    sums = []
    for i, j in sorted(inst.zip_pairs):
        s = i + j
        if not sums or sums[-1] != s:
            sums.append(s)
    assert len(sums) == 3
    assert sums[0] == sums[2]
    assert abs(sums[1] - sums[0]) == 2


def test_variable_pair_costs_two_per_turn():
    layout = parse_layout(MINI_PAIR.format(d1="left", d2="right"))
    inst = assemble(layout)
    assert inst.t == 2
    for value in (True, False):
        tracer = _Tracer(layout, {"v": value})
        tracer.run()
        # Either bend direction strands two pattern bases outside every zip pair.
        zipped_a = {ai for ai, _ in tracer.zips}
        zipped_b = {bi for _, bi in tracer.zips}
        stranded = [i for i, (_, base) in enumerate(tracer.a) if base and i not in zipped_a]
        stranded += [i for i, (_, base) in enumerate(tracer.b) if base and i not in zipped_b]
        assert len(stranded) == 2 * inst.t
    assert inst.k == inst.bondable // 2 - 2
    bonds, meets = verify_instance(inst, {"v": True})
    assert bonds == inst.k and meets
    bonds_false, meets_false = verify_instance(inst, {"v": False})
    # No rigid coupling: both realizations of a flex corridor zip fully.
    assert bonds_false == inst.k and meets_false


RIGHT_OPENING_FOUND = (
    "FOUND: a variable pair that opens right loses bonds outside any clause "
    "coupling when its variable is false (k = 104, 101 bonds for y=false)"
)


@pytest.mark.xfail(strict=True, reason=RIGHT_OPENING_FOUND)
def test_right_opening_pair_keeps_k():
    inst = _assemble_text(MINI_PAIR.format(d1="right", d2="left"))
    bonds, _ = verify_instance(inst, {"v": False})
    assert bonds == inst.k


def test_zero_turn_zipper():
    inst = assemble(parse_layout(bundled_layout_text("straight_zipper")))
    assert inst.t == 0
    assert inst.k == inst.bondable // 2
    bonds, meets = verify_instance(inst, {})
    assert bonds == inst.k and meets


@pytest.fixture(scope="module")
def instance():
    return assemble(parse_layout(bundled_layout_text("single_clause")))


class TestSingleClauseFixture:

    def test_bookkeeping(self, instance):
        assert instance.t == 2
        assert instance.k == instance.bondable // 2 - instance.t

    def test_satisfying_assignment_meets_k(self, instance):
        bonds, meets = verify_instance(instance, {"x": True})
        assert meets
        assert bonds == instance.k

    def test_falsifying_assignment_loses_clause_bonds(self, instance):
        bonds, meets = verify_instance(instance, {"x": False})
        assert not meets
        # The rigid coupling (2 periods) loses two joints per period.
        assert bonds == instance.k - 4

    def test_x_only_in_tails(self, instance):
        seq = instance.chain.seq
        t = instance.tail_length
        assert set(seq[:t]) == {"X"}
        assert set(seq[-t:]) == {"X"}
        assert "X" not in seq[t:-t]

    def test_tail_length_bound(self, instance):
        n = len(instance.chain) - 2 * instance.tail_length
        assert instance.tail_length >= (n / 2) ** 2

    def test_strand_side_purity(self, instance):
        # Between the tails: one C/A run (outbound), then one G/U run (returning).
        tail = instance.tail_length
        assert re.fullmatch("[CA]+[GU]+", instance.chain.seq[tail:-tail])

    def test_intended_bonds_are_real_contacts(self, instance):
        folding = instance.intended_folding({"x": True})
        size, witness = score(instance.chain, folding)
        assert size >= len(instance.zip_pairs)

    def test_both_foldings_are_valid(self, instance):
        for value in (True, False):
            folding = instance.intended_folding({"x": value})
            assert len(folding) == len(instance.chain)
            _verify_against_full_walk(instance, {"x": value})

    def test_missing_assignment(self, instance):
        with pytest.raises(LayoutError):
            instance.intended_folding({})

    def test_unknown_assignment_variable(self, instance):
        with pytest.raises(LayoutError, match="unknown variables \\['typo'\\]"):
            instance.intended_folding({"x": True, "typo": False})


@st.composite
def one_block_layouts(draw):
    """One variable/clause block, optionally followed by a fixed turn.  (A
    fixed left turn before the block would run the route into the tail.)"""
    side, other = draw(st.sampled_from([("left", "right"), ("right", "left")]))
    a, b, r, c, d = (draw(st.integers(lo, hi)) for lo, hi in ((1, 4), (1, 5), (1, 3), (8, 14), (1, 3)))
    lines = ["spacing 84", "variable x", "clause c1 literals x",
             f"segment flex {a}", f"turn u variable x true={side} partner=v",
             f"segment flex {b}", f"segment rigid {r} clause=c1", f"segment flex {c}",
             f"turn v variable x true={other} partner=u", f"segment flex {d}"]
    after = draw(st.sampled_from([None, "left", "right"]))
    if after:
        lines += [f"turn f1 fixed {after}", f"segment flex {draw(st.integers(1, 3))}"]
    return "\n".join(lines) + "\n"


@given(one_block_layouts())
@settings(max_examples=30, deadline=None)
def test_generated_block_layouts(text):
    layout = parse_layout(text)
    inst = assemble(layout)
    assert inst.bondable == 2 * len(inst.zip_pairs) + 2 * inst.t
    tail = inst.tail_length
    core = inst.chain.seq[tail:-tail]
    outbound = re.match("[CA]+", core).group()
    u = next(e for e in layout.elements if isinstance(e, Turn))
    r = next(e.periods for e in layout.elements if isinstance(e, Segment) and e.kind == "rigid")
    for value in (True, False):
        tracer = _Tracer(layout, {"x": value})
        tracer.run()
        # Both traces keep the molecule's strand lengths.
        assert (len(tracer.a), len(tracer.b)) == (len(outbound), len(core) - len(outbound))
        # The outbound strand is the same under every assignment; spacers
        # get their bases only when the molecule is built.
        assert all(traced in (None, base) for (_, traced), base in zip(tracer.a, outbound))
        bonds, _ = _verify_against_full_walk(inst, {"x": value})
        # x alone satisfies the one clause, and then the bonds are exactly k.
        # Opened left, a false x loses exactly the rigid coupling's two
        # joints per period; opened right, it can lose bonds outside the
        # coupling too (see test_right_opening_pair_keeps_k).
        if value:
            assert bonds == inst.k
        elif u.direction == "left":
            assert bonds == inst.k - 2 * r
        else:
            assert bonds < inst.k


# Flex periods per block, and the (a, b, r) shapes whose last flex run
# c = BLOCK_PERIODS - a - b - 2r lies in 8..14, as in the benchmark's layouts.
BLOCK_PERIODS = 21
BLOCK_SHAPES = [
    (a, b, r)
    for a in range(2, 5) for b in range(2, 6) for r in range(1, 4)
    if 8 <= BLOCK_PERIODS - a - b - 2 * r <= 14
]


@st.composite
def two_block_layouts(draw):
    """Two chained variable/clause blocks x0/c0 and x1/c1, optionally with a
    fixed right turn between them.

    The tails run north from the route start, and a right turn sends block 1
    south, away from them.  Block 0 can bend up to BLOCK_PERIODS - a0
    periods north, so after the turn a flex run of BLOCK_PERIODS + 1 - a0 - a1
    periods brings block 1's westward bend clear below it; that is the
    shortest run that avoids a crossing under every assignment of every
    shape here.
    """
    lines = ["spacing 164", "variable x0", "variable x1",
             "clause c0 literals x0", "clause c1 literals x1"]
    shapes = [draw(st.sampled_from(BLOCK_SHAPES)) for _ in range(2)]
    turn = draw(st.booleans())
    for i, (a, b, r) in enumerate(shapes):
        side, other = draw(st.sampled_from([("left", "right"), ("right", "left")]))
        lines += [f"segment flex {a}", f"turn u{i} variable x{i} true={side} partner=v{i}",
                  f"segment flex {b}", f"segment rigid {r} clause=c{i}",
                  f"segment flex {BLOCK_PERIODS - a - b - 2 * r}",
                  f"turn v{i} variable x{i} true={other} partner=u{i}"]
        if i == 0 and turn:
            lines += [f"segment flex {draw(st.integers(1, 3))}", "turn f fixed right",
                      f"segment flex {BLOCK_PERIODS + 1 - shapes[0][0] - shapes[1][0]}"]
    lines.append(f"segment flex {draw(st.integers(1, 3))}")
    return "\n".join(lines) + "\n"


@given(two_block_layouts())
@settings(max_examples=10, deadline=None)
def test_generated_two_block_layouts(text):
    layout = parse_layout(text)
    inst = assemble(layout)
    assert inst.bondable == 2 * len(inst.zip_pairs) + 2 * inst.t
    for values in itertools.product((True, False), repeat=2):
        assignment = dict(zip(layout.variables, values))
        bonds, meets = _verify_against_full_walk(inst, assignment)
        # Each clause has one literal, so only the all-true assignment
        # satisfies them, and then the bonds are exactly k.
        assert bonds == inst.k if all(values) else bonds < inst.k
        assert meets == all(values)


class _PerCellTracer(_Tracer):
    """The reference trace: every straight cell drawn, stepped and zipped
    one at a time, as _Tracer did before it traced runs of cells."""

    def _next_base(self, kind):
        period = PERIODS[kind]
        base = period[self.drawn[kind] % len(period)]
        self.drawn[kind] += 1
        return base

    def _zip_cell(self, cell, heading, kind):
        base = self._next_base(kind)
        self.zips.append((len(self.a), len(self.b)))
        self.a.append((cell, base))
        self.b.append((_step(cell, _LEFT[heading]), COMPLEMENT[base]))

    def _straight(self, kind):
        self.pos = _step(self.pos, self.heading)
        self._zip_cell(self.pos, self.heading, kind)

    def run(self):
        self._zip_cell(self.pos, self.heading, "flex")
        for elem in self.layout.elements:
            if isinstance(elem, Segment):
                for _ in range(elem.cells):
                    self._straight(elem.kind)
            else:
                self._turn(elem)
        a_tip = _step(self.pos, self.heading)
        self.a.append((a_tip, None))
        self.b.append((_step(a_tip, _LEFT[self.heading]), None))

    def _turn(self, turn):
        variable = turn.variable is not None
        realized = turn.direction
        if variable:
            if not self.directions[turn.variable]:
                realized = _opposite(realized)
            if (self.drawn["flex"] % 2 == 1) != (turn.direction == "right"):
                self._straight("flex")
        h = self.heading
        new_h = _LEFT[h] if realized == "left" else _RIGHT[h]
        corner = _step(self.pos, h)
        post = _step(corner, new_h)
        if realized == "left":
            for cell in (corner, post):
                self.a.append((cell, self._next_base("flex") if variable else None))
        else:
            self._zip_cell(corner, h, "flex")
            diag = _step(_step(corner, _LEFT[h]), h)
            flank = _step(corner, h)
            for cell, back in ((diag, -4), (flank, -3)):
                self.b.append((cell, COMPLEMENT[self.a[back][1]] if variable else None))
            self._zip_cell(post, new_h, "flex")
        self.pos = post
        self.heading = new_h


def _assert_traces_match_per_cell(layout):
    """The run-at-a-time trace equals the per-cell reference under every
    assignment: records, zips, pattern draws and the final pose."""
    for values in itertools.product((True, False), repeat=len(layout.variables)):
        directions = dict(zip(layout.variables, values))
        traces = []
        for tracer in (_Tracer(layout, directions), _PerCellTracer(layout, directions)):
            tracer.run()
            traces.append((tracer.a, tracer.b, tracer.zips, tracer.drawn, tracer.pos, tracer.heading))
        assert traces[0] == traces[1]


@pytest.mark.parametrize("name", ["single_clause", "straight_zipper"])
def test_fixture_traces_match_per_cell(name):
    _assert_traces_match_per_cell(parse_layout(bundled_layout_text(name)))


@st.composite
def chained_block_layouts(draw):
    """1-4 variable/clause blocks, each optionally followed by a fixed left
    or right turn.  Only traces are compared, so a route may cross."""
    n = draw(st.integers(1, 4))
    lines = [f"spacing {80 * n + 1}"]
    lines += [f"variable x{i}" for i in range(n)] + [f"clause c{i} literals x{i}" for i in range(n)]
    for i in range(n):
        side, other = draw(st.sampled_from([("left", "right"), ("right", "left")]))
        a, b, r, c, d = (draw(st.integers(1, hi)) for hi in (4, 5, 3, 14, 3))
        lines += [f"segment flex {a}", f"turn u{i} variable x{i} true={side} partner=v{i}",
                  f"segment flex {b}", f"segment rigid {r} clause=c{i}", f"segment flex {c}",
                  f"turn v{i} variable x{i} true={other} partner=u{i}", f"segment flex {d}"]
        after = draw(st.sampled_from([None, "left", "right"]))
        if after:
            lines += [f"turn f{i} fixed {after}", f"segment flex {draw(st.integers(1, 3))}"]
    return "\n".join(lines) + "\n"


@given(chained_block_layouts())
@settings(max_examples=40, deadline=None)
def test_generated_traces_match_per_cell(text):
    _assert_traces_match_per_cell(parse_layout(text))


@pytest.mark.parametrize("periods", ["0", "-2"])
def test_segment_needs_a_period(periods):
    text = ZERO_PERIOD_LAYOUT.replace("segment flex 0", f"segment flex {periods}")
    message = f"line 6: segment needs at least 1 period, got {periods}"
    with pytest.raises(LayoutError, match=message):
        parse_layout(text)


BLOCK = """spacing 84
variable x
clause c1 literals x
segment flex 2
turn u variable x true=left partner=v
segment flex 4
segment rigid 2 clause=c1
segment flex 13
turn v variable x true=right partner=u
segment flex 2
"""


@pytest.mark.parametrize("lineno,line,replaced,reason", [
    (11, "turn f1 fixed lfet", 0, "turn f1 must bend left or right, got 'lfet'"),
    (11, "turn f1 fixed left partner=zz", 0, "unknown option 'partner=zz'"),
    (5, "turn u variable x true=left partner=v tru=right", 1, "unknown option 'tru=right'"),
    (5, "turn u variable x true=left partner=v partner=w", 1, "option partner= given more than once"),
    (5, "turn u variable x true=left partner=w partner=v", 1, "option partner= given more than once"),
    (7, "segment rigid 2 clause=c1 clause=c2", 1, "option clause= given more than once"),
    (7, "segment rigid 2 clause=c2 clause=c1", 1, "option clause= given more than once"),
    (1, "spacing 84 90", 1, "unknown option '90'"),
    (2, "spacing 90", 0, "spacing declared more than once"),
    (2, "variable x y", 1, "unknown option 'y'"),
    (2, "variable d/x", 1, "variable name 'd/x' must be letters, digits and underscores"),
    (2, "variable x,y", 1, "variable name 'x,y' must be letters, digits and underscores"),
    (2, "variable x=1", 1, "variable name 'x=1' must be letters, digits and underscores"),
    (3, "variable x", 0, "variable x declared more than once"),
    (4, "clause c1 literals x", 0, "clause c1 declared more than once"),
    (3, "clause c1 x", 1, "clause needs: clause NAME literals V[,V...]"),
    (4, "segment loop 2", 1, "unknown segment kind 'loop'"),
    (5, "turn u sometimes x true=left partner=v", 1, "unknown turn kind 'sometimes'"),
    (4, "wire 2", 0, "unknown directive 'wire'"),
])
def test_malformed_line_is_named(lineno, line, replaced, reason):
    """Put `line` at `lineno` of BLOCK, in place of `replaced` lines."""
    parse_layout(BLOCK)
    lines = BLOCK.splitlines()
    lines[lineno - 1:lineno - 1 + replaced] = [line]
    with pytest.raises(LayoutError) as err:
        parse_layout("\n".join(lines) + "\n")
    assert str(err.value) == f"line {lineno}: {reason}"


# A pair of y inside x's pair.  Inside both, the two pairs' alignment
# shifts cancel, so c1's coupling would read x XNOR y, not x.
NESTED = """spacing 200
variable x
variable y
clause c1 literals x
segment flex 2
turn u variable x true=left partner=v
segment flex 2
turn p variable y true=right partner=q
segment flex 4
segment rigid 2 clause=c1
segment flex 13
turn q variable y true=left partner=p
segment flex 2
turn v variable x true=right partner=u
segment flex 2
"""

# Four turns of x whose partner= declarations pair a with d and b with c;
# route order pairs a with b.
CROSSED = """spacing 200
variable x
clause c1 literals x
segment flex 2
turn a variable x true=left partner=d
segment flex 4
segment rigid 2 clause=c1
segment flex 13
turn b variable x true=right partner=c
segment flex 2
turn c variable x true=left partner=b
segment flex 2
turn d variable x true=right partner=a
segment flex 2
"""


@pytest.mark.parametrize("text,reason", [
    (BLOCK.replace("spacing 84\n", ""), "layout must declare spacing"),
    ("spacing 1\n", "layout has no route elements"),
    ("spacing 1\nturn f fixed left\nsegment flex 2\n", "the route must start with a segment"),
    (BLOCK + "turn u fixed left\nsegment flex 2\n", "turn identifiers must be unique"),
    (BLOCK.replace("turn u variable x", "turn u variable y"),
     "turn u uses undeclared variable y"),
    (BLOCK.replace("partner=u", "partner=w"), "turns u and v are not a mutual pair"),
    (BLOCK.replace("literals x", "literals x,y"), "clause c1 references undeclared variable y"),
    (BLOCK.replace("segment rigid 2 clause=c1", "segment flex 2 clause=c1"),
     "clause coupling for c1 must be rigid"),
    (BLOCK.replace("clause=c1", "clause=c2"), "coupling references undeclared clause c2"),
    (NESTED, "variable turn p is inside the pair that turn u opens"),
    (CROSSED, "turns a and b are not a mutual pair"),
    # Two faults: the coupling is flex and v bends the same way as u.  The
    # coupling comes first in route order, so it is the one named.
    (BLOCK.replace("segment rigid 2", "segment flex 2").replace("true=right", "true=left"),
     "clause coupling for c1 must be rigid"),
], ids=["no-spacing", "no-elements", "turn-first", "duplicate-turn", "turn-variable",
        "not-mutual", "clause-variable", "flex-coupling", "coupling-clause", "nested",
        "crossed", "first-of-two"])
def test_invalid_layout_message(text, reason):
    """A faulty layout and the exact message, which names its first fault
    in route order."""
    with pytest.raises(LayoutError) as caught:
        parse_layout(text)
    assert str(caught.value) == reason


@pytest.mark.parametrize("build,reason", [
    (lambda: SatLayout(spacing=1), "layout has no route elements"),
    (lambda: SatLayout(spacing=84, elements=(
        Segment("flex", 2), Turn("u", "left", "x", "v"), Segment("flex", 2),
        Turn("v", "right", "x", "u"), Segment("flex", 2))),
     "turn u uses undeclared variable x"),
    (lambda: Segment("loop", 2), "unknown segment kind 'loop'"),
    (lambda: Segment("flex", 0), "segment needs at least 1 period, got 0"),
], ids=["no-elements", "turn-variable", "segment-kind", "zero-periods"])
def test_hand_built_layout_is_checked(build, reason):
    """Hand-built layouts and elements are checked as parsed ones are."""
    with pytest.raises(LayoutError) as caught:
        build()
    assert str(caught.value) == reason


def test_layout_is_immutable():
    layout = parse_layout(BLOCK)
    assert isinstance(layout.variables, tuple) and isinstance(layout.elements, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        layout.variables = ("y",)


def test_layout_clauses_are_read_only():
    layout = parse_layout(BLOCK)
    with pytest.raises(TypeError):
        layout.clauses["zz"] = ("x",)
    # A hand-built layout keeps its own copy: the caller's dict cannot reach it.
    clauses = {"c1": ("x",)}
    built = SatLayout(spacing=84, variables=("x",), clauses=clauses, elements=layout.elements)
    clauses["zz"] = ("x",)
    assert dict(built.clauses) == {"c1": ("x",)}
    with pytest.raises(TypeError):
        built.clauses["zz"] = ("x",)


def test_spacing_gate():
    bad = MINI_PAIR.format(d1="left", d2="right").replace("spacing 81", "spacing 80")
    with pytest.raises(LayoutError, match="spacing"):
        parse_layout(bad)


def test_unpaired_variable_turn():
    text = """
spacing 50
variable v
segment flex 2
turn p1 variable v true=left partner=p2
segment flex 2
"""
    with pytest.raises(LayoutError, match="pair|partner"):
        parse_layout(text)


def test_mismatched_pair_directions():
    text = MINI_PAIR.format(d1="left", d2="left")
    with pytest.raises(LayoutError, match="opposite"):
        parse_layout(text)


CROSSING_ROUTE = """
spacing 1
segment flex 1
turn f1 fixed left
segment flex 1
turn f2 fixed left
segment flex 1
turn f3 fixed left
segment flex 2
"""

# Two left turns bring the route back west across both tails' columns,
# though the route alone is a valid walk.
TAIL_HIT_ROUTE = """
spacing 1
segment flex 1
turn f1 fixed left
segment flex 1
turn f2 fixed left
segment flex 1
"""


# The module, not the function that wcfold.reduction exports under its name.
assemble_module = importlib.import_module("wcfold.reduction.assemble")


def _unchecked_instance(monkeypatch, text):
    """The instance of a layout whose building route assemble rejects,
    compiled without tracing that route."""
    monkeypatch.setattr(assemble_module, "_score_trace", lambda inst, tracer: (inst.k, True))
    inst = _assemble_text(text)
    monkeypatch.undo()
    return inst


def _assert_rejected_as_full_walk(monkeypatch, text, message):
    """assemble and intended_folding reject the route with the message of
    the whole-walk check."""
    inst = _unchecked_instance(monkeypatch, text)
    assert _full_walk_error(inst, {}) == message
    with pytest.raises(LayoutError) as caught:
        inst.intended_folding({})
    assert str(caught.value) == message
    with pytest.raises(LayoutError) as caught:
        _assemble_text(text)
    assert str(caught.value) == message
    return inst


def test_crossing_route_rejected(monkeypatch):
    _assert_rejected_as_full_walk(monkeypatch, CROSSING_ROUTE, (
        "route crosses itself: self-intersection at index 644 "
        "(point (-1, 6) already used at index 620)"))


def test_tail_hit_route_rejected(monkeypatch):
    inst = _assert_rejected_as_full_walk(monkeypatch, TAIL_HIT_ROUTE, (
        "route crosses itself: self-intersection at index 274 "
        "(point (-1, 6) already used at index 250)"))
    # Only the tail rectangle test rejects this route, and it hits both.
    route = _route(inst.layout, {})
    lead, end = _tails(inst.tail_length)
    walk = [lead[-1]] + route + [end[0]]
    assert validate_folding(Chain("X" * len(walk)), walk)
    assert set(route) & set(lead) and set(route) & set(end)
    assert assemble_module._hits_tail(route, inst.tail_length)


# A fixed left turn before the block: with x false the route bends back
# into the lead tail, with x true it stays clear.
TAIL_HIT_ASSIGNMENT = """
spacing 84
variable x
clause c1 literals x
segment flex 2
turn f0 fixed left
segment flex 2
turn u variable x true=right partner=v
segment flex 3
segment rigid 2 clause=c1
segment flex 12
turn v variable x true=left partner=u
segment flex 2
"""


def test_assignment_route_into_tail_rejected():
    inst = _assemble_text(TAIL_HIT_ASSIGNMENT)
    message = ("route crosses itself: self-intersection at index 11694 "
               "(point (-1, 10) already used at index 11654)")
    assert _full_walk_error(inst, {"x": False}) == message
    with pytest.raises(LayoutError) as caught:
        inst.intended_folding({"x": False})
    assert str(caught.value) == message


def test_route_check_rejecting_a_valid_walk_is_internal(monkeypatch):
    inst = _assemble_text(bundled_layout_text("single_clause"))
    monkeypatch.setattr(assemble_module, "_hits_tail", lambda cells, tail_length: True)
    with pytest.raises(AssertionError, match="rejected a valid walk"):
        inst.intended_folding({"x": False})


def test_whole_walk_check_catches_a_missed_tail_hit(monkeypatch):
    # A route test that misses the tail passes the route, and only the
    # tests' whole-walk check of the folding catches it.
    monkeypatch.setattr(assemble_module, "_hits_tail", lambda cells, tail_length: False)
    inst = _assemble_text(TAIL_HIT_ROUTE)
    folding = inst.intended_folding({})
    with pytest.raises(ValueError, match="self-intersection at index 274"):
        validate_folding(inst.chain, folding.points)


def test_tails_join_the_route_ends():
    """The closed-form geometry that lets the route check stand alone."""
    for length in (4, 10, 626, 77842):
        lead, end = _tails(length)
        assert lead == _tail_cells(length, *assemble_module._LEAD_TAIL)
        assert end == _tail_cells(length, *assemble_module._END_TAIL)
        assert lead[-1] == (-1, 0) and end[0] == (0, 2)
        assert not set(lead) & set(end)
        # The rectangle test covers exactly the tails' cells.
        around = [(x, y) for x in range(-3, 3) for y in range(-1, length // 2 + 3)]
        assert [c for c in around if assemble_module._hits_tail([c], length)] == sorted(lead + end)
    for name in ("single_clause", "straight_zipper"):
        layout = parse_layout(bundled_layout_text(name))
        tracer = _Tracer(layout, {v: True for v in layout.variables})
        tracer.run()
        assert (tracer.a[0][0], tracer.b[0][0]) == ((0, 0), (0, 1))


@pytest.mark.parametrize("length", [4, 6, 10, 626])
@pytest.mark.parametrize("x,y", [(0, 0), (-2, 0), (3, -7)])
def test_tail_cells_are_the_transposed_hairpin(length, x, y):
    hairpin = hairpin_folding(length // 2).points
    assert _tail_cells(length, x, y) == tuple((x + dy, y + dx) for dx, dy in hairpin)


def test_clause_coupling_must_be_inside_pair():
    text = """
spacing 81
variable v
clause c1 literals v
segment flex 2
segment rigid 1 clause=c1
segment flex 1
turn p1 variable v true=left partner=p2
segment flex 21
turn p2 variable v true=right partner=p1
segment flex 2
"""
    with pytest.raises(LayoutError, match="coupling"):
        parse_layout(text)


UNCOUPLED = bundled_layout_text("single_clause") + "variable y\nclause c2 literals y\n"


@pytest.mark.parametrize("text,reason", [
    (UNCOUPLED, "clause c2 has no rigid coupling segment"),
    (bundled_layout_text("single_clause") + "variable y\n", "variable y has no variable turn pair"),
    (MINI_PAIR.format(d1="left", d2="right") + "clause c1 literals v\n",
     "clause c1 has no rigid coupling segment"),
])
def test_unencoded_clause_or_variable_rejected(text, reason):
    with pytest.raises(LayoutError) as caught:
        parse_layout(text)
    assert str(caught.value) == reason


def test_variable_turn_needs_flex_flanks():
    text = """
spacing 81
variable v
segment rigid 1
turn p1 variable v true=left partner=p2
segment flex 21
turn p2 variable v true=right partner=p1
segment flex 2
"""
    with pytest.raises(LayoutError, match="flex"):
        parse_layout(text)


def test_assembly_growth_is_polynomial():
    sizes = []
    for q in (2, 4, 8):
        text = f"""
spacing 1
segment flex {q}
turn f1 fixed left
segment flex {q}
"""
        inst = _assemble_text(text)
        sizes.append(len(inst.chain))
    assert sizes[0] < sizes[1] < sizes[2]
    # Tails dominate quadratically; doubling the route must stay near 4x.
    assert sizes[1] <= 5 * sizes[0]
    assert sizes[2] <= 5 * sizes[1]


def test_straightness_small_gadgets():
    assert verify_straightness("flex", 1)   # boundary case, recorded by search
    assert verify_straightness("flex", 2)
    assert verify_straightness("flex", 3)   # 24 bases: STRAIGHTNESS_LIMIT
    assert verify_straightness("rigid", 1)
    with pytest.raises(ValueError):
        verify_straightness("flex", 4)
