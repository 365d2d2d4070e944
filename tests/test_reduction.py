import pytest
from hypothesis import given, settings, strategies as st

from wcfold.model import score, validate_folding
from wcfold.reduction import (
    LayoutError,
    assemble,
    bundled_layout_text,
    flex_strands,
    hairpinned_gadget_chain,
    parse_layout,
    rigid_strands,
    verify_instance,
    verify_straightness,
)
from wcfold.reduction.assemble import _Tracer


def test_flex_strands():
    assert flex_strands(1) == ("CCCA", "GGGU")
    assert flex_strands(3) == ("CCCACCCACCCA", "GGGUGGGUGGGU")
    with pytest.raises(ValueError):
        flex_strands(0)


def test_rigid_strands():
    assert rigid_strands(1) == ("CCCCCCCA", "GGGGGGGU")
    a, b = rigid_strands(2)
    assert len(a) == len(b) == 16
    with pytest.raises(ValueError):
        rigid_strands(0)


def test_hairpinned_gadget_chain():
    assert hairpinned_gadget_chain("flex", 1) == "CCCAUGGG"
    assert hairpinned_gadget_chain("rigid", 1) == "CCCCCCCAUGGGGGGG"


def _assemble_text(text):
    return assemble(parse_layout(text))


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
    inst = _assemble_text(MINI_PAIR.format(d1="left", d2="right"))
    assert inst.t == 2
    assert all(len(v) == 2 for v in inst.unbound_by_turn.values())
    assert inst.k == inst.bondable // 2 - 2
    bonds, meets = verify_instance(inst, {"v": True})
    assert bonds == inst.k and meets
    bonds_false, meets_false = verify_instance(inst, {"v": False})
    # No rigid coupling: both realizations of a flex corridor zip fully.
    assert bonds_false == inst.k and meets_false


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
        seq = instance.chain.seq
        lo, hi = instance.outbound_range
        assert set(seq[lo - 1 : hi]) <= {"C", "A"}
        lo, hi = instance.returning_range
        assert set(seq[lo - 1 : hi]) <= {"G", "U"}

    def test_intended_bonds_are_real_contacts(self, instance):
        folding = instance.intended_folding({"x": True})
        size, witness = score(instance.chain, folding)
        assert size >= len(instance.zip_pairs)

    def test_both_foldings_are_valid(self, instance):
        for value in (True, False):
            folding = instance.intended_folding({"x": value})
            assert len(folding) == len(instance.chain)

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
    lo, hi = inst.outbound_range
    outbound = inst.chain.seq[lo - 1:hi]
    for value in (True, False):
        tracer = _Tracer(layout, {"x": value})
        tracer.run()
        assert (len(tracer.a), len(tracer.b)) == (inst.outbound_length, inst.returning_length)
        # The outbound strand is the same under every assignment; spacers
        # get their bases only when the molecule is built.
        assert all(e.base in (None, base) for e, base in zip(tracer.a, outbound))
        folding = inst.intended_folding({"x": value})
        validate_folding(inst.chain, folding.points)
        bonds, _ = verify_instance(inst, {"x": value})
        # x alone satisfies the one clause, and then the bonds are exactly k.
        assert bonds == inst.k if value else bonds < inst.k


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


def test_crossing_route_rejected():
    text = """
spacing 1
segment flex 1
turn f1 fixed left
segment flex 1
turn f2 fixed left
segment flex 1
turn f3 fixed left
segment flex 2
"""
    with pytest.raises(LayoutError, match="cross"):
        assemble(parse_layout(text))


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
    assert verify_straightness("rigid", 1)
    with pytest.raises(ValueError):
        verify_straightness("flex", 4)
