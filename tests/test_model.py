import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from wcfold.matching import maximum_bipartite_matching
from wcfold.model import (
    BASES,
    Chain,
    ChainParseError,
    Folding,
    FoldingValidationError,
    complementary,
    contact_graph,
    parse_chain,
    score,
    validate_folding,
)
from wcfold.reduction import assemble, bundled_layout_text, parse_layout
from wcfold.walks import enumerate_walk_points

from conftest import brute_force_matching_size


@pytest.mark.parametrize("seq,message", [
    ("X" * 50_000 + "GCNAU" + "X" * 50_000, "invalid bases in chain: ['N']"),
    ("gcau", "invalid bases in chain: ['a', 'c', 'g', 'u']"),
    ("GCé", "invalid bases in chain: ['é']"),
    ("GZCQBZ", "invalid bases in chain: ['B', 'Q', 'Z']"),
    ("", "a chain needs at least one base"),
], ids=["deep-stray", "lower-case", "non-ascii", "several", "empty"])
def test_chain_names_its_stray_bases(seq, message):
    with pytest.raises(ValueError) as caught:
        Chain(seq)
    assert str(caught.value) == message


def test_parse_basic():
    chain = parse_chain("GGGGCCCC")
    assert chain.seq == "GGGGCCCC"
    assert len(chain) == 8


def test_parse_case_folding():
    assert parse_chain("gxu").seq == "GXU"


def test_parse_rejects_bad_alphabet():
    with pytest.raises(ChainParseError) as exc:
        parse_chain("GQ")
    assert exc.value.position == 2


def test_parse_ignores_whitespace():
    assert parse_chain(" gg cc\n").seq == "GGCC"


def test_parse_empty():
    with pytest.raises(ChainParseError):
        parse_chain("   ")


def loop_parse_chain(text):
    """parse_chain as a loop over the characters, one at a time: the
    reference that the C-level version must match."""
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


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ChainParseError as exc:
        return str(exc), exc.position


# Bases in both cases; whitespace that split() and isspace() both skip,
# ASCII and not; strays, ASCII and not; and characters whose upper case
# is longer than they are (sharp s, the ff ligature, a with right half
# ring), which must be named as they were written.
_PARSE_KEPT = "GCAUXgcaux \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u2000\u2028\u3000"
_PARSE_STRAYS = "ZnN1-é\u0130\u0131\uff47\xdf\ufb00\u1e9a"


@pytest.mark.parametrize("text", ["gc\xdf", "\ufb00", " g\n\u1e9ac", "GC\u3000au", "\u2028\x85 ", ""],
                         ids=["sharp-s", "ff-ligature", "half-ring", "ideographic-space",
                              "only-whitespace", "empty"])
def test_parse_matches_loop_on_named_cases(text):
    assert _parse_outcome(parse_chain, text) == _parse_outcome(loop_parse_chain, text)


@given(st.lists(st.sampled_from(_PARSE_KEPT), max_size=40),
       st.lists(st.sampled_from(_PARSE_KEPT + _PARSE_STRAYS), max_size=10))
@settings(max_examples=300, deadline=None)
def test_parse_matches_loop_on_random_text(head, tail):
    # A head of bases and whitespace, then any characters, so that the
    # first stray, when there is one, can sit deep in the text.
    text = "".join(head + tail)
    assert _parse_outcome(parse_chain, text) == _parse_outcome(loop_parse_chain, text)


def test_validate_unit_square():
    chain = parse_chain("GGCC")
    folding = validate_folding(chain, [(0, 0), (1, 0), (1, 1), (0, 1)])
    assert len(folding) == 4


def test_validate_self_intersection():
    chain = parse_chain("GGCC")
    with pytest.raises(FoldingValidationError) as exc:
        validate_folding(chain, [(0, 0), (1, 0), (0, 0), (0, 1)])
    assert exc.value.index == 3


def test_validate_non_unit_step():
    chain = parse_chain("GGC")
    with pytest.raises(FoldingValidationError) as exc:
        validate_folding(chain, [(0, 0), (2, 0), (2, 1)])
    assert exc.value.index == 2


def test_validate_length_mismatch():
    with pytest.raises(FoldingValidationError):
        validate_folding(parse_chain("GG"), [(0, 0)])


def test_contact_graph_square():
    chain = parse_chain("GGCC")
    folding = validate_folding(chain, [(0, 0), (1, 0), (1, 1), (0, 1)])
    assert contact_graph(chain, folding) == [(1, 4)]


def test_contact_graph_no_complement():
    chain = parse_chain("GGGG")
    folding = validate_folding(chain, [(0, 0), (1, 0), (1, 1), (0, 1)])
    assert contact_graph(chain, folding) == []


def test_contact_graph_chain_adjacent_excluded():
    chain = parse_chain("GC")
    folding = validate_folding(chain, [(0, 0), (1, 0)])
    assert contact_graph(chain, folding) == []


def _hairpin(n):
    bottom = [(x, 0) for x in range(n)]
    top = [(x, 1) for x in range(n - 1, -1, -1)]
    return bottom + top


def test_score_hairpin_witness():
    chain = parse_chain("GGGGCCCC")
    folding = validate_folding(chain, _hairpin(4))
    size, witness = score(chain, folding)
    assert size == 3
    assert witness.edges == frozenset({(1, 8), (2, 7), (3, 6)})


def test_score_no_bonds():
    chain = parse_chain("GGGG")
    folding = validate_folding(chain, _hairpin(2))
    assert score(chain, folding)[0] == 0


def test_score_straight_line():
    chain = parse_chain("GCG")
    folding = validate_folding(chain, [(0, 0), (1, 0), (2, 0)])
    assert score(chain, folding)[0] == 0


def test_greedy_is_not_enough():
    # Frozen counterexample: sorted-order greedy picks (1, 4) and blocks the
    # two-bond matching {(1, 8), (4, 7)}.
    chain = parse_chain("GXXCXXGC")
    pts = [(0, 0), (0, -1), (1, -1), (1, 0), (2, 0), (2, 1), (1, 1), (0, 1)]
    folding = validate_folding(chain, pts)
    edges = contact_graph(chain, folding)
    assert edges == [(1, 4), (1, 8), (4, 7)]

    used = set()
    greedy = 0
    for i, j in edges:
        if i not in used and j not in used:
            used.update((i, j))
            greedy += 1
    size, _ = score(chain, folding)
    assert greedy == 1
    assert size == 2
    assert size == brute_force_matching_size(edges)


def test_matching_rejects_same_parity_edge():
    with pytest.raises(ValueError):
        maximum_bipartite_matching([(1, 3)])


@pytest.mark.parametrize("length", [4, 5, 6])
def test_contact_edges_have_odd_index_sum(length):
    for combo in itertools.product("GCAU", repeat=length):
        chain = Chain("".join(combo))
        for pts in enumerate_walk_points(length):
            for i, j in contact_graph(chain, Folding(pts)):
                assert (i + j) % 2 == 1
        break  # one chain per alphabet suffices here; the solver suite goes deeper


def test_score_at_most_half_length():
    chain = parse_chain("GCGCGCGC")
    for pts in enumerate_walk_points(8):
        assert score(chain, Folding(pts))[0] <= 4


_SYMMETRIES = [
    lambda x, y: (x, y),
    lambda x, y: (-y, x),
    lambda x, y: (-x, -y),
    lambda x, y: (y, -x),
    lambda x, y: (-x, y),
    lambda x, y: (x, -y),
    lambda x, y: (y, x),
    lambda x, y: (-y, -x),
]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_score_invariant_under_symmetry(data):
    length = data.draw(st.integers(min_value=2, max_value=7))
    walks = list(enumerate_walk_points(length))
    pts = data.draw(st.sampled_from(walks))
    seq = data.draw(st.text(alphabet="GCAUX", min_size=length, max_size=length))
    chain = Chain(seq)
    base_score = score(chain, Folding(pts))[0]
    dx = data.draw(st.integers(min_value=-5, max_value=5))
    dy = data.draw(st.integers(min_value=-5, max_value=5))
    for sym in _SYMMETRIES:
        moved = tuple((sym(x, y)[0] + dx, sym(x, y)[1] + dy) for x, y in pts)
        assert score(chain, Folding(moved))[0] == base_score


@pytest.mark.parametrize("length", [2, 3, 4, 5, 6])
def test_score_matches_brute_force_small(length):
    # Oracle equivalence at small scale; the acceptance suite covers L <= 8.
    for combo in itertools.product("GC", repeat=length):
        chain = Chain("".join(combo))
        for pts in enumerate_walk_points(length):
            folding = Folding(pts)
            edges = contact_graph(chain, folding)
            assert score(chain, folding)[0] == brute_force_matching_size(edges)


@st.composite
def self_avoiding_walks(draw):
    """A self-avoiding walk of 1 to 60 points from the origin, grown one
    free neighbour at a time; a walk that traps itself ends early."""
    length = draw(st.integers(min_value=1, max_value=60))
    pts = [(0, 0)]
    used = {(0, 0)}
    while len(pts) < length:
        x, y = pts[-1]
        free = [p for p in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)) if p not in used]
        if not free:
            break
        pts.append(draw(st.sampled_from(free)))
        used.add(pts[-1])
    return pts


def all_pairs_contacts(chain, folding):
    """The contact graph by an O(L^2) scan of every pair of nodes that can
    bond with some base (complementary() rules X out)."""
    seq, pts = chain.seq, folding.points
    nodes = [i for i, a in enumerate(seq) if any(complementary(a, b) for b in BASES)]
    return [
        (i + 1, j + 1)
        for n, i in enumerate(nodes)
        for j in nodes[n + 1:]
        if j - i >= 2
        and abs(pts[i][0] - pts[j][0]) + abs(pts[i][1] - pts[j][1]) == 1
        and complementary(seq[i], seq[j])
    ]


@given(self_avoiding_walks(), st.sampled_from(["GC", "GCAU", "GCAUX", "GX", "X"]), st.data())
@settings(max_examples=200, deadline=None)
def test_contact_graph_matches_all_pairs_scan(pts, alphabet, data):
    seq = data.draw(st.text(alphabet=alphabet, min_size=len(pts), max_size=len(pts)))
    chain = Chain(seq)
    folding = validate_folding(chain, pts)
    edges = contact_graph(chain, folding)
    assert edges == sorted(edges)
    assert edges == all_pairs_contacts(chain, folding)


@pytest.mark.parametrize("name", ["single_clause", "straight_zipper"])
def test_contact_graph_matches_all_pairs_scan_on_fixtures(name):
    layout = parse_layout(bundled_layout_text(name))
    inst = assemble(layout)
    for values in itertools.product((True, False), repeat=len(layout.variables)):
        folding = inst.intended_folding(dict(zip(layout.variables, values)))
        edges = contact_graph(inst.chain, folding)
        assert edges == sorted(edges)
        assert edges == all_pairs_contacts(inst.chain, folding)


def loop_validate_folding(chain, points):
    """validate_folding as one Python loop over every point: the reference
    for which error, message and index the set-based checks must give."""
    raw = list(points)
    pts = []
    for x, y in raw:
        try:
            pts.append((int(x), int(y)))
        except OverflowError:
            # An infinity is named like a fraction, and no later point is
            # coerced: a value that int() rejects after it never raises.
            pts.append(None)
            break
    for i, ((x, y), pt) in enumerate(zip(raw, pts), start=1):
        if pt != (x, y):
            raise FoldingValidationError(
                f"non-integer coordinate at index {i} (point {(x, y)})", i
            )
    if len(pts) != len(chain):
        raise FoldingValidationError(
            f"folding has {len(pts)} points for a chain of length {len(chain)}",
            len(pts),
        )
    seen = {}
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
    return Folding(tuple(pts))


def _outcome(validate, chain, points):
    try:
        return validate(chain, points)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "index", None)


@given(self_avoiding_walks(), st.data())
@settings(max_examples=200, deadline=None)
def test_validate_folding_errors_match_loop(pts, data):
    chain = Chain("G" * len(pts))
    fault = data.draw(st.sampled_from(
        ["none", "repeat", "jump", "diagonal", "length", "fraction", "infinite"]))
    if fault == "length":
        pts = pts + [(pts[-1][0] + 1, pts[-1][1])] if data.draw(st.booleans()) else pts[:-1]
    elif fault != "none" and len(pts) > 1:
        j = data.draw(st.integers(min_value=1, max_value=len(pts) - 1))
        x, y = pts[j - 1]
        if fault == "repeat":
            pts[j] = pts[data.draw(st.integers(min_value=0, max_value=j - 1))]
        elif fault == "fraction":
            pts[j] = data.draw(st.sampled_from([(x + 0.5, y), (x, y - 0.25), (x + 1.9, y)]))
        elif fault == "infinite":
            pts[j] = data.draw(st.sampled_from([(math.inf, y), (x, -math.inf)]))
        elif fault == "jump":
            dx, dy = data.draw(st.sampled_from([(2, 0), (0, -3), (5, 7), (0, 0)]))
            pts[j] = (x + dx, y + dy)
        else:
            pts[j] = (x + data.draw(st.sampled_from([1, -1])), y + data.draw(st.sampled_from([1, -1])))
    form = data.draw(st.sampled_from(["tuples", "lists", "floats"]))
    if form == "lists":
        pts = [list(p) for p in pts]
    elif form == "floats":
        pts = [(float(x), float(y)) for x, y in pts]
    assert _outcome(validate_folding, chain, pts) == _outcome(loop_validate_folding, chain, pts)


@pytest.mark.parametrize("points", [
    [(0, 0), (1, 0, 0)],
    [(0, 0), (1,)],
    [(0, 0), 1],
    [(0, 0), ("a", 0)],
    [(0, 0), (True, False)],
    [(0, 0), (0, 1)],
    [(0, 0.5), ("a", 0)],
    [(math.inf, 0), ("a", 0)],
    [(0, 0.5), (math.inf, 0), (0, 1, 2)],
], ids=["triple", "single", "scalar", "text", "bools", "valid", "fraction-then-text",
        "inf-then-text", "fraction-then-inf-then-triple"])
def test_validate_folding_coercion_matches_loop(points):
    chain = Chain("GC")
    assert _outcome(validate_folding, chain, points) == _outcome(loop_validate_folding, chain, points)
    # A one-shot iterator is read once, like a list.
    assert (_outcome(validate_folding, chain, iter(points))
            == _outcome(loop_validate_folding, chain, iter(points)))


@pytest.mark.parametrize("points, point", [
    ([(0, 0), (1.9, 0)], (1.9, 0)),
    ([(0, 0), (0.4, 0.6)], (0.4, 0.6)),
    ([[0, 0], [1, 0.5]], (1, 0.5)),
    ([(0, 0), (math.inf, 0)], (math.inf, 0)),
    ([(0, 0), (-math.inf, 0)], (-math.inf, 0)),
], ids=["truncated-to-a-step", "truncated-to-a-repeat", "list", "inf", "-inf"])
def test_validate_folding_rejects_fractional_coordinates(points, point):
    # int() would turn each fraction into a valid step or a repeat of
    # (0, 0), and raises OverflowError on an infinity.
    with pytest.raises(FoldingValidationError) as caught:
        validate_folding(Chain("GC"), points)
    assert str(caught.value) == f"non-integer coordinate at index 2 (point {point})"
    assert caught.value.index == 2


def test_validate_folding_names_an_infinity_before_a_nan():
    # int() overflows on the infinity before it reaches the NaN, which would
    # raise a plain ValueError, so the infinity's index is named.
    points = [(0, 0), (math.inf, 0), (math.nan, 0)]
    with pytest.raises(FoldingValidationError) as caught:
        validate_folding(Chain("GCG"), points)
    assert str(caught.value) == "non-integer coordinate at index 2 (point (inf, 0))"
    assert caught.value.index == 2
    # A NaN first still raises int()'s own ValueError.
    with pytest.raises(ValueError, match="NaN"):
        validate_folding(Chain("GCG"), [(0, 0), (math.nan, 0), (math.inf, 0)])

