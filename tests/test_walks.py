from itertools import accumulate

import pytest

from wcfold.walks import enumerate_walk_points, moves_to_points, points_to_moves

# Self-avoiding walk counts on the square lattice, by number of steps.
SAW_COUNTS = {1: 4, 2: 12, 3: 36, 4: 100, 5: 284, 6: 780, 7: 2172}


def is_straight(points) -> bool:
    """True when all points lie on one lattice line."""
    pts = list(points)
    if len(pts) <= 2:
        return True
    xs = {p[0] for p in pts}
    ys = {p[1] for p in pts}
    return len(xs) == 1 or len(ys) == 1


def canonical_moves(points) -> str:
    """Move string of the walk's canonical symmetry representative.

    Two walks are images of each other under the 8 lattice symmetries plus
    translation exactly when their canonical move strings are equal: the
    symmetry oracle for the enumeration and the solver's representatives.
    """
    pts = list(points)
    steps = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(pts, pts[1:])]
    if not steps:
        return ""
    dx, dy = steps[0]
    # Rotate the first step onto +x, then mirror if the first turn is right.
    steps = [(sx * dx + sy * dy, sy * dx - sx * dy) for sx, sy in steps]
    if next((sy for _, sy in steps if sy), 1) == -1:
        steps = [(sx, -sy) for sx, sy in steps]
    return points_to_moves(
        accumulate(steps, lambda p, s: (p[0] + s[0], p[1] + s[1]), initial=(0, 0)))


def orbit_weight(points) -> int:
    """Number of distinct walks (up to translation) in this walk's symmetry
    orbit: 4 for straight walks, 8 otherwise."""
    return 4 if is_straight(points) else 8


def test_single_node():
    assert list(enumerate_walk_points(1)) == [((0, 0),)]
    with pytest.raises(ValueError, match="length must be at least 1"):
        next(enumerate_walk_points(0))


def test_two_nodes_single_walk():
    assert list(enumerate_walk_points(2)) == [((0, 0), (1, 0))]


def test_three_nodes():
    walks = list(enumerate_walk_points(3))
    assert len(walks) == 2
    assert {points_to_moves(w) for w in walks} == {"RR", "RU"}


def test_four_nodes():
    walks = list(enumerate_walk_points(4))
    assert len(walks) == 5
    assert {points_to_moves(w) for w in walks} == {"RRR", "RRU", "RUL", "RUU", "RUR"}


@pytest.mark.parametrize("steps", sorted(SAW_COUNTS))
def test_orbit_weights_reproduce_saw_counts(steps):
    total = sum(orbit_weight(w) for w in enumerate_walk_points(steps + 1))
    assert total == SAW_COUNTS[steps]


def test_first_step_east_first_turn_north():
    for walk in enumerate_walk_points(6):
        moves = points_to_moves(walk)
        assert moves[0] == "R"
        turns = moves.lstrip("R")
        if turns:
            assert turns[0] == "U"


def test_walks_are_distinct_orbits():
    walks = list(enumerate_walk_points(6))
    canon = {canonical_moves(w) for w in walks}
    assert len(canon) == len(walks)


def test_canonical_moves_identifies_symmetric_images():
    walk = ((0, 0), (0, 1), (-1, 1), (-1, 2))  # some rotated/reflected walk
    rotated = ((0, 0), (1, 0), (1, -1), (2, -1))
    assert canonical_moves(walk) == canonical_moves(rotated)


def test_moves_round_trip():
    pts = ((0, 0), (1, 0), (1, 1), (0, 1), (0, 2))
    assert moves_to_points(points_to_moves(pts)) == pts


def test_moves_reject_bad_char():
    with pytest.raises(ValueError):
        moves_to_points("RQ")


def test_is_straight():
    assert is_straight(((0, 0), (1, 0), (2, 0)))
    assert not is_straight(((0, 0), (1, 0), (1, 1)))
