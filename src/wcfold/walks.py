"""Canonical self-avoiding walk enumeration on the square lattice.

One representative per orbit of the 8 lattice symmetries: the first step is
+x and the first non-straight step, if any, is a left turn.  Straight walks
have a mirror symmetry and still appear exactly once, so the enumeration
counts symmetry classes directly.
"""

from __future__ import annotations

from typing import Iterator

from .model import Point

# Fixed direction order: east, north, west, south.  This pins the
# deterministic depth-first emission order everywhere.
DIRS: tuple[Point, ...] = ((1, 0), (0, 1), (-1, 0), (0, -1))

_MOVE_CHAR = {(1, 0): "R", (-1, 0): "L", (0, 1): "U", (0, -1): "D"}
_CHAR_MOVE = {v: k for k, v in _MOVE_CHAR.items()}


def enumerate_walk_points(length: int) -> Iterator[tuple[Point, ...]]:
    """Yield every self-avoiding walk of `length` nodes as a point tuple,
    once per symmetry orbit, in deterministic depth-first order."""
    if length < 1:
        raise ValueError("length must be at least 1")
    if length == 1:
        yield ((0, 0),)
        return
    path: list[Point] = [(0, 0), (1, 0)]
    occupied = {(0, 0), (1, 0)}

    def extend(turned: bool) -> Iterator[tuple[Point, ...]]:
        if len(path) == length:
            yield tuple(path)
            return
        x, y = path[-1]
        # Until the first turn the walk may only go straight or turn left.
        candidates = DIRS if turned else DIRS[:2]
        for dx, dy in candidates:
            nxt = (x + dx, y + dy)
            if nxt in occupied:
                continue
            path.append(nxt)
            occupied.add(nxt)
            yield from extend(turned or dy != 0)
            occupied.remove(nxt)
            path.pop()

    yield from extend(False)


def points_to_moves(points) -> str:
    """Encode a walk as absolute moves over {R, L, U, D} from its first node."""
    pts = list(points)
    out = []
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        out.append(_MOVE_CHAR[(x1 - x0, y1 - y0)])
    return "".join(out)


def moves_to_points(moves: str) -> tuple[Point, ...]:
    """Decode a move string; the first node is implicit at the origin."""
    x, y = 0, 0
    pts = [(0, 0)]
    for ch in moves.strip().upper():
        try:
            dx, dy = _CHAR_MOVE[ch]
        except KeyError:
            raise ValueError(f"invalid move character {ch!r}") from None
        x, y = x + dx, y + dy
        pts.append((x, y))
    return tuple(pts)

