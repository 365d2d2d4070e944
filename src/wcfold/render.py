"""ASCII and SVG drawings of foldings.

Glyphs follow the figure convention: G a filled disc, C an open disc, A a
disc with a horizontal bar, U a disc with a vertical bar, X a cross (X only
appears in reduction tails).  The chain is drawn solid, bonds dashed.  The
ASCII renderer approximates the discs with letters and marks bonds with
dotted links ('··' horizontal, ':' vertical) against solid chain links
('--' and '|').
"""

from __future__ import annotations

from xml.sax.saxutils import escape

from .model import BondSet, Chain, Folding, score

ASCII_GLYPHS = {"G": "G", "C": "C", "A": "A", "U": "U", "X": "x"}
_SVG_CELL = 40    # pixels per lattice unit
_SVG_RADIUS = 11  # glyph radius in pixels


def render(chain: Chain, folding: Folding, fmt: str = "ascii",
           bonds: BondSet | None = None) -> str:
    """Draw the folding as "ascii" or "svg"; bonds default to a maximum matching."""
    if bonds is None:
        bonds = score(chain, folding)[1]
    if fmt == "ascii":
        return render_ascii(chain, folding, bonds)
    if fmt == "svg":
        return render_svg(chain, folding, bonds)
    raise ValueError(f"unknown render format {fmt!r}")


def render_ascii(chain: Chain, folding: Folding, bonds: BondSet) -> str:
    pts = folding.points
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    width = 3 * (max_x - min_x) + 1
    height = 2 * (max_y - min_y) + 1
    grid = [[" "] * width for _ in range(height)]

    def put(px: int, py: int, ch: str) -> None:
        # Row 0 is the top of the drawing.
        col = 3 * (px - min_x)
        row = 2 * (max_y - py)
        grid[row][col] = ch

    def link(p, q, horizontal_ch: str, vertical_ch: str) -> None:
        (x0, y0), (x1, y1) = sorted((p, q))
        col = 3 * (x0 - min_x)
        row = 2 * (max_y - y0)
        if y0 == y1:  # horizontal
            grid[row][col + 1] = horizontal_ch
            grid[row][col + 2] = horizontal_ch
        else:  # vertical; y1 = y0 + 1
            grid[row - 1][col] = vertical_ch

    for (x, y), base in zip(pts, chain.seq):
        put(x, y, ASCII_GLYPHS[base])
    for p, q in zip(pts, pts[1:]):
        link(p, q, "-", "|")
    for i, j in sorted(bonds.edges):
        link(pts[i - 1], pts[j - 1], "·", ":")

    return "\n".join("".join(row).rstrip() for row in grid) + "\n"


def _svg_glyph(base: str, cx: float, cy: float, r: int) -> str:
    common = f'cx="{cx}" cy="{cy}" r="{r}"'
    if base == "G":
        return f'<circle {common} fill="black" stroke="black"/>'
    if base == "C":
        return f'<circle {common} fill="white" stroke="black"/>'
    if base == "A":
        return (
            f'<circle {common} fill="white" stroke="black"/>'
            f'<line x1="{cx - r}" y1="{cy}" x2="{cx + r}" y2="{cy}" stroke="black"/>'
        )
    if base == "U":
        return (
            f'<circle {common} fill="white" stroke="black"/>'
            f'<line x1="{cx}" y1="{cy - r}" x2="{cx}" y2="{cy + r}" stroke="black"/>'
        )
    # X: a cross, no disc
    return (
        f'<line x1="{cx - r}" y1="{cy - r}" x2="{cx + r}" y2="{cy + r}" stroke="black"/>'
        f'<line x1="{cx - r}" y1="{cy + r}" x2="{cx + r}" y2="{cy - r}" stroke="black"/>'
    )


_LEGEND = (
    ("G", "G (filled)"),
    ("C", "C (open)"),
    ("A", "A (horizontal bar)"),
    ("U", "U (vertical bar)"),
    ("X", "X (cross, non-bonding)"),
)


def render_svg(chain: Chain, folding: Folding, bonds: BondSet) -> str:
    pts = folding.points
    cell, r = _SVG_CELL, _SVG_RADIUS
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    min_x, max_y = min(xs), max(ys)

    def pos(p):
        return ((p[0] - min_x + 1) * cell, (max_y - p[1] + 1) * cell)

    width = (max(xs) - min_x + 2) * cell
    height = (max_y - min(ys) + 2) * cell + 24 * (len(_LEGEND) + 1)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<g class="chain">',
    ]
    for p, q in zip(pts, pts[1:]):
        (x0, y0), (x1, y1) = pos(p), pos(q)
        parts.append(
            f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y1}" stroke="black" stroke-width="2"/>'
        )
    parts.append("</g>")
    parts.append('<g class="bonds">')
    for i, j in sorted(bonds.edges):
        (x0, y0), (x1, y1) = pos(pts[i - 1]), pos(pts[j - 1])
        parts.append(
            f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y1}" stroke="black" '
            'stroke-width="1.5" stroke-dasharray="4 3" class="bond"/>'
        )
    parts.append("</g>")
    parts.append('<g class="nodes">')
    for p, base in zip(pts, chain.seq):
        x, y = pos(p)
        parts.append(_svg_glyph(base, x, y, r))
    parts.append("</g>")

    legend_y = (max_y - min(ys) + 2) * cell + 12
    parts.append('<g class="legend" font-size="12" font-family="sans-serif">')
    for idx, (base, label) in enumerate(_LEGEND):
        y = legend_y + 24 * idx
        parts.append(_svg_glyph(base, 20, y, 8))
        parts.append(f'<text x="36" y="{y + 4}">{escape(label)}</text>')
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
