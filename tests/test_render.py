import xml.etree.ElementTree as ET

from wcfold.bounds import gc_block_chain, hairpin_folding
from wcfold.model import parse_chain, score, validate_folding
from wcfold.render import render, render_ascii, render_svg


def test_ascii_hairpin():
    chain = gc_block_chain(4)
    folding = hairpin_folding(4)
    size, bonds = score(chain, folding)
    art = render_ascii(chain, folding, bonds)
    rows = [r for r in art.splitlines() if r.strip()]
    glyph_rows = [r for r in rows if any(ch in "GC" for ch in r)]
    assert len(glyph_rows) == 2
    assert art.count(":") == size == 3  # vertical dashed bond marks
    assert "C--C--C--C" in art
    assert "G--G--G--G" in art


def test_ascii_single_node():
    chain = parse_chain("G")
    folding = validate_folding(chain, [(0, 0)])
    art = render(chain, folding)
    assert art.strip() == "G"


def test_ascii_horizontal_bond_marks():
    chain = parse_chain("GGCC")
    # Vertical hairpin: the bond (1, 4) is horizontal.
    folding = validate_folding(chain, [(0, 0), (0, 1), (1, 1), (1, 0)])
    size, bonds = score(chain, folding)
    assert size == 1
    art = render_ascii(chain, folding, bonds)
    assert "··" in art


def test_svg_well_formed_and_bond_count():
    chain = gc_block_chain(5)
    folding = hairpin_folding(5)
    size, bonds = score(chain, folding)
    svg = render_svg(chain, folding, bonds)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    dashed = [
        el for el in root.iter()
        if el.tag.endswith("line") and el.get("stroke-dasharray")
    ]
    assert len(dashed) == size == 4


def test_svg_has_glyph_legend():
    chain = parse_chain("GCAUX")
    folding = validate_folding(chain, [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)])
    svg = render(chain, folding, "svg")
    root = ET.fromstring(svg)
    legend = [el for el in root.iter() if el.get("class") == "legend"]
    assert legend
    texts = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert any("cross" in t for t in texts)
