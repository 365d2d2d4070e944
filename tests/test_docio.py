import pytest

from wcfold.bounds import gc_block_chain, hairpin_folding
from wcfold.docio import (
    ResultDocument,
    read_folding_points,
    sequence_digest,
    write_folding_file,
)
from wcfold.model import validate_folding
from wcfold.walks import moves_to_points, points_to_moves


def test_folding_file_round_trip(tmp_path):
    chain = gc_block_chain(4)
    folding = hairpin_folding(4)
    path = tmp_path / "f4.fold"
    write_folding_file(path, folding, comment="hairpin n=4")
    points = read_folding_points(path)
    assert validate_folding(chain, points).points == folding.points


def test_folding_file_comments_and_blanks(tmp_path):
    path = tmp_path / "f.fold"
    path.write_text("# header\n\n0 0\n1 0  # inline\n")
    assert read_folding_points(path) == ((0, 0), (1, 0))


def test_folding_file_move_string(tmp_path):
    path = tmp_path / "m.fold"
    path.write_text("RUL\n")
    assert read_folding_points(path) == moves_to_points("RUL")


@pytest.mark.parametrize("text", ["0 0\n1 0\nRU\n", "RU\n5 5\ngarbage here too\n", "RU\nLD\n"])
def test_folding_file_mixed_formats(tmp_path, text):
    # a file is point lines only, or one move-string line alone
    path = tmp_path / "mixed.fold"
    path.write_text(text)
    with pytest.raises(ValueError, match="bad folding line"):
        read_folding_points(path)


def test_folding_file_bad_line(tmp_path):
    path = tmp_path / "bad.fold"
    path.write_text("0 zero\n")
    with pytest.raises(ValueError):
        read_folding_points(path)


def test_move_string_round_trip():
    pts = ((0, 0), (1, 0), (1, 1), (0, 1))
    assert moves_to_points(points_to_moves(pts)) == pts


def test_document_text_round_trip():
    doc = ResultDocument(
        command="solve GGGGCCCC",
        inputs={"sequence": "GGGGCCCC", "digest": sequence_digest("GGGGCCCC")},
        outputs={"optimal_score": 3, "unique": True},
        diagnostics={"nodes_explored": 96},
    )
    text = doc.to_text()
    assert "timing" not in text
    assert "output.optimal_score: 3" in text
    assert "output.unique: true" in text


def test_document_json_round_trip():
    doc = ResultDocument(
        command="bound GC",
        inputs={"sequence": "GC"},
        outputs={"parity": 1, "bbox": 0},
    )
    assert "timing" not in doc.to_json()


def test_document_stable_field_order():
    doc = ResultDocument(command="x", outputs={"b": 1, "a": 2})
    lines = doc.to_text().splitlines()
    assert lines.index("output.b: 1") < lines.index("output.a: 2")


def test_digest_is_stable():
    assert sequence_digest("GGGGCCCC") == sequence_digest("GGGGCCCC")
    assert sequence_digest("GGGGCCCC") != sequence_digest("GGGGCCCG")
