import hashlib
import itertools
import json
import subprocess
import sys

import pytest

from wcfold import approx
from wcfold.approx import BRANCH_EVENG_ODDC, build_folding, plan_fold, relabel
from wcfold.cli import main
from wcfold.model import Chain
from wcfold.walks import points_to_moves
from wcfold.reduction import bundled_layout_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_block_chain(capsys):
    code, out, err = run_cli(capsys, "solve", "GGGGCCCC")
    assert code == 0
    assert "output.optimal_score: 3" in out
    assert "output.unique: true" in out
    assert "elapsed" in err


def test_solve_no_bonds(capsys):
    code, out, _ = run_cli(capsys, "solve", "GGGG")
    assert code == 0
    assert "output.optimal_score: 0" in out


def test_solve_structured_is_json(capsys):
    code, out, _ = run_cli(capsys, "solve", "GGGGCCCC", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["output"]["optimal_score"] == 3
    assert "timing" not in out


def test_solve_limit_exit_code(capsys):
    code, _, err = run_cli(capsys, "solve", "G" * 21)
    assert code == 2
    assert "limit 20" in err and "--max-length" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "solve", "GQ")
    assert code == 1
    assert "position 2" in err


def test_usage_error_exit_code(capsys):
    code, _, _ = run_cli(capsys, "gen", "spiral", "4")
    assert code == 1


def test_bound_parity(capsys):
    code, out, _ = run_cli(capsys, "bound", "--parity", "GGGGCCCC")
    assert code == 0
    assert "output.parity: 4" in out
    assert "bbox" not in out


def test_bound_both(capsys):
    code, out, _ = run_cli(capsys, "bound", "GGGGCCCCC")
    assert code == 0
    assert "output.parity:" in out
    assert "output.bbox: 3" in out
    assert "floor extension" in out


def test_gen_sn(capsys):
    code, out, _ = run_cli(capsys, "gen", "sn", "4")
    assert code == 0
    assert "output.sequence: GGGGCCCC" in out
    assert "unique_folding_guaranteed: true" in out


def test_gen_mixed(capsys):
    code, out, _ = run_cli(capsys, "gen", "mixed", "4", "4")
    assert code == 0
    assert "output.sequence: GGAAUUCC" in out


def test_gen_hairpin_file(capsys, tmp_path):
    path = tmp_path / "f4.fold"
    code, out, _ = run_cli(capsys, "gen", "sn", "4", "--emit-folding", str(path))
    assert code == 0
    assert "output.folding_score: 3" in out
    assert path.exists()


def test_approx(capsys, tmp_path):
    path = tmp_path / "a.fold"
    code, out, _ = run_cli(capsys, "approx", "GGGGCCCC", "--folding-out", str(path))
    assert code == 0
    assert "output.achieved: 3" in out
    assert path.exists()


def _approx_outputs(capsys, seq):
    code, out, _ = run_cli(capsys, "approx", seq)
    assert code == 0
    prefix = "output."
    return {
        key[len(prefix):]: value
        for key, _, value in (line.partition(": ") for line in out.splitlines())
        if key.startswith(prefix)
    }


def test_approx_reports_the_plan_it_built(capsys):
    # On these chains the census-preferred branch only offers a
    # chain-adjacent pair, so the plan that is built uses the other branch.
    outputs = _approx_outputs(capsys, "CCGG")
    assert outputs["branch"] == BRANCH_EVENG_ODDC
    assert outputs["matched_pairs"] == "1"
    assert outputs["achieved"] == "1"
    seqs = ["".join(c) for n in range(2, 11) for c in itertools.product("GC", repeat=n)]
    other_branch = [s for s in seqs if plan_fold(Chain(s)).branch != relabel(Chain(s)).branch]
    assert "CCGG" in other_branch and "GGCC" not in other_branch
    for seq in other_branch + ["GGGGCCCC", "GCGCGCGCGC"]:
        chain = Chain(seq)
        outputs = _approx_outputs(capsys, seq)
        plan = plan_fold(chain)
        folding, achieved = build_folding(chain, plan)
        assert int(outputs["matched_pairs"]) <= int(outputs["achieved"]), seq
        assert (outputs["branch"], int(outputs["fold_index"]), int(outputs["matched_pairs"])) \
            == (plan.branch, plan.fold_index, len(plan.matched_pairs)), seq
        assert outputs["folding_moves"] == points_to_moves(folding.points), seq
        assert int(outputs["achieved"]) == achieved, seq


def test_long_inline_sequence(capsys):
    # longer than a file name may be, so it must not be looked up as a path
    code, out, _ = run_cli(capsys, "approx", "GC" * 200)
    assert code == 0
    assert "output.matched_pairs: 100" in out


def test_unwritable_out_exit_code(capsys, tmp_path):
    code, out, err = run_cli(capsys, "bound", "GGCC", "--out", str(tmp_path / "missing" / "x"))
    assert code == 4
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_unwritable_folding_out_exit_code(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "approx", "GGGGCCCC", "--folding-out", str(tmp_path / "missing" / "a.fold")
    )
    assert code == 4
    assert err.startswith("error: ")


def test_internal_check_exit_code(capsys, monkeypatch):
    # a scorer that finds no bonds trips the construction's own assertion
    monkeypatch.setattr(approx, "score", lambda chain, folding: (0, None))
    code, out, err = run_cli(capsys, "approx", "GGGGCCCC")
    assert code == 5
    assert out == ""
    assert err.startswith("error: internal check failed: construction must realize")


def test_render_ascii(capsys, tmp_path):
    fold = tmp_path / "f4.fold"
    run_cli(capsys, "gen", "sn", "4", "--emit-folding", str(fold))
    code, out, _ = run_cli(capsys, "render", "GGGGCCCC", str(fold))
    assert code == 0
    assert out.count(":") == 3


def test_render_svg_to_file(capsys, tmp_path):
    fold = tmp_path / "f4.fold"
    run_cli(capsys, "gen", "sn", "4", "--emit-folding", str(fold))
    svg = tmp_path / "f4.svg"
    code, out, _ = run_cli(
        capsys, "render", "GGGGCCCC", str(fold), "--render", "svg", "--out", str(svg)
    )
    assert code == 0
    assert svg.read_text().startswith("<?xml")


def test_reduce_and_verify(capsys, tmp_path):
    layout = tmp_path / "fixture.layout"
    layout.write_text(bundled_layout_text("single_clause"))
    prefix = tmp_path / "inst"
    code, out, _ = run_cli(
        capsys, "reduce", str(layout), "--out-prefix", str(prefix),
        "--assign", "x=true", "--assign", "x=false",
    )
    assert code == 0
    assert (tmp_path / "inst.seq").exists()
    assert (tmp_path / "inst.meta").exists()
    assert (tmp_path / "inst.xT.fold").exists()
    assert (tmp_path / "inst.xF.fold").exists()

    code, out, _ = run_cli(capsys, "verify", str(layout), "--assign", "x=true")
    assert code == 0
    assert "output.meets_k: true" in out

    code, out, err = run_cli(capsys, "verify", str(layout), "--assign", "x=false")
    assert code == 3
    assert "output.meets_k: false" in out
    assert "verification failed" in err


def test_verify_gadget(capsys):
    code, out, _ = run_cli(capsys, "verify", "--gadget", "rigid", "--periods", "1")
    assert code == 0
    assert "straight_unique_optimal: true" in out


def test_sequence_from_file(capsys, tmp_path):
    seq = tmp_path / "chain.txt"
    seq.write_text("gggg cccc\n")
    code, out, _ = run_cli(capsys, "solve", str(seq))
    assert code == 0
    assert "input.sequence: GGGGCCCC" in out


GOLDEN = {
    ("solve", "GGAAUUCC"): """command: solve
input.sequence: GGAAUUCC
input.length: 8
input.digest: d25ba5e78135
output.optimal_score: 3
output.optimal_count: 1
output.unique: true
output.bound_bbox: 3
output.bound_parity: 4
output.representatives: RRRULLL
diag.nodes_explored: 73
diag.pruned: 42
""",
    ("solve", "GGGCCC", "--all-optima"): """command: solve
input.sequence: GGGCCC
input.length: 6
input.digest: 2ff806fc8570
output.optimal_score: 2
output.optimal_count: 2
output.unique: false
output.bound_bbox: 2
output.bound_parity: 3
output.representatives: RRULL RULUR
diag.nodes_explored: 32
diag.pruned: 17
""",
    ("bound", "GAUC"): """command: bound
input.sequence: GAUC
input.digest: 6d940df9bf7e
output.parity: 2
output.bbox: 1
output.census_odd_g: 1
output.census_even_g: 0
output.census_odd_c: 0
output.census_even_c: 1
output.census_odd_a: 0
output.census_even_a: 1
output.census_odd_u: 1
output.census_even_u: 0
output.parity_note: includes the A/U extension terms
""",
    ("approx", "CCGG", "--exact"): """command: approx
input.sequence: CCGG
input.digest: 5582047ed071
output.achieved: 1
output.branch: evenG/oddC
output.fold_index: 2
output.matched_pairs: 1
output.pair_floor_guarantee: 0
output.bound_parity: 2
output.folding_moves: RDL
output.optimal: 1
""",
}


# --all-optima lists every optimum whatever the representative cap
GOLDEN[("solve", "GGGCCC", "--all-optima", "--representatives", "1")] = GOLDEN[
    ("solve", "GGGCCC", "--all-optima")]


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_golden_document(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == GOLDEN[argv]


def test_golden_verify_document(capsys, tmp_path):
    layout = tmp_path / "single_clause.layout"
    layout.write_text(bundled_layout_text("single_clause"))
    code, out, _ = run_cli(capsys, "verify", str(layout), "--assign", "x=true")
    assert code == 0
    assert out == """command: verify
input.layout: {layout}
input.assignment: xT
output.k: 105
output.bonds: 105
output.meets_k: true
""".format(layout=layout)
    code, out, _ = run_cli(capsys, "verify", str(layout), "--assign", "x=false")
    assert code == 3
    assert out == """command: verify
input.layout: {layout}
input.assignment: xF
output.k: 105
output.bonds: 101
output.meets_k: false
""".format(layout=layout)


def test_golden_reduce_files(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # relative paths, so the metadata file is fixed
    (tmp_path / "single_clause.layout").write_text(bundled_layout_text("single_clause"))
    code, out, _ = run_cli(capsys, "reduce", "single_clause.layout", "--out-prefix", "P",
                           "--assign", "x=true", "--assign", "x=false")
    assert code == 0
    assert out == """command: reduce
input.layout: single_clause.layout
output.length: 23544
output.k: 105
output.t: 2
output.bondable: 214
output.tail_length: 11664
output.digest: 243ab5e3cccf
output.sequence_file: P.seq
output.metadata_file: P.meta
output.folding_file_xT: P.xT.fold
output.folding_file_xF: P.xF.fold
"""
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("P.seq", "P.meta", "P.xT.fold", "P.xF.fold")}
    assert digests == {
        "P.seq": "85e048fcedf378b1ff5565f8920440117df32b7fd090b219ef47c9d8e9ab68a7",
        "P.meta": "c865a532f2e0f37615e623d119d037164fcec48c9d942a2af9542e261a2aa0e2",
        "P.xT.fold": "eb9273231f8c4dc12d6ba7287901cae293ffccf8739848f8bfc6e089c6952c25",
        "P.xF.fold": "3612c71bc6db166e8b29b65852df0b93bca7e307b654246f1829174b0e64f839",
    }


def test_verify_rejects_unknown_variable(capsys, tmp_path):
    layout = tmp_path / "single_clause.layout"
    layout.write_text(bundled_layout_text("single_clause"))
    code, out, err = run_cli(capsys, "verify", str(layout), "--assign", "x=true,typo=false")
    assert code == 1
    assert out == ""
    assert err == "error: assignment names unknown variables ['typo']\n"


def test_reduce_rejects_unknown_variable(capsys, tmp_path):
    layout = tmp_path / "single_clause.layout"
    layout.write_text(bundled_layout_text("single_clause"))
    code, out, err = run_cli(capsys, "reduce", str(layout), "--out-prefix", str(tmp_path / "inst"),
                             "--assign", "x=true,typo=false")
    assert code == 1
    assert out == ""
    assert err == "error: assignment names unknown variables ['typo']\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["single_clause.layout"]


def test_verify_rejects_repeated_variable(capsys, tmp_path):
    layout = tmp_path / "single_clause.layout"
    layout.write_text(bundled_layout_text("single_clause"))
    code, out, err = run_cli(capsys, "verify", str(layout), "--assign", "x=false,x=true")
    assert code == 1
    assert out == ""
    assert err == "error: variable 'x' assigned more than once in 'x=false,x=true'\n"


def test_reduce_rejects_repeated_variable(capsys, tmp_path):
    layout = tmp_path / "single_clause.layout"
    layout.write_text(bundled_layout_text("single_clause"))
    code, out, err = run_cli(capsys, "reduce", str(layout), "--out-prefix", str(tmp_path / "inst"),
                             "--assign", "x=true", "--assign", "x=true x=false")
    assert code == 1
    assert out == ""
    assert err == "error: variable 'x' assigned more than once in 'x=true x=false'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["single_clause.layout"]


def test_render_rejects_mixed_folding_file(capsys, tmp_path):
    fold = tmp_path / "mixed.fold"
    fold.write_text("0 0\n1 0\nRU\n")
    code, out, err = run_cli(capsys, "render", "GGC", str(fold))
    assert code == 1
    assert out == ""
    assert err.startswith("error: bad folding line")


def test_structured_output_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "solve", "GGGGCCCC", "--format", "structured")
    _, out2, _ = run_cli(capsys, "solve", "GGGGCCCC", "--format", "structured")
    assert out1 == out2


def test_subprocess_entrypoint():
    result = subprocess.run(
        [sys.executable, "-m", "wcfold", "solve", "GGGGCCCC"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert "output.optimal_score: 3" in result.stdout
