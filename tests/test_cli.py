import hashlib
import importlib
import itertools
import json
import re
import subprocess
import sys

import pytest

from wcfold import approx, cli, reduction
from wcfold.approx import BRANCH_EVENG_ODDC, build_folding, choose_fold_point, relabel
from wcfold.cli import main
from wcfold.docio import write_folding_file
from wcfold.model import Chain
from wcfold.walks import points_to_moves
from wcfold.reduction import bundled_layout_text

from conftest import ZERO_PERIOD_LAYOUT, boustrophedon


# A failed verification emits its document and elapsed line, then one error line.
VERIFICATION_FAILED_ERR = re.compile(r"# elapsed \d+\.\d ms\nerror: verification failed\n")


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


def test_recursion_limit_exit_code(capsys):
    # The score-only search stops at its first leaf, but reaches it one
    # recursive call per base.
    code, out, err = run_cli(capsys, "approx", "G" * 1100, "--exact", "--max-length", "1100")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: the search is deeper")
    # `wcfold --help` names both causes of exit 2.
    with pytest.raises(SystemExit):
        main(["--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert ("2 length limit exceeded or a search deeper than the interpreter's "
            "recursion limit") in help_text


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "solve", "GQ")
    assert code == 1
    assert "position 2" in err


def test_usage_error_exit_code(capsys):
    for family in ("spiral", "zigzag"):
        code, out, err = run_cli(capsys, "gen", family, "4")
        assert code == 1
        assert out == ""
        assert f"invalid choice: '{family}'" in err


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
    # `gen mixed m n`: m bases of G/C, n of A/U, echoed under their own names.
    code, out, _ = run_cli(capsys, "gen", "mixed", "4", "2")
    assert code == 0
    assert "input.m: 4\ninput.n: 2\noutput.sequence: GGAUCC\n" in out
    with pytest.raises(SystemExit):
        main(["gen", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "for mixed: m, the G/C total" in help_text
    assert "for mixed: n, the A/U total" in help_text


@pytest.mark.parametrize("argv, unique", [
    (("sn", "3"), "false"),
    (("sn", "4"), "true"),
    (("mixed", "4", "4"), "true"),
    (("mixed", "2", "2"), "false"),
], ids=["sn-3", "sn-4", "mixed-4-4", "mixed-2-2"])
def test_gen_uniqueness_guarantee(capsys, argv, unique):
    code, out, _ = run_cli(capsys, "gen", *argv)
    assert code == 0
    assert f"output.unique_folding_guaranteed: {unique}\n" in out


def test_gen_sn_rejects_a_second_number(capsys):
    code, out, err = run_cli(capsys, "gen", "sn", "4", "5")
    assert code == 1
    assert out == ""
    assert err == "error: gen sn takes one number n, got an extra 5\n"


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
    other_branch = [s for s in seqs
                    if choose_fold_point(relabel(Chain(s))).branch != relabel(Chain(s)).branch]
    assert "CCGG" in other_branch and "GGCC" not in other_branch
    for seq in other_branch + ["GGGGCCCC", "GCGCGCGCGC"]:
        chain = Chain(seq)
        outputs = _approx_outputs(capsys, seq)
        plan = choose_fold_point(relabel(chain))
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
    layout = tmp_path / "single_clause.layout"
    layout.write_text(bundled_layout_text("single_clause"))
    missing = str(tmp_path / "missing" / "x")
    # The failed verification's document write fails too: exit 4, not 3.
    for argv in (("bound", "GGCC"), ("verify", str(layout), "--assign", "x=false")):
        code, out, err = run_cli(capsys, *argv, "--out", missing)
        assert code == 4
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


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


def test_interrupt_exit_code(capsys, monkeypatch):
    # SIGINT during a search (as from Ctrl-C) ends with one error line and
    # exit 130, not a traceback.
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "exact_solve", interrupted)
    code, out, err = run_cli(capsys, "solve", "GGGGCCCC")
    assert code == 130
    assert out == ""
    assert err == "error: interrupted\n"


@pytest.mark.parametrize("argv, message", [
    (("solve", "GGGGCCCC", "--workers", "0"), "--workers must be at least 1, got 0"),
    (("solve", "GGGGCCCC", "--workers", "-3"), "--workers must be at least 1, got -3"),
    (("solve", "GGGGCCCC", "--representatives", "-1"),
     "--representatives must be at least 0, got -1"),
], ids=["solve-workers-0", "solve-workers-negative", "solve-representatives-negative"])
def test_rejects_out_of_range_counts(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_approx_relabels_once(capsys, monkeypatch):
    calls = []
    real = approx.relabel
    monkeypatch.setattr(approx, "relabel", lambda chain: calls.append(chain) or real(chain))
    outputs = _approx_outputs(capsys, "GGGGCGGGG")
    assert calls == [Chain("GGGGCGGGG")]
    # Edges 4 and 5 each take one pair and are equally close to the middle;
    # odd-1 on the left arm puts the fold at 5 before the smaller edge counts.
    assert (outputs["fold_index"], outputs["matched_pairs"]) == ("5", "1")


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


def test_render_deep_folding(capsys, tmp_path):
    # Its bond count needs augmenting paths deeper than the recursion limit.
    chain, folding = boustrophedon(9000, 4)
    seq, fold, art = tmp_path / "b.seq", tmp_path / "b.fold", tmp_path / "b.txt"
    seq.write_text(chain.seq + "\n")
    write_folding_file(fold, folding)
    code, out, _ = run_cli(capsys, "render", str(seq), str(fold), "--out", str(art))
    assert code == 0
    assert "output.bonds: 4499\n" in out


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
    assert VERIFICATION_FAILED_ERR.fullmatch(err)

    # A layout with no variables needs no --assign.
    zipper = tmp_path / "straight_zipper.layout"
    zipper.write_text(bundled_layout_text("straight_zipper"))
    code, out, _ = run_cli(capsys, "verify", str(zipper))
    assert code == 0
    assert "input.assignment: empty\n" in out
    assert "output.meets_k: true\n" in out


assemble_module = importlib.import_module("wcfold.reduction.assemble")


def test_reduce_builds_whole_foldings_only_for_the_files_it_writes(capsys, tmp_path, monkeypatch):
    # The X tails are over 99% of a folding; without --out-prefix no folding
    # is built, and with it one per fold file written.
    calls = []

    def counted(route, tail_length):
        calls.append(tail_length)
        return with_tails(route, tail_length)

    with_tails = assemble_module._with_tails
    monkeypatch.setattr(assemble_module, "_with_tails", counted)
    layout = tmp_path / "fixture.layout"
    layout.write_text(bundled_layout_text("single_clause"))
    assign = ("--assign", "x=true", "--assign", "x=false")
    code, out, _ = run_cli(capsys, "reduce", str(layout), *assign)
    assert code == 0
    assert "output.digest: 243ab5e3cccf\n" in out
    assert calls == []
    code, _, _ = run_cli(capsys, "reduce", str(layout), "--out-prefix", str(tmp_path / "inst"),
                         *assign, "--assign", "x=true")
    assert code == 0
    assert sorted(p.name for p in tmp_path.glob("inst.*.fold")) == ["inst.xF.fold", "inst.xT.fold"]
    assert len(calls) == 2


def test_reduce_dotted_out_prefix_names_every_file_after_it(capsys, tmp_path):
    # Each run keeps its own files: run.2 does not overwrite run.1's .seq/.meta.
    layout = tmp_path / "fixture.layout"
    layout.write_text(bundled_layout_text("single_clause"))
    for run in ("run.1", "run.2"):
        prefix = tmp_path / run
        code, out, _ = run_cli(capsys, "reduce", str(layout), "--out-prefix", str(prefix),
                               "--assign", "x=true")
        assert code == 0
        assert f"output.sequence_file: {prefix}.seq\n" in out
        assert f"output.metadata_file: {prefix}.meta\n" in out
        assert f"output.folding_file_xT: {prefix}.xT.fold\n" in out
    assert sorted(p.name for p in tmp_path.glob("run*")) == [
        f"run.{n}.{suffix}" for n in (1, 2) for suffix in ("meta", "seq", "xT.fold")]


@pytest.mark.parametrize("argv, message", [
    (("--all-optima", "--representatives", "2"),
     "argument --representatives: not allowed with argument --all-optima"),
    (("--all-optima", "--representatives", "16"),
     "argument --representatives: not allowed with argument --all-optima"),
    (("--representatives", "2", "--all-optima"),
     "argument --all-optima: not allowed with argument --representatives"),
], ids=["cap-2", "default-cap-given", "cap-first"])
def test_solve_all_optima_excludes_representatives(capsys, argv, message):
    code, out, err = run_cli(capsys, "solve", "GCGGGGGCGGCCCCG", *argv)
    assert code == 1
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [f"error: {message}"]


# The single_clause block twice, with a fixed right turn between the blocks.
# assemble checks only the all-true route for crossings; with x1 false the
# route crosses itself.
CROSSING_LAYOUT = """
spacing 164
variable x0
variable x1
clause c0 literals x0
clause c1 literals x1
segment flex 2
turn t1 variable x0 true=left partner=t2
segment flex 4
segment rigid 2 clause=c0
segment flex 13
turn t2 variable x0 true=right partner=t1
segment flex 2
turn f fixed right
segment flex 4
segment flex 2
turn s1 variable x1 true=left partner=s2
segment flex 4
segment rigid 2 clause=c1
segment flex 13
turn s2 variable x1 true=right partner=s1
segment flex 2
"""


def test_verify_reports_crossing_assignment(capsys, tmp_path):
    layout = tmp_path / "crossing.layout"
    layout.write_text(CROSSING_LAYOUT)
    code, out, _ = run_cli(capsys, "reduce", str(layout))
    assert code == 0
    assert "output.k: 227" in out
    code, out, err = run_cli(capsys, "verify", str(layout), "--assign", "x0=true,x1=false")
    assert code == 1
    assert out == ""
    # The whole-walk check's message, naming the first offending index.
    assert err == ("error: route crosses itself: self-intersection at index 54435 "
                   "(point (10, 60) already used at index 54361)\n")


def test_reduce_writes_nothing_when_a_route_crosses_itself(capsys, tmp_path):
    layout = tmp_path / "crossing.layout"
    layout.write_text(CROSSING_LAYOUT)
    code, out, err = run_cli(capsys, "reduce", str(layout), "--out-prefix", str(tmp_path / "inst"),
                             "--assign", "x0=true,x1=true", "--assign", "x0=true,x1=false")
    assert code == 1
    assert out == ""
    assert err.startswith("error: route crosses itself: self-intersection at index 54435 ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["crossing.layout"]


def test_verify_rejects_uncoupled_clause(capsys, tmp_path):
    # Without a coupling, c2 is not in the molecule: y=false used to meet k.
    layout = tmp_path / "uncoupled.layout"
    layout.write_text(bundled_layout_text("single_clause") + "variable y\nclause c2 literals y\n")
    code, out, err = run_cli(capsys, "verify", str(layout), "--assign", "x=true,y=false")
    assert code == 1
    assert out == ""
    assert err == "error: clause c2 has no rigid coupling segment\n"


def test_verify_gadget(capsys):
    code, out, _ = run_cli(capsys, "verify", "--gadget", "rigid", "--periods", "1")
    assert code == 0
    assert "straight_unique_optimal: true" in out


@pytest.mark.parametrize("extra", [("--assign", "x=true"), ("single_clause.layout",)],
                         ids=["assign", "layout"])
def test_verify_gadget_rejects_instance_arguments(capsys, extra):
    # Rejected before any file is read, so the layout path need not exist.
    code, out, err = run_cli(capsys, "verify", "--gadget", "flex", *extra)
    assert code == 1
    assert out == ""
    assert err == "error: --gadget checks an isolated gadget; it takes no layout file or --assign\n"


def test_verify_gadget_not_straight_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(reduction, "verify_straightness", lambda kind, periods: False)
    code, out, err = run_cli(capsys, "verify", "--gadget", "flex")
    assert code == 3
    assert "output.straight_unique_optimal: false" in out
    assert VERIFICATION_FAILED_ERR.fullmatch(err)


@pytest.mark.parametrize("argv,message", [
    (("verify", "single_clause.layout", "--assign", "x=maybe"),
     "bad assignment 'x=maybe'; use var=true or var=false"),
    (("gen", "mixed", "4"), "gen mixed needs two numbers: m n"),
    (("gen", "mixed", "-2", "4"), "m and n must be at least 0, got m=-2, n=4"),
    (("verify",), "verify needs a layout file or --gadget"),
    (("solve", "GGCC", "--max-length", "-1"), "--max-length must be at least 1, got -1"),
    (("solve", "GGCC", "--max-length", "0"), "--max-length must be at least 1, got 0"),
    (("approx", "GGCC", "--max-length", "1"), "--max-length applies only to --exact"),
    (("approx", "GGCC", "--exact", "--max-length", "0"),
     "--max-length must be at least 1, got 0"),
    (("render", "GGGGCCCC", "f4.fold", "--format", "structured"),
     "render --format structured needs --out"),
    (("gen", "sn", "0"), "n must be at least 1"),
    (("gen", "mixed", "0", "0"), "m + n must be at least 2"),
    (("gen", "sn", "1", "--emit-folding", "f.fold"), "n must be at least 2"),
    (("verify", "single_clause.layout"), "assignment missing variables ['x']"),
], ids=["assign-value", "gen-mixed-one-number", "gen-mixed-negative", "verify-nothing",
        "solve-max-length-negative", "solve-max-length-zero", "approx-max-length-no-exact",
        "approx-max-length-zero", "render-structured-no-out", "gen-sn-zero",
        "gen-mixed-empty", "gen-sn-one-folding", "verify-no-assign"])
def test_usage_error_paths(capsys, monkeypatch, tmp_path, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "single_clause.layout").write_text(bundled_layout_text("single_clause"))
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_approx_exact_honours_max_length(capsys):
    code, out, _ = run_cli(capsys, "approx", "GGCC", "--exact", "--max-length", "4")
    assert code == 0
    assert "output.optimal: 1" in out
    code, out, err = run_cli(capsys, "approx", "GGCC", "--exact", "--max-length", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "limit 3" in err


def test_gen_mixed_rejects_emit_folding(capsys, tmp_path):
    fold = tmp_path / "f"
    code, out, err = run_cli(capsys, "gen", "mixed", "4", "4", "--emit-folding", str(fold))
    assert code == 1
    assert out == ""
    assert err == "error: --emit-folding applies to the sn family\n"
    assert not fold.exists()


def test_verify_gadget_defaults_to_one_period(capsys):
    code, out, _ = run_cli(capsys, "verify", "--gadget", "rigid")
    assert code == 0
    assert "input.periods: 1" in out


@pytest.mark.parametrize("extra", [("--periods", "7")], ids=["periods"])
def test_verify_layout_rejects_gadget_flags(capsys, extra):
    # Rejected before any file is read, so the layout path need not exist.
    code, out, err = run_cli(capsys, "verify", "single_clause.layout", "--assign", "x=true", *extra)
    assert code == 1
    assert out == ""
    assert err == "error: --periods applies only to --gadget\n"


@pytest.mark.parametrize("argv", [
    ("verify", "--gadget", "flex", "--workers", "2"),
    ("verify", "single_clause.layout", "--assign", "x=true", "--workers", "1"),
], ids=["gadget", "layout"])
def test_verify_has_no_workers_flag(capsys, argv):
    # Only solve starts worker processes; verify runs its search serially.
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].startswith("error: unrecognized arguments: --workers")
    assert "Traceback" not in err


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
diag.nodes_explored: 78
diag.pruned: 13
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
diag.pruned: 10
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


# With pruning off every walk is placed.  Up to 12 bases no probe runs, so
# neither document reports a seed.
GOLDEN[("solve", "GGGCCC", "--no-prune")] = GOLDEN[("solve", "GGGCCC", "--all-optima")].replace(
    "diag.nodes_explored: 32\ndiag.pruned: 10\n",
    "diag.nodes_explored: 58\ndiag.pruned: 0\n")
# GGGCCC has fewer optima than the default cap, so listing all of them with
# pruning off changes nothing.  (--all-optima excludes --representatives.)
GOLDEN[("solve", "GGGCCC", "--all-optima", "--no-prune")] = GOLDEN[("solve", "GGGCCC", "--no-prune")]


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


def test_reduce_rejects_variable_name_outside_word_characters(capsys, tmp_path):
    # The name would become part of a fold file's name.
    layout = tmp_path / "slash.layout"
    layout.write_text(bundled_layout_text("single_clause").replace(" x", " d/x"))
    code, out, err = run_cli(capsys, "reduce", str(layout), "--out-prefix", str(tmp_path / "run"),
                             "--assign", "d/x=true")
    assert code == 1
    assert out == ""
    assert err == "error: line 8: variable name 'd/x' must be letters, digits and underscores\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["slash.layout"]


def test_reduce_rejects_zero_period_segment(capsys, tmp_path):
    layout = tmp_path / "zero.layout"
    layout.write_text(ZERO_PERIOD_LAYOUT)
    code, out, err = run_cli(capsys, "reduce", str(layout))
    assert code == 1
    assert out == ""
    assert err == "error: line 6: segment needs at least 1 period, got 0\n"


def test_reduce_rejects_misspelled_fixed_turn(capsys, tmp_path):
    layout = tmp_path / "typo.layout"
    layout.write_text("spacing 1\nsegment flex 2\nturn f1 fixed lfet\nsegment flex 2\n")
    code, out, err = run_cli(capsys, "reduce", str(layout))
    assert code == 1
    assert out == ""
    assert err == "error: line 3: turn f1 must bend left or right, got 'lfet'\n"


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


def test_cli_import_loads_no_network_or_xml_modules():
    # Every subcommand imports the CLI, so what it loads is start-up time
    # for all of them: urllib.request alone pulls in http.client and email.
    # The solver forks its own workers, so no process-pool module loads.
    unwanted = {'urllib.request', 'xml.sax', 'concurrent.futures', 'multiprocessing'}
    probe = f"import sys, wcfold.cli; print(sorted({unwanted!r} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
