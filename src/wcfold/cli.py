"""Command-line interface.

Subcommands: solve, bound, gen, approx, reduce, verify, render.  Results
are emitted as a line-oriented key/value document (--format text, default)
or JSON (--format structured); both are deterministic for fixed inputs and
flags.  Wall-clock timing goes to stderr.  Exit codes: 0 success, 1 usage
or parse error, 2 length limit exceeded or a search deeper than the
interpreter's recursion limit, 3 verification failed, 4 file read/write
error, 5 internal consistency check failed, 130 interrupted (SIGINT,
as from Ctrl-C).  Each failure prints one `error:` line on stderr; a
failed verification still emits its document and its elapsed line first,
then `error: verification failed`.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import approx as approx_mod
from . import bounds, reduction
from .docio import (
    ResultDocument,
    read_folding_points,
    sequence_digest,
    write_folding_file,
)
from .model import Chain, parse_chain, score, validate_folding
from .render import render
from .solver import (
    DEFAULT_MAX_LENGTH,
    DEFAULT_REPRESENTATIVE_CAP,
    LengthLimitError,
    exact_solve,
    optimal_score,
)
from .walks import points_to_moves

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_LIMIT = 2
EXIT_VERIFY = 3
EXIT_IO = 4
EXIT_INTERNAL = 5
EXIT_INTERRUPTED = 130


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _read_sequence(arg: str) -> Chain:
    path = Path(arg)
    try:
        is_file = path.is_file()
    except OSError:  # an inline sequence longer than a file name may be
        is_file = False
    if is_file:
        return parse_chain(path.read_text())
    return parse_chain(arg)


def _emit(doc: ResultDocument, args, elapsed_ms: float) -> None:
    text = doc.render(args.format)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    print(f"# elapsed {elapsed_ms:.1f} ms", file=sys.stderr)


def _require_at_least(flag: str, value: int, minimum: int) -> None:
    if value < minimum:
        raise ValueError(f"{flag} must be at least {minimum}, got {value}")


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "structured"), default="text")
    parser.add_argument("--out", metavar="FILE", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wcfold", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="exact optimal folding search")
    p_solve.add_argument("sequence", help="sequence text or file path")
    p_solve.add_argument("--max-length", type=int, default=DEFAULT_MAX_LENGTH)
    p_solve.add_argument("--workers", type=int, default=1)
    cap = p_solve.add_mutually_exclusive_group()
    cap.add_argument("--all-optima", action="store_true")
    # argparse converts a str default only when the flag is absent, so even an
    # explicit --representatives 16 conflicts with --all-optima.
    cap.add_argument("--representatives", type=int, default=str(DEFAULT_REPRESENTATIVE_CAP))
    p_solve.add_argument("--no-prune", action="store_true", help="disable bound pruning")
    _common_flags(p_solve)

    p_bound = sub.add_parser("bound", help="closed-form upper bounds")
    p_bound.add_argument("sequence")
    p_bound.add_argument("--parity", action="store_true", help="print only the parity bound")
    p_bound.add_argument("--bbox", action="store_true", help="print only the bounding-box bound")
    _common_flags(p_bound)

    p_gen = sub.add_parser("gen", help="generate a chain family member")
    p_gen.add_argument("family", choices=("sn", "mixed"))
    p_gen.add_argument("first", type=int, metavar="NUMBER",
                       help="for sn: n, the half-length of G^n C^n; for mixed: m, the G/C total")
    p_gen.add_argument("second", type=int, nargs="?", default=None, metavar="NUMBER",
                       help="for mixed: n, the A/U total")
    p_gen.add_argument("--emit-folding", metavar="FILE", default=None,
                       help="for sn: also write the hairpin folding file")
    _common_flags(p_gen)

    p_approx = sub.add_parser("approx", help="constant-factor approximate folding")
    p_approx.add_argument("sequence")
    p_approx.add_argument("--folding-out", metavar="FILE", default=None)
    p_approx.add_argument("--exact", action="store_true",
                          help="also report the exact optimum (small chains)")
    # --exact only; None tells an omitted flag from a given one.
    p_approx.add_argument("--max-length", type=int, default=None)
    _common_flags(p_approx)

    p_reduce = sub.add_parser("reduce", help="compile a routed SAT layout")
    p_reduce.add_argument("layout", help="layout file path")
    p_reduce.add_argument("--out-prefix", metavar="PREFIX", default=None,
                          help="write PREFIX.seq / PREFIX.meta / PREFIX.<assign>.fold")
    p_reduce.add_argument("--assign", action="append", default=[],
                          metavar="x=true,y=false", help="emit a folding per assignment")
    _common_flags(p_reduce)

    p_verify = sub.add_parser("verify", help="verify an instance or gadget")
    p_verify.add_argument("layout", nargs="?", default=None, help="layout file path")
    p_verify.add_argument("--assign", default=None, metavar="x=true,y=false")
    p_verify.add_argument("--gadget", choices=("flex", "rigid"), default=None,
                          help="check straightness of an isolated gadget instead")
    # Gadget-only; None tells an omitted flag (1 for --gadget) from a given one.
    p_verify.add_argument("--periods", type=int, default=None)
    _common_flags(p_verify)

    p_render = sub.add_parser("render", help="draw a folding")
    p_render.add_argument("sequence")
    p_render.add_argument("folding", help="folding file ('x y' lines or a move string)")
    p_render.add_argument("--render", choices=("ascii", "svg"), default="ascii")
    _common_flags(p_render)

    return parser


def _parse_assignment(text: str) -> dict[str, bool]:
    assignment: dict[str, bool] = {}
    if not text:
        return assignment
    for part in text.replace(",", " ").split():
        name, _, value = part.partition("=")
        if value.lower() not in ("true", "false", "1", "0"):
            raise ValueError(f"bad assignment {part!r}; use var=true or var=false")
        if name in assignment:
            raise ValueError(f"variable {name!r} assigned more than once in {text!r}")
        assignment[name] = value.lower() in ("true", "1")
    return assignment


def _assignment_tag(assignment: dict[str, bool]) -> str:
    return "_".join(f"{k}{'T' if v else 'F'}" for k, v in sorted(assignment.items())) or "empty"


def _cmd_solve(args) -> tuple[ResultDocument | None, int]:
    _require_at_least("--max-length", args.max_length, 1)
    _require_at_least("--workers", args.workers, 1)
    _require_at_least("--representatives", args.representatives, 0)
    chain = _read_sequence(args.sequence)
    report = exact_solve(
        chain,
        max_length=args.max_length,
        representative_cap=None if args.all_optima else args.representatives,
        workers=args.workers,
        prune=not args.no_prune,
    )
    doc = ResultDocument(command="solve")
    doc.inputs["sequence"] = chain.seq
    doc.inputs["length"] = len(chain)
    doc.inputs["digest"] = sequence_digest(chain.seq)
    doc.outputs["optimal_score"] = report.optimal_score
    doc.outputs["optimal_count"] = report.optimal_count
    doc.outputs["unique"] = report.optimal_count == 1
    doc.outputs["bound_bbox"] = bounds.bounding_box_bound(len(chain))
    doc.outputs["bound_parity"] = bounds.parity_bound(chain)
    doc.outputs["representatives"] = [
        points_to_moves(rep.points) for rep in report.representatives
    ]
    doc.diagnostics["nodes_explored"] = report.nodes_explored
    doc.diagnostics["pruned"] = report.pruned
    if report.seed is not None:  # None: no probe ran (pruning off, or 12 bases or fewer)
        doc.diagnostics["seed"] = report.seed
    return doc, EXIT_OK


def _cmd_bound(args) -> tuple[ResultDocument | None, int]:
    chain = _read_sequence(args.sequence)
    census = bounds.parity_census(chain)
    doc = ResultDocument(command="bound")
    doc.inputs["sequence"] = chain.seq
    doc.inputs["digest"] = sequence_digest(chain.seq)
    only_parity = args.parity and not args.bbox
    only_bbox = args.bbox and not args.parity
    if not only_bbox:
        doc.outputs["parity"] = bounds.parity_bound(chain)
    if not only_parity:
        doc.outputs["bbox"] = bounds.bounding_box_bound(len(chain))
        if bounds.bbox_bound_is_extension(len(chain)):
            doc.outputs["bbox_note"] = "odd length uses the floor extension"
    if not only_bbox:
        for key, value in asdict(census).items():
            doc.outputs[f"census_{key}"] = value
        if census.has_au:
            doc.outputs["parity_note"] = "includes the A/U extension terms"
    return doc, EXIT_OK


def _cmd_gen(args) -> tuple[ResultDocument | None, int]:
    if args.family == "mixed":
        if args.second is None:
            raise ValueError("gen mixed needs two numbers: m n")
        numbers = {"m": args.first, "n": args.second}
        chain = bounds.mixed_block_chain(**numbers)
    else:
        if args.second is not None:
            raise ValueError(f"gen sn takes one number n, got an extra {args.second}")
        numbers = {"n": args.first}
        chain = bounds.gc_block_chain(**numbers)
    doc = ResultDocument(command="gen")
    doc.inputs["family"] = args.family
    doc.inputs.update(numbers)
    doc.outputs["sequence"] = chain.seq
    doc.outputs["length"] = len(chain)
    # Both families have a unique optimal folding above half-length 3.
    doc.outputs["unique_folding_guaranteed"] = len(chain) // 2 > 3
    if args.emit_folding:
        if args.family != "sn":
            raise ValueError("--emit-folding applies to the sn family")
        folding = bounds.hairpin_folding(args.first)
        write_folding_file(args.emit_folding, folding, comment=f"hairpin n={args.first}")
        doc.outputs["folding_file"] = args.emit_folding
        doc.outputs["folding_score"] = score(chain, folding)[0]
    return doc, EXIT_OK


def _cmd_approx(args) -> tuple[ResultDocument | None, int]:
    if args.max_length is not None and not args.exact:
        raise ValueError("--max-length applies only to --exact")
    max_length = DEFAULT_MAX_LENGTH if args.max_length is None else args.max_length
    _require_at_least("--max-length", max_length, 1)
    chain = _read_sequence(args.sequence)
    relabeled = approx_mod.relabel(chain)
    plan = approx_mod.choose_fold_point(relabeled)
    folding, achieved = approx_mod.build_folding(chain, plan)
    doc = ResultDocument(command="approx")
    doc.inputs["sequence"] = chain.seq
    doc.inputs["digest"] = sequence_digest(chain.seq)
    doc.outputs["achieved"] = achieved
    doc.outputs["branch"] = plan.branch
    doc.outputs["fold_index"] = plan.fold_index
    doc.outputs["matched_pairs"] = len(plan.matched_pairs)
    doc.outputs["pair_floor_guarantee"] = approx_mod.pair_floor_guarantee(relabeled)
    doc.outputs["bound_parity"] = bounds.parity_bound(chain)
    doc.outputs["folding_moves"] = points_to_moves(folding.points)
    if args.exact:
        doc.outputs["optimal"] = optimal_score(chain, max_length=max_length)
    if args.folding_out:
        write_folding_file(args.folding_out, folding, comment=f"approx {chain.seq}")
        doc.outputs["folding_file"] = args.folding_out
    return doc, EXIT_OK


def _cmd_reduce(args) -> tuple[ResultDocument | None, int]:
    layout = reduction.load_layout(args.layout)
    instance = reduction.assemble(layout)
    doc = ResultDocument(command="reduce")
    doc.inputs["layout"] = args.layout
    doc.outputs["length"] = len(instance.chain)
    doc.outputs["k"] = instance.k
    doc.outputs["t"] = instance.t
    doc.outputs["bondable"] = instance.bondable
    doc.outputs["tail_length"] = instance.tail_length
    doc.outputs["digest"] = sequence_digest(instance.chain.seq)
    assignments = [_parse_assignment(a) for a in args.assign] or [instance.build_assignment]
    # Trace every assignment first: a bad one fails before any file is written.
    foldings = {_assignment_tag(a): instance.intended_folding(a) for a in assignments}
    if args.out_prefix:
        seq_path = Path(f"{args.out_prefix}.seq")
        seq_path.write_text(instance.chain.seq + "\n")
        doc.outputs["sequence_file"] = str(seq_path)
        meta_path = Path(f"{args.out_prefix}.meta")
        meta_path.write_text(doc.to_text())
        doc.outputs["metadata_file"] = str(meta_path)
        for tag, folding in foldings.items():
            fold_path = Path(f"{args.out_prefix}.{tag}.fold")
            write_folding_file(fold_path, folding, comment=f"assignment {tag}")
            doc.outputs[f"folding_file_{tag}"] = str(fold_path)
    return doc, EXIT_OK


def _cmd_verify(args) -> tuple[ResultDocument | None, int]:
    doc = ResultDocument(command="verify")
    if args.gadget:
        if args.layout is not None or args.assign is not None:
            raise ValueError("--gadget checks an isolated gadget; it takes no layout file "
                             "or --assign")
        periods = 1 if args.periods is None else args.periods
        ok = reduction.verify_straightness(args.gadget, periods)
        doc.inputs["gadget"] = args.gadget
        doc.inputs["periods"] = periods
        doc.outputs["straight_unique_optimal"] = ok
        return doc, EXIT_OK if ok else EXIT_VERIFY
    if not args.layout:
        raise ValueError("verify needs a layout file or --gadget")
    if args.periods is not None:
        raise ValueError("--periods applies only to --gadget")
    layout = reduction.load_layout(args.layout)
    instance = reduction.assemble(layout)
    assignment = _parse_assignment(args.assign or "")
    bonds, meets = reduction.verify_instance(instance, assignment)
    doc.inputs["layout"] = args.layout
    doc.inputs["assignment"] = _assignment_tag(assignment)
    doc.outputs["k"] = instance.k
    doc.outputs["bonds"] = bonds
    doc.outputs["meets_k"] = meets
    return doc, EXIT_OK if meets else EXIT_VERIFY


def _cmd_render(args) -> tuple[ResultDocument | None, int]:
    if not args.out and args.format == "structured":
        raise ValueError("render --format structured needs --out")
    chain = _read_sequence(args.sequence)
    points = read_folding_points(args.folding)
    folding = validate_folding(chain, points)
    size, witness = score(chain, folding)
    art = render(chain, folding, args.render, witness)
    if not args.out:  # raw drawing to stdout; the document is suppressed
        sys.stdout.write(art)
        return None, EXIT_OK
    Path(args.out).write_text(art)
    doc = ResultDocument(command="render")
    doc.inputs["sequence"] = chain.seq
    doc.outputs["bonds"] = size
    doc.outputs["file"] = args.out
    args.out = None  # the document itself goes to stdout
    return doc, EXIT_OK


_HANDLERS = {
    "solve": _cmd_solve,
    "bound": _cmd_bound,
    "gen": _cmd_gen,
    "approx": _cmd_approx,
    "reduce": _cmd_reduce,
    "verify": _cmd_verify,
    "render": _cmd_render,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        started = time.perf_counter()
        doc, code = _HANDLERS[args.command](args)
        if doc is not None:
            _emit(doc, args, (time.perf_counter() - started) * 1000.0)
        if code == EXIT_VERIFY:
            print("error: verification failed", file=sys.stderr)
        return code
    except LengthLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except RecursionError:  # the exact search recurses once per base
        print(f"error: the search is deeper than the interpreter's recursion limit "
              f"({sys.getrecursionlimit()}); search a shorter chain", file=sys.stderr)
        return EXIT_LIMIT
    except ValueError as exc:  # usage, parse, validation and layout errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except AssertionError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
