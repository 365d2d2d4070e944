"""One operation per corpus input, with the checks that make it count.

An operation is what a library user calls for one input: one solve, one
approximation, or one layout compiled and verified under every
assignment.  Every wcfold function is looked up on its module at call
time, so a traced run sees the wrapped versions.  Checks run outside the
timed call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable

from corpus import ApproxInput, ChainInput, LayoutInput


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    # Problems found in the result; empty when it is correct.
    check: Callable[[Any], list[str]]
    # (bonds achieved, parity bound) of the result.
    quality: Callable[[Any], tuple[int, int]]
    # The chains wcfold worked on, for the input properties.
    chains: Callable[[Any], list[str]]


def _solve_op(wc: SimpleNamespace, item: ChainInput, workers: int) -> Op:
    chain = wc.model.parse_chain(item.seq)
    parity = wc.bounds.parity_bound(chain)
    mode = "count" if item.count else "score"

    def call():
        if item.count:
            return wc.solver.exact_solve(chain, workers=workers)
        return wc.solver.optimal_score(chain, workers=workers)

    def check(result) -> list[str]:
        best = result.optimal_score if item.count else result
        problems = []
        if item.score is not None and best != item.score:
            problems.append(f"score {best}, pinned {item.score}")
        if best > parity:
            problems.append(f"score {best} above the parity bound {parity}")
        if not item.count:
            return problems
        if item.optimal_count is not None and result.optimal_count != item.optimal_count:
            problems.append(f"count {result.optimal_count}, pinned {item.optimal_count}")
        if not result.representatives:
            problems.append("no representative folding")
        for folding in result.representatives:
            try:
                valid = wc.model.validate_folding(chain, folding.points)
            except ValueError as exc:
                problems.append(f"invalid representative: {exc}")
                continue
            rescored = wc.model.score(chain, valid)[0]
            if rescored != best:
                problems.append(f"representative scores {rescored}, report says {best}")
        return problems

    def quality(result):
        return (result.optimal_score if item.count else result), parity

    return Op(f"{mode} {item.seq}", call, check, quality, lambda _: [item.seq])


def _approx_op(wc: SimpleNamespace, item: ApproxInput) -> Op:
    chain = wc.model.parse_chain(item.seq)
    parity = wc.bounds.parity_bound(chain)
    floor = wc.approx.pair_floor_guarantee(wc.approx.relabel(chain))

    def call():
        return wc.approx.approx_fold(chain)

    def check(result) -> list[str]:
        folding, achieved = result
        try:
            valid = wc.model.validate_folding(chain, folding.points)
        except ValueError as exc:
            return [f"invalid folding: {exc}"]
        problems = []
        rescored = wc.model.score(chain, valid)[0]
        if rescored != achieved:
            problems.append(f"achieved {achieved}, rescored {rescored}")
        if not floor <= achieved <= parity:
            problems.append(f"achieved {achieved} outside [{floor}, {parity}]")
        return problems

    return Op(f"approx L={len(chain)}", call, check,
              lambda result: (result[1], parity), lambda _: [item.seq])


def _satisfied(clauses: dict[str, tuple[str, ...]], assignment: dict[str, bool]) -> bool:
    return all(any(assignment[v] for v in literals) for literals in clauses.values())


def _reduce_op(wc: SimpleNamespace, item: LayoutInput) -> Op:
    red = wc.reduction

    def call():
        layout = red.parse_layout(item.text)
        instance = red.assemble(layout)
        verdicts = []
        for values in itertools.product((True, False), repeat=len(layout.variables)):
            assignment = dict(zip(layout.variables, values))
            bonds, meets = red.verify_instance(instance, assignment)
            verdicts.append((assignment, bonds, meets))
        return layout, instance, verdicts

    def check(result) -> list[str]:
        layout, instance, verdicts = result
        problems = []
        if instance.bondable != 2 * len(instance.zip_pairs) + 2 * instance.t:
            problems.append(
                f"bondable {instance.bondable} != 2 * {len(instance.zip_pairs)} zips "
                f"+ 2 * {instance.t} turns"
            )
        for assignment, bonds, meets in verdicts:
            if meets != (bonds >= instance.k):
                problems.append(f"{assignment}: {bonds} bonds reported as meets={meets}")
            if _satisfied(layout.clauses, assignment) != (bonds >= instance.k):
                problems.append(f"{assignment}: {bonds} bonds against k = {instance.k}")
        return problems

    def quality(result):
        _, instance, verdicts = result
        return max(b for _, b, _ in verdicts), wc.bounds.parity_bound(instance.chain)

    return Op(f"reduce {item.name}", call, check, quality,
              lambda result: [result[1].chain.seq])


def build_ops(wc: SimpleNamespace, inputs: tuple, workers: int) -> list[Op]:
    ops = []
    for item in inputs:
        if isinstance(item, ChainInput):
            ops.append(_solve_op(wc, item, workers))
        elif isinstance(item, ApproxInput):
            ops.append(_approx_op(wc, item))
        elif isinstance(item, LayoutInput):
            ops.append(_reduce_op(wc, item))
        else:
            raise TypeError(f"no operation for {item!r}")
    return ops


def warm_up(wc: SimpleNamespace, workload: str, workers: int) -> None:
    """One small call through each code path the workload times."""
    if workload in ("solve", "solve_pool"):
        # Above the partition threshold, and long enough that solver work
        # rather than file access sets most of the set-up time.
        chain = wc.model.parse_chain("GCGGGGGCGGCCCC")
        wc.solver.exact_solve(chain, workers=workers)
        wc.solver.optimal_score(chain, workers=workers)
    elif workload == "approx":
        wc.approx.approx_fold(wc.model.parse_chain("GC" * 100))
    elif workload == "reduce":
        text = wc.reduction.bundled_layout_text("straight_zipper")
        _reduce_op(wc, LayoutInput("warm-up", text)).call()
