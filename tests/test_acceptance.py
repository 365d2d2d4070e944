"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line (run with -s to see
them all).  The exhaustive corpora are shared across criteria via
module-scoped fixtures so the whole suite stays in the low minutes.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from wcfold.approx import approx_fold, pair_floor_guarantee, relabel
from wcfold.bounds import (
    bounding_box_bound,
    gc_block_chain,
    mixed_block_chain,
    parity_bound,
)
from wcfold.cli import main as cli_main
from wcfold.model import Chain, Folding, contact_graph, score
from wcfold.reduction import (
    assemble,
    bundled_layout_text,
    parse_layout,
    verify_instance,
    verify_straightness,
)
from wcfold.solver import exact_solve, optimal_score
from wcfold.walks import enumerate_walk_points

from conftest import brute_force_matching_size


def _report(num, ok, detail=""):
    print(f"\nACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def gc_corpus():
    """Exact solve (with counts) over all G/C chains, L in {4, 6, 8, 10}."""
    results = {}
    for length in (4, 6, 8, 10):
        for combo in itertools.product("GC", repeat=length):
            seq = "".join(combo)
            report = exact_solve(Chain(seq))
            results[seq] = (report.optimal_score, report.optimal_count)
    return results


@pytest.fixture(scope="module")
def walks_by_length():
    cache = {}

    def get(length):
        if length not in cache:
            cache[length] = list(enumerate_walk_points(length))
        return cache[length]

    return get


def test_criterion_1_unique_block_chain_foldings():
    details = []
    ok = True
    for n in range(4, 13):
        started = time.perf_counter()
        report = exact_solve(gc_block_chain(n), workers=1, max_length=24)
        elapsed = time.perf_counter() - started
        good = (
            report.optimal_score == n - 1
            and report.optimal_count == 1
            and elapsed < 60.0
        )
        ok = ok and good
        details.append(
            f"n={n}: score {report.optimal_score} count {report.optimal_count} "
            f"({elapsed:.2f}s)"
        )
    _report(1, ok, "; ".join(details))


def test_criterion_2_bounding_box_bound(gc_corpus):
    violations = [
        seq
        for seq, (opt, _) in gc_corpus.items()
        if opt > len(seq) // 2 - 1
    ]
    _report(2, not violations,
            f"{len(gc_corpus)} chains checked, {len(violations)} violations")


def test_criterion_3_parity_bound(gc_corpus):
    violations = [
        seq
        for seq, (opt, _) in gc_corpus.items()
        if opt > parity_bound(Chain(seq))
    ]
    _report(3, not violations,
            f"{len(gc_corpus)} chains checked, {len(violations)} violations")


def test_criterion_4_matching_oracle(walks_by_length):
    # Exhaustive over {G, C} to L = 8; the full 5-letter alphabet is
    # exhausted to L = 5 and sampled (seeded) at L in {6, 7, 8}, since
    # 5^8 chains are beyond desk scale.
    mismatches = 0
    checked = 0

    def check(chain, pts):
        nonlocal mismatches, checked
        folding = Folding(pts)
        edges = contact_graph(chain, folding)
        if score(chain, folding)[0] != brute_force_matching_size(edges):
            mismatches += 1
        checked += 1

    for length in range(2, 9):
        walks = walks_by_length(length)
        for combo in itertools.product("GC", repeat=length):
            chain = Chain("".join(combo))
            for pts in walks:
                check(chain, pts)

    for length in (4, 5):
        walks = walks_by_length(length)
        for combo in itertools.product("GCAUX", repeat=length):
            chain = Chain("".join(combo))
            for pts in walks:
                check(chain, pts)

    rng = random.Random(20240811)
    for length in (6, 7, 8):
        walks = walks_by_length(length)
        for _ in range(60):
            chain = Chain("".join(rng.choice("GCAUX") for _ in range(length)))
            for pts in walks:
                check(chain, pts)

    _report(4, mismatches == 0, f"{checked} foldings recounted, {mismatches} mismatches")


# Per length, the worst optimum / achieved and its first chain in product
# order; the approx module docstring proves the ratio never exceeds 6.
WORST_APPROX_RATIO = {5: (1, "GGGGC"), 6: (2, "GGGCGC"), 7: (2, "GGGGGCC"),
                      8: (3, "GGCCCGCG"), 9: (3, "GGGGCCCGG"), 10: (4, "GGGCCCCGCG"),
                      11: (4, "GGGCGCGGCGC"), 12: (5, "GGGCGCCGCGCG"),
                      13: (5, "GGCGCGCCGCGGG"), 14: (5, "GGCGCGCCGCGCGG"),
                      15: (4, "GGGCGGCGGGCGGCG"), 16: (4, "GGGCGGCGGGCGGCGG"),
                      17: (4, "GGGCGGCGGGCGGCGGG")}


def approximation_ratio_sweep(lengths):
    """Criterion 5 over every G/C chain of the given lengths.

    Tier-1 sweeps every length of 5-14 bases, odd ones included (32,736
    chains, about 4 s); a CI step sweeps 15, 16 and 17.
    """
    # opt <= the parity bound P, so the solver runs only where it could
    # matter: where achieved is 0 but P is not, or where P / achieved
    # beats the length's worst ratio so far.  Any other chain has
    # opt / achieved <= P / achieved <= the worst so far, which only a
    # chain within the factor 6 sets: neither a new witness nor a violation.
    violations = 0
    checked = 0
    solved = 0
    worst = {}
    for length in lengths:
        worst[length] = (0, None)
        for combo in itertools.product("GC", repeat=length):
            chain = Chain("".join(combo))
            _, achieved = approx_fold(chain)
            checked += 1
            if achieved < pair_floor_guarantee(relabel(chain)):
                violations += 1
                continue
            ceiling = parity_bound(chain)
            if not (achieved == 0 < ceiling
                    or achieved and Fraction(ceiling, achieved) > worst[length][0]):
                continue
            opt = optimal_score(chain)
            solved += 1
            if achieved < math.ceil(opt / 6):
                violations += 1
            elif opt and Fraction(opt, achieved) > worst[length][0]:
                worst[length] = (Fraction(opt, achieved), chain.seq)
    ok = violations == 0 and worst == {length: WORST_APPROX_RATIO[length] for length in lengths}
    details = ", ".join(f"L={length}: {ratio} {seq}" for length, (ratio, seq) in worst.items())
    _report(5, ok, f"{checked} chains checked, {solved} solved, {violations} violations; "
                   f"worst {details}")


def test_criterion_5_approximation_ratio():
    approximation_ratio_sweep(range(5, 15))


# The mixed family's only chains with more than one optimal folding: the
# L = 6 blocks GGGCCC and AAAUUU have two each.
MIXED_NOT_UNIQUE = {(6, 0): 2, (0, 6): 2}


def test_criterion_6_mixed_alphabet_uniqueness():
    # Every mixed_block_chain(m, n) with even m, n and 2 <= m + n <= 20,
    # and (12, 12) at L = 24: each attains (m + n) / 2 - 1 bonds, and all
    # but MIXED_NOT_UNIQUE have one optimal folding.
    blocks = [(m, n) for m in range(0, 21, 2) for n in range(0, 21 - m, 2) if m + n >= 2]
    counts = {}
    short = []
    for m, n in blocks + [(12, 12)]:
        report = exact_solve(mixed_block_chain(m, n), max_length=24)
        if report.optimal_score != (m + n) // 2 - 1:
            short.append((m, n))
        if report.optimal_count != 1:
            counts[m, n] = report.optimal_count
    ok = not short and counts == MIXED_NOT_UNIQUE
    _report(6, ok, f"{len(blocks) + 1} chains checked, short of (m + n) / 2 - 1: {short}; "
                   f"not unique: {counts}")


def test_criterion_7_gadget_straightness():
    started = time.perf_counter()
    flex_ok = verify_straightness("flex", 2)
    flex_s = time.perf_counter() - started
    started = time.perf_counter()
    rigid_ok = verify_straightness("rigid", 1)
    rigid_s = time.perf_counter() - started
    ok = flex_ok and rigid_ok and flex_s < 600 and rigid_s < 600
    _report(7, ok, f"flex x2 {flex_ok} ({flex_s:.1f}s); rigid x1 {rigid_ok} ({rigid_s:.1f}s)")


def test_criterion_8_reduction_bookkeeping():
    instance = assemble(parse_layout(bundled_layout_text("single_clause")))
    formula_ok = instance.k == instance.bondable // 2 - instance.t
    bonds_true, meets_true = verify_instance(instance, {"x": True})
    bonds_false, meets_false = verify_instance(instance, {"x": False})
    ok = formula_ok and meets_true and not meets_false
    _report(
        8,
        ok,
        f"k={instance.k} (bondable {instance.bondable}, t {instance.t}); "
        f"satisfying {bonds_true} bonds, falsifying {bonds_false} bonds",
    )


def test_criterion_9_worker_determinism(tmp_path):
    corpus = [
        "GGGGCCCC",
        "GGGGGCCCCC",
        "GGGGGGCCCCCC",
        "GGGGGGGCCCCCCC",
        "GGAAUUCC",
        "GGGAUCCC",
        "GGAAUUCCGGAAUU",
        "GCGCGCGCGCGCG",
        "CCCACCCAUGGGUGGG",
        "GGCCAAUUGGCCAAUU",
    ]
    identical = 0
    for i, seq in enumerate(corpus):
        docs = []
        for workers in (1, 8):
            out = tmp_path / f"doc_{i}_{workers}.json"
            code = cli_main(
                ["solve", seq, "--format", "structured", "--max-length", "22",
                 "--workers", str(workers), "--out", str(out)]
            )
            assert code == 0
            docs.append(out.read_bytes())
        if docs[0] == docs[1]:
            identical += 1
    _report(9, identical == len(corpus),
            f"{identical}/{len(corpus)} structured documents byte-identical")


def test_criterion_10_pruning_admissibility(gc_corpus):
    mismatches = 0
    checked = 0
    for n in (4, 5, 6):
        seq = gc_block_chain(n).seq
        pruned = exact_solve(Chain(seq))
        free = exact_solve(Chain(seq), prune=False)
        if (pruned.optimal_score, pruned.optimal_count) != (
            free.optimal_score,
            free.optimal_count,
        ):
            mismatches += 1
        checked += 1
    for seq, expected in gc_corpus.items():
        free = exact_solve(Chain(seq), prune=False)
        if (free.optimal_score, free.optimal_count) != expected:
            mismatches += 1
        checked += 1
    _report(10, mismatches == 0, f"{checked} chains re-solved, {mismatches} mismatches")
