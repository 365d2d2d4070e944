"""Exact optimal folding via canonical walk search with bound pruning.

The search enumerates canonical walks (first step +x, first turn left, one
walk per symmetry orbit) and maintains a maximum matching on the contact
graph incrementally: adding one node grows the matching by at most one, so
a single augmenting-path attempt from the new node keeps it maximum.

Pruning uses an admissible upper bound on any completion of a partial walk:

    matching_so_far + min(parity-census bound over available nodes,
                          number of unplaced bondable nodes)

where "available" means unplaced nodes plus placed nodes that still have a
free neighbouring cell.  Every bond of a completed folding either lies
inside the placed part (counted by the matching, which is maximum) or
touches an unplaced node, and such a bond needs one available node of each
class with opposite parity, so the bound never underestimates.  The search
also seeds its best-so-far with the score of the plain half-length hairpin,
which is a real folding of the chain and therefore a valid lower bound.

The search tree is partitioned by canonical prefixes at a fixed depth that
depends only on the chain length, and subtree results merge associatively
in prefix order.  Worker count changes only which process runs a subtree,
so reports are identical for any worker count.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass

from .bounds import hairpin_folding
from .model import Chain, Folding, complementary, score, validate_folding
from .walks import enumerate_walk_points

DEFAULT_MAX_LENGTH = 20
DEFAULT_REPRESENTATIVE_CAP = 16
# Chains longer than this are split into canonical-prefix subtrees of
# _PREFIX_NODES nodes.  Fixed by length only, never by worker count.
_PARTITION_THRESHOLD = 12
_PREFIX_NODES = 6

# Base codes: the bound's class layout relies on this order, and X is last.
_BASES = "GCAUX"
_CODE = {b: c for c, b in enumerate(_BASES)}
# Complementarity on base codes, indexed _COMP[code][code] in the hot loop.
_COMP = tuple(tuple(complementary(a, b) for b in _BASES) for a in _BASES)


class LengthLimitError(ValueError):
    """Chain exceeds the configured exact-search limit."""

    def __init__(self, length: int, limit: int):
        super().__init__(
            f"chain length {length} exceeds the exact-search limit {limit}; "
            "raise max_length (CLI: --max-length) to search it"
        )
        self.length = length
        self.limit = limit


@dataclass(frozen=True)
class SolveReport:
    """Result of an exact search.

    optimal_count counts optimal foldings modulo the 8 lattice symmetries
    (None when the search ran in score-only mode).  representatives holds
    the first optimal foldings in deterministic search order, at most
    representative_cap of them (all of them when the cap is None).
    """

    optimal_score: int
    optimal_count: int | None
    representatives: tuple[Folding, ...]
    nodes_explored: int
    pruned: int


def _seed_score(chain: Chain) -> int:
    """Score of the half-length hairpin folding: an achievable lower bound."""
    length = len(chain)
    if length < 4:
        return 0
    # An odd chain drops the hairpin's last cell.
    points = hairpin_folding((length + 1) // 2).points[:length]
    return score(chain, validate_folding(chain, points))[0]


def _solve_subtree(args) -> tuple[int, int, list[tuple], int, int]:
    """Search one canonical-prefix subtree.

    Returns (best, count_at_best, representative_cell_tuples, nodes, pruned).
    Counting starts at the seed score with count 0: only walks that actually
    attain the best score are counted, so a seed equal to the optimum still
    yields the true count.
    """
    seq, prefix, turned0, prune, counting, seed, rep_cap = args
    length = len(seq)
    width = 2 * length + 1
    dirs4 = (width, 1, -width, -1)

    code = [0] * (length + 1)
    cls = [0] * (length + 1)
    for i, ch in enumerate(seq, 1):
        c = _CODE[ch]
        code[i] = c
        cls[i] = -1 if c == 4 else (c << 1) | (i & 1)

    # suffix[p]: class counts over indices > p; nbond[p]: bondable count > p.
    suffix: list[tuple[int, ...]] = [()] * (length + 1)
    nbond = [0] * (length + 1)
    acc = [0] * 8
    cnt_b = 0
    suffix[length] = tuple(acc)
    for p in range(length, 0, -1):
        if cls[p] >= 0:
            acc[cls[p]] += 1
            cnt_b += 1
        suffix[p - 1] = tuple(acc)
        nbond[p - 1] = cnt_b

    occ = [0] * (width * width)
    pos = [0] * (length + 1)
    match = [0] * (length + 1)
    adj: list[list[int]] = [[] for _ in range(length + 1)]
    free_cnt = [0] * (length + 1)
    exp8 = [0] * 8
    vis = [0] * (length + 1)
    stamp = 0
    mu = 0

    comp = _COMP

    def augment(root: int):
        """One Kuhn augmenting attempt from a newly placed node.

        Returns the journal of (node, previous_match) changes, or None.
        """
        nonlocal stamp
        stamp += 1
        changes: list[tuple[int, int]] = []

        def try_node(u: int) -> bool:
            for q in adj[u]:
                if vis[q] == stamp:
                    continue
                vis[q] = stamp
                w = match[q]
                if w == 0 or try_node(w):
                    changes.append((q, match[q]))
                    changes.append((u, match[u]))
                    match[q] = u
                    match[u] = q
                    return True
            return False

        return changes if try_node(root) else None

    def place(i: int, cell: int):
        """Occupy cell with node i, update censuses/adjacency/matching.

        Returns the augmentation journal (or None) for undo.
        """
        nonlocal mu
        occ[cell] = i
        pos[i] = cell
        nfree = 0
        ci = code[i]
        for d in dirs4:
            q = occ[cell + d]
            if q:
                free_cnt[q] -= 1
                if free_cnt[q] == 0 and cls[q] >= 0:
                    exp8[cls[q]] -= 1
                if q != i - 1 and comp[ci][code[q]]:
                    adj[i].append(q)
                    adj[q].append(i)
            else:
                nfree += 1
        free_cnt[i] = nfree
        if nfree and cls[i] >= 0:
            exp8[cls[i]] += 1
        journal = None
        if adj[i]:
            journal = augment(i)
            if journal is not None:
                mu += 1
        return journal

    def unplace(i: int, journal):
        nonlocal mu
        cell = pos[i]
        if journal is not None:
            mu -= 1
            for node, prev in reversed(journal):
                match[node] = prev
        for q in adj[i]:
            adj[q].pop()
        adj[i].clear()
        if free_cnt[i] and cls[i] >= 0:
            exp8[cls[i]] -= 1
        for d in dirs4:
            q = occ[cell + d]
            if q and q != i:
                if free_cnt[q] == 0 and cls[q] >= 0:
                    exp8[cls[q]] += 1
                free_cnt[q] += 1
        occ[cell] = 0

    best = seed if prune else -1
    count = 0
    reps: list[tuple] = []
    nodes_explored = 0
    pruned = 0

    def bound_after(i: int) -> int:
        s = suffix[i]
        b = (
            min(s[1] + exp8[1], s[2] + exp8[2])
            + min(s[0] + exp8[0], s[3] + exp8[3])
            + min(s[5] + exp8[5], s[6] + exp8[6])
            + min(s[4] + exp8[4], s[7] + exp8[7])
        )
        nb = nbond[i]
        if b > nb:
            b = nb
        return mu + b

    def dfs(n: int, turned: bool):
        nonlocal best, count, nodes_explored, pruned
        if n == length:
            s = mu
            if s > best:
                best = s
                count = 1
                del reps[:]
                if rep_cap is None or rep_cap > 0:
                    reps.append(tuple(pos[1:]))
            elif s == best:
                count += 1
                if rep_cap is None or len(reps) < rep_cap:
                    reps.append(tuple(pos[1:]))
            return
        base_cell = pos[n]
        i = n + 1
        for d in dirs4 if turned else (dirs4[0], dirs4[1]):
            cell = base_cell + d
            if occ[cell]:
                continue
            nodes_explored += 1
            journal = place(i, cell)
            if prune:
                b = bound_after(i)
                if (b < best) if counting else (b <= best):
                    pruned += 1
                    unplace(i, journal)
                    continue
            dfs(i, turned or d == 1 or d == -1)
            unplace(i, journal)

    # Replay the prefix, then search below it.
    journals = []
    for k, cell in enumerate(prefix, start=1):
        journals.append(place(k, cell))
    dfs(len(prefix), turned0)
    for k in range(len(prefix), 0, -1):
        unplace(k, journals[k - 1])

    return best, count, reps, nodes_explored, pruned


def _prefixes(length: int) -> tuple[list[tuple[tuple[int, ...], bool]], int]:
    """Canonical prefixes (as grid cells) at the fixed partition depth.

    Returns (jobs, placements_counted) where each job is (cells, turned).
    """
    width = 2 * length + 1
    center = length * width + length
    if length <= _PARTITION_THRESHOLD:
        if length == 1:
            return [((center,), False)], 1
        return [((center, center + width), False)], 2

    jobs: list[tuple[tuple[int, ...], bool]] = []
    placements = 0
    for pts in enumerate_walk_points(_PREFIX_NODES):
        cells = tuple((length + x) * width + (length + y) for x, y in pts)
        turned = any(y != 0 for _, y in pts)
        jobs.append((cells, turned))
        placements += 1  # one placement per emitted leaf; cheap bookkeeping
    return jobs, placements


def exact_solve(
    chain: Chain,
    *,
    max_length: int = DEFAULT_MAX_LENGTH,
    representative_cap: int | None = DEFAULT_REPRESENTATIVE_CAP,
    workers: int = 1,
    prune: bool = True,
    count: bool = True,
) -> SolveReport:
    """Exhaustive optimal-score search over all foldings of the chain.

    Raises LengthLimitError beyond max_length.  representative_cap=None
    keeps every optimal folding.  With count=False the search returns only
    the optimal score (optimal_count is None and ties are pruned more
    aggressively).
    """
    length = len(chain)
    if length > max_length:
        raise LengthLimitError(length, max_length)

    seq = chain.seq
    seed = _seed_score(chain) if prune else 0
    jobs, partition_nodes = _prefixes(length)
    args = [(seq, cells, turned, prune, count, seed, representative_cap)
            for cells, turned in jobs]

    if workers > 1 and len(args) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_solve_subtree, args))
    else:
        results = [_solve_subtree(a) for a in args]

    best = max(r[0] for r in results)
    total_count = 0
    rep_cells: list[tuple] = []
    nodes = partition_nodes
    pruned = 0
    for sub_best, sub_count, sub_reps, sub_nodes, sub_pruned in results:
        nodes += sub_nodes
        pruned += sub_pruned
        if sub_best == best:
            total_count += sub_count
            for cells in sub_reps:
                if representative_cap is None or len(rep_cells) < representative_cap:
                    rep_cells.append(cells)

    width = 2 * length + 1
    reps = tuple(
        Folding(tuple((c // width - length, c % width - length) for c in cells))
        for cells in rep_cells
    )
    return SolveReport(
        optimal_score=best,
        optimal_count=total_count if count else None,
        representatives=reps,
        nodes_explored=nodes,
        pruned=pruned,
    )


def optimal_score(chain: Chain, **kwargs) -> int:
    """Optimal bond count only (faster: ties are pruned)."""
    kwargs.setdefault("count", False)
    kwargs.setdefault("representative_cap", 0)
    return exact_solve(chain, **kwargs).optimal_score


def is_unique_optimal(chain: Chain, **kwargs) -> bool:
    """True when exactly one folding (modulo symmetry) attains the optimum."""
    return exact_solve(chain, **kwargs).optimal_count == 1
