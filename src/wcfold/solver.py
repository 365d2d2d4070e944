"""Exact optimal folding via canonical walk search with bound pruning.

The search enumerates canonical walks (first step +x, first turn left, one
walk per symmetry orbit) and maintains a maximum matching on the contact
graph incrementally: adding one node grows the matching by at most one, so
a single augmenting-path attempt from the new node keeps it maximum.

Pruning uses an admissible upper bound on any completion of a partial walk:

    matching_so_far + number of unplaced bondable nodes

Every bond of a completed folding either lies inside the placed part
(counted by the matching, which is maximum) or touches an unplaced node,
and the score is a matching, so no unplaced node takes part in two such
bonds: the bound never underestimates.  X nodes never bond and are not
counted.

Most prunes are decided before the placement, by reading the grid only,
and look up to three nodes ahead; search, inside _subtree_search, states
their exact conditions.

The search tree is partitioned by canonical prefixes at a fixed depth that
depends only on the chain length, and subtree results merge associatively
in prefix order.  Worker count changes only which process runs a subtree,
so reports are identical for any worker count.  One placement rule serves
the whole walk: a step leads to the three steps that do not go back, so
the canonical-walk rule is data, and a subtree's prefix is a chain of
forced steps that skip the bound.  Prefix placements are counted once, by
exact_solve, not per subtree.

A subtree search starts its best-so-far from a seed, the score of a real
folding and so a valid lower bound, or from nothing (-1), in which case
its first leaf is recorded whatever it scores.  Pruning pays only when the
seed is the optimum: a walk that merely ties a weak seed is still expanded
in count mode.  So one seeded pass searches subtrees in score-only mode,
in order and in the calling process, each from the best score so far.  A
score-only search is that pass over every subtree.  In count mode, with
pruning on, a partitioned chain's pass is a probe cut after its first
_PROBE_SUBTREES subtrees, whose best, which may fall short of the optimum,
seeds the counting of every subtree.  The calling process and
workers - 1 children forked from it count the subtrees, each taking the
next subtree index from one shared pipe, and the results merge in
subtree order.  workers=1, and any worker count where os.fork does not
exist, run the same counter in the calling process alone, with no child.
Reports thus stay identical for any worker count.

A pruned score-only pass stops once its best reaches the cap, the
smaller of the bounding-box bound and the parity bound (wcfold.bounds),
which no folding can beat.  That costs no compare per node: a leaf is
reached only by a walk that improves the best.  The parity bound ends the
searches the unplaced-node bound cannot: on a skewed chain such as
G^15 C it is reached by the first walk that bonds the C, while the
unplaced G nodes leave slack to the end of every walk.
"""

from __future__ import annotations

import os
import pickle
import signal
from dataclasses import dataclass

from .bounds import bounding_box_bound, parity_bound
from .model import Chain, Folding, Point, complementary
from .walks import DIRS, enumerate_walk_points

DEFAULT_MAX_LENGTH = 20
DEFAULT_REPRESENTATIVE_CAP = 16
# Chains longer than this are split into canonical-prefix subtrees of
# _PREFIX_NODES nodes.  Fixed by length only, never by worker count.
_PARTITION_THRESHOLD = 12
_PREFIX_NODES = 6
# Count mode's probe searches a partitioned chain's first _PROBE_SUBTREES
# subtrees.  k = 1-6 count the solve corpus's count chains in 1,007,646 /
# 902,058 / 870,632 / 877,386 / 857,056 / 863,475 nodes; k = 5 is
# fewest, but the probe runs serially before any child is forked, and
# the counting's makespan does not fall: perfbench solve_pool wall_s
# reads 0.354 s (quartiles 0.349-0.364) at k = 3 and 0.365 s
# (0.355-0.371) at k = 5, k = 3 faster in 5 of 6 alternating pairs of
# 10 s runs on a shared 2-vCPU Xeon, 2 workers.
_PROBE_SUBTREES = 3

# Base codes; X, which never bonds, also stands for no node.
_BASES = "GCAUX"
_CODE = {b: c for c, b in enumerate(_BASES)}
# Complementarity on base codes, from which _subtree_search builds its bond rows.
_COMP = tuple(tuple(complementary(a, b) for b in _BASES) for a in _BASES)


class _Stop(Exception):
    """A score-only search reached the cap."""


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
    representative_cap of them (all of them when the cap is None).  In
    score-only mode a subtree yields only the first folding that beats the
    best so far, and a pruned search stops at the first that reaches the
    smaller of the bounding-box and parity bounds, so it may list fewer,
    but at least one whenever representative_cap >= 1.  nodes_explored
    counts the free cells tried for a node, pruned those the bound cut
    off, before or after placing the node.  seed is the seeded pass's
    best: the probe's in count mode, which every subtree was counted from,
    and the optimum in score-only mode.  It is None with pruning off or at
    12 bases or fewer; count-mode searches then start from nothing.
    """

    optimal_score: int
    optimal_count: int | None
    representatives: tuple[Folding, ...]
    nodes_explored: int
    pruned: int
    seed: int | None


def _subtree_search(seq: str, prune: bool, cap: int, rep_cap: int | None):
    """Build a chain's read-only search tables once, and return
    search(prefix, counting, seed), which searches one canonical-prefix
    subtree on them.

    nbond, bond and node are indexed by node (index 0 unused).  The search
    grid is width cells wide, and look maps each step d, as a grid offset, to
    one entry per cell e ahead of the step's new cell: e, e's three cells
    ahead, and for each of those cells f, f and its own three cells ahead,
    all as offsets from the new cell.
    """
    length = len(seq)
    x = _CODE["X"]
    code = [x] + [_CODE[ch] for ch in seq]
    # nbond[p]: number of bondable nodes with index > p.
    nbond = [0] * (length + 1)
    for p in range(length - 1, -1, -1):
        nbond[p] = nbond[p + 1] + (code[p + 1] != x)
    # bond[i][q]: nodes i and q can bond (complementary, not consecutive on the chain).
    bond = tuple(tuple(_COMP[code[i]][code[q]] and abs(i - q) != 1 for q in range(length + 1))
                 for i in range(length + 1))
    # node[i]: i's bond row, those of j = i + 1 and k = i + 2 where they
    # exist and can bond (else None), and nbond[i].
    rows = [bond[q] if q <= length and code[q] != x else None for q in range(length + 3)]
    node = [(bond[i], rows[i + 1], rows[i + 2], nbond[i]) for i in range(length + 1)]
    width = 2 * length + 1
    dirs4 = tuple(dx * width + dy for dx, dy in DIRS)
    ahead_of = {d: tuple(e for e in dirs4 if e != -d) for d in dirs4}
    look = {d: tuple((e, *(e + f for f in ahead_of[e]),
                      tuple((e + f, *(e + f + g for g in ahead_of[f])) for f in ahead_of[e]))
                     for e in ahead_of[d])
            for d in dirs4}
    # after[d]: the steps of a node reached by step d, once the walk has
    # turned; steps2: those before its first turn, +x back to steps2 and +y.
    after: dict = {d: [] for d in dirs4}
    for d in dirs4:
        after[d] += [(e, *ahead_of[e], look[e], after[e], prune) for e in ahead_of[d]]
    steps2: list = []
    steps2 += [after[dirs4[0]][0][:5] + (steps2, prune), after[dirs4[0]][1]]

    def search(prefix: tuple[Point, ...], counting: bool,
               seed: int) -> tuple[int, int, list[tuple[Point, ...]], int, int]:
        """Search the subtree below prefix, the canonical prefix as lattice
        points.  The search runs on a grid whose cell for point (x, y) is
        (L + x) * width + (L + y), wide enough that no walk from the origin
        leaves it; the prefix's moves are encoded onto it here and the
        representatives decoded back to points.

        Returns (best, count_at_best, representatives, nodes, pruned).
        Counting starts at the seed score (-1 when there is none) with
        count 0: only walks that actually attain the best score are counted,
        so a seed equal to the optimum still yields the true count.  A
        pruned score-only search returns as soon as its best reaches cap,
        exact_solve's upper bound on the chain's score.

        dfs(n, steps) places node n + 1 inline, by each step in turn whose
        cell is free, and undoes each placement in reverse once its subtree
        is searched.  A step is (d, e1, e2, e3, ring, child_steps, check):
        the move, the new cell's three neighbours other than node n's cell
        at -d, ring = look[d], the steps of node n + 2, and whether the
        bound is checked (prune).  So the canonical-walk rule is data:
        before its first turn a walk goes +x, back to the same two steps, or
        turns left (+y), and after it a step leads to the three steps that
        do not go back.  Node 1 sits at the origin, and each later prefix
        node is one forced step with check False, so dfs places the prefix
        too, never prunes it, and may reach the leaf inside it.  check is
        the same for every step of a list, so steps[0][6] stands for it.

        Bond partners are read from the grid: try_node takes as u's
        partners the nodes in the four cells around it that bond[u] admits
        (occ is 0 on an empty cell, and no row admits 0).  For each free
        cell, hit reads i's three cells ahead once; it decides the prunes
        below and whether the placed i tries to augment.  The cells two and
        three steps ahead that the prunes read come from the step's ring.

        Before its step loop, dfs takes slack = mu + nbond[i] - best - tie
        when check holds, for the node i = n + 1 it places; best only rises
        within a call, so a slack taken at its start only overstates.  With
        slack <= 0 a free cell is pruned without being placed when:

        - slack < 0 and not hit.  This prunes exactly the cells the placed
          bound would: no edge reaches i there, so the child's mu' = mu,
          and mu' + nbond[i] < best + tie.
        - node j = i + 1 exists and can bond (row_j), slack < 0 or not hit,
          and no free cell e ahead of the cell has a node that j can bond
          with among its own three cells ahead.  Then mu' <= mu + 1, with
          mu' = mu where i has no partner, and nbond[j] = nbond[i] - 1, so
          the child's own slack is negative: it prunes every free cell it
          tries, for its steps are among the free cells ahead, whose cells
          ahead hold now what they would hold then.  The child would place
          nothing and reach no leaf, so the cell costs one prune instead of
          a call and the child's prunes.  Before the walk's first turn the
          child tries only two of the three cells, and there this test
          prunes less than it could.
        - under the same condition, node k = i + 2 also exists and can bond
          (row_k), and for every e that holds a partner of j, no free cell
          f ahead of e has a node that k can bond with among f's three
          cells ahead.  The child's slack is negative as above, and so is
          the grandchild's, since mu'' <= mu' + 1 and nbond[k] =
          nbond[j] - 1.  So the child prunes every e it tries: by the first
          rule where j has no partner there, and by the rule above, read
          for its own next node k, where j has one.  By lattice parity f's
          cells ahead never include the cell or e, so the grid holds now
          what the child would read then.

        A cell tried is a free cell: it is pruned, before or after its
        placement, or placed and searched by a dfs call.  exact_solve
        counts the prefix placements once for all subtrees, so the nodes
        returned are the cells tried below the prefix: dfs calls plus
        prunes, less len(prefix).
        """
        occ = [0] * (width * width)
        pos = [0] * (length + 1)
        match = [0] * (length + 1)
        vis = [0] * (length + 1)
        # Flat journal of (node, previous match) pairs for undoing augmentations.
        undo: list[int] = []
        stamp = 0
        mu = 0

        def try_node(u: int) -> bool:
            """Kuhn augmenting-path step from u over the grid, journalling every rematch."""
            row = bond[u]
            p = pos[u]
            for d in dirs4:
                q = occ[p + d]
                if row[q] and vis[q] != stamp:
                    vis[q] = stamp
                    w = match[q]
                    if w == 0 or try_node(w):
                        undo.extend((q, w, u, match[u]))
                        match[q] = u
                        match[u] = q
                        return True
            return False

        best = seed
        # Counting keeps walks that tie the best; score-only mode prunes ties.
        tie = 0 if counting else 1
        stop = cap if prune and not counting else None
        count = 0
        reps: list[tuple] = []
        pruned = 0

        # Bound as defaults, which dfs reads as locals, faster than closure cells.
        def dfs(n: int, steps, occ=occ, pos=pos, node=node, try_node=try_node):
            nonlocal best, count, mu, stamp, calls, pruned
            calls += 1
            if n == length:
                if mu >= best:
                    if mu > best:
                        best = mu
                        count = 0
                        del reps[:]
                    count += 1
                    if rep_cap is None or len(reps) < rep_cap:
                        reps.append(tuple(pos[1:]))
                    if best == stop:
                        raise _Stop
                return
            base_cell = pos[n]
            i = n + 1
            row, row_j, row_k, nb = node[i]
            # slack < 0: i must grow the matching where it lands, and so must
            # nodes j = i + 1 and k = i + 2 if they can bond; slack == 0: j and
            # k must wherever i cannot.  A cell where one of them cannot is
            # pruned unplaced (see search).
            slack = mu + nb - best - tie if steps[0][6] else 1
            for d, e1, e2, e3, ring, child_steps, check in steps:
                cell = base_cell + d
                if occ[cell]:
                    continue
                hit = row[occ[cell + e1]] or row[occ[cell + e2]] or row[occ[cell + e3]]
                if slack <= 0:
                    if not hit and slack:
                        pruned += 1
                        continue
                    if row_j is not None and (slack or not hit):
                        # Keep the cell only if some free e ahead has a partner
                        # of j ahead of it and, when k can bond, some free f
                        # ahead of that e has a partner of k ahead of it.
                        for e, e1, e2, e3, fs in ring:
                            if occ[cell + e] or not (row_j[occ[cell + e1]] or row_j[occ[cell + e2]]
                                                     or row_j[occ[cell + e3]]):
                                continue
                            if row_k is None:
                                break
                            for f, f1, f2, f3 in fs:
                                if not occ[cell + f] and (row_k[occ[cell + f1]] or row_k[occ[cell + f2]]
                                                          or row_k[occ[cell + f3]]):
                                    break
                            else:
                                continue
                            break
                        else:
                            pruned += 1
                            continue
                occ[cell] = i
                pos[i] = cell
                grown = False
                if hit:
                    stamp += 1
                    mark = len(undo)
                    if try_node(i):
                        mu += 1
                        grown = True

                # Each node still to come adds at most one bond.
                if check and mu + nb < best + tie:
                    pruned += 1
                else:
                    dfs(i, child_steps)

                # Undo in reverse.  The journal restores the exact matching: a node
                # that did not grow it may since have been matched, as the free end
                # of a descendant's augmenting path, so unmatching i alone could
                # leave it one short of maximum.
                if grown:
                    mu -= 1
                    for k in range(len(undo) - 2, mark - 2, -2):
                        match[undo[k]] = undo[k + 1]
                    del undo[mark:]
                occ[cell] = 0

        # The prefix as forced steps, back to front; a walk has turned once it
        # leaves the x axis.
        moves = [(x1 - x0) * width + (y1 - y0) for (x0, y0), (x1, y1) in zip(prefix, prefix[1:])]
        steps = after[moves[-1]] if any(y for _, y in prefix) else steps2
        for d in reversed(moves):
            steps = [(d, *ahead_of[d], look[d], steps, False)]
        origin = length * width + length
        occ[origin] = 1
        pos[1] = origin
        calls = 0
        try:
            dfs(1, steps)
        except _Stop:
            pass

        decoded = [tuple((c // width - length, c % width - length) for c in cells)
                   for cells in reps]
        # Each cell tried is pruned or calls dfs, and the first call places
        # node 1; exact_solve counts the prefix's placements.
        return best, count, decoded, calls + pruned - len(prefix), pruned

    return search


def _prefixes(length: int) -> list[tuple[Point, ...]]:
    """Canonical prefixes (as lattice points) at the partition depth."""
    depth = _PREFIX_NODES if length > _PARTITION_THRESHOLD else min(length, 2)
    return list(enumerate_walk_points(depth))


def _prefix_tree_size(prefixes: list[tuple[Point, ...]]) -> int:
    """Nodes of the tree the prefixes span, one per placement they make."""
    return len({pts[:d] for pts in prefixes for d in range(1, len(pts) + 1)})


def _take_subtrees(tasks: int, search_k) -> list[tuple[int, tuple]]:
    """Search the subtrees whose indices this process reads from the task
    pipe, one byte each, until it is empty; returns (index, result) pairs."""
    done = []
    while index := os.read(tasks, 1):
        done.append((index[0], search_k(index[0])))
    return done


def _count_forked(search_k, subtrees: int, processes: int) -> list:
    """Count the subtrees, search_k(k) counting subtree k of 0 to
    subtrees - 1, in this process and processes - 1 children forked from
    it, and return the results in subtree order.  With processes = 1 this
    process counts them all and forks nothing.

    One pipe holds every subtree index, and a process takes the next one
    whenever it is free, so the work balances as it goes; a child runs the
    search_k it inherited, so nothing is pickled on the way to it.  Each
    child sends one pickled (True, [(index, result), ...]) or (False,
    exception) on a pipe of its own and exits.  Every child is reaped on
    every path: when this process raises, or re-raises a child's
    exception, the children still running are killed first, and its own
    exception wins.
    """
    assert subtrees < 256, "a subtree index travels as one byte"
    tasks, feed = os.pipe()
    os.write(feed, bytes(range(subtrees)))
    os.close(feed)
    children: dict[int, int] = {}
    try:
        for _ in range(processes - 1):
            out, into = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(out)
                os.close(into)
                raise
            if pid == 0:
                code = 1
                try:
                    try:
                        sent = True, _take_subtrees(tasks, search_k)
                    except BaseException as exc:
                        sent = False, exc
                    with open(into, "wb") as f:
                        f.write(pickle.dumps(sent))
                    code = 0
                finally:
                    os._exit(code)
            # Closed before the next fork, so only the child holds it and its exit is EOF.
            os.close(into)
            children[pid] = out
        results = dict(_take_subtrees(tasks, search_k))
        for pid, out in children.items():
            with open(out, "rb", closefd=False) as f:
                data = f.read()
            if not data:
                raise ChildProcessError(f"subtree process {pid} exited without a result")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.update(value)
    except BaseException:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(tasks)
        for pid, out in children.items():
            os.close(out)
            os.waitpid(pid, 0)
    return [results[k] for k in range(subtrees)]


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

    Raises LengthLimitError beyond max_length and ValueError for workers
    below 1.  representative_cap=None keeps every optimal folding.  With
    count=False the search returns only the optimal score (optimal_count
    is None and ties are pruned more aggressively).

    The search recurses once per base, so past about 990 bases (with
    max_length raised, at the default recursion limit of 1000) it raises
    RecursionError; `wcfold` maps that to exit 2.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    length = len(chain)
    if length > max_length:
        raise LengthLimitError(length, max_length)

    prefixes = _prefixes(length)
    cap = min(bounding_box_bound(length), parity_bound(chain))
    search = _subtree_search(chain.seq, prune, cap, representative_cap)
    # The seeded pass (see the module docstring): all of a score-only search,
    # or count mode's probe.  A pruned pass ends at the cap.
    probed = prune and length > _PARTITION_THRESHOLD
    seed = -1
    passed = []
    for prefix in prefixes if not count else prefixes[:_PROBE_SUBTREES] if probed else ():
        if prune and seed == cap:
            break
        passed.append(search(prefix, False, seed))
        seed = passed[-1][0]

    results = passed
    if count:
        # Past one process per subtree the rest would find the task pipe empty.
        processes = min(workers, len(prefixes)) if hasattr(os, "fork") else 1
        results = _count_forked(lambda k: search(prefixes[k], True, seed), len(prefixes), processes)

    searched = passed + results if count else passed
    nodes = _prefix_tree_size(prefixes if count else prefixes[:len(passed)])
    nodes += sum(r[3] for r in searched)
    pruned = sum(r[4] for r in searched)
    best = max(r[0] for r in results)
    total_count = 0
    reps: list[Folding] = []
    for sub_best, sub_count, sub_reps, _, _ in results:
        if sub_best == best:
            total_count += sub_count
            for points in sub_reps:
                if representative_cap is None or len(reps) < representative_cap:
                    reps.append(Folding(points))

    return SolveReport(
        optimal_score=best,
        optimal_count=total_count if count else None,
        representatives=tuple(reps),
        nodes_explored=nodes,
        pruned=pruned,
        seed=seed if probed else None,
    )


def optimal_score(chain: Chain, **kwargs) -> int:
    """Optimal bond count only, by one seeded pass in the calling process
    (faster: ties are pruned; workers is unused).  Like exact_solve, it
    recurses once per base and raises RecursionError past about 990 bases."""
    kwargs.setdefault("count", False)
    kwargs.setdefault("representative_cap", 0)
    return exact_solve(chain, **kwargs).optimal_score
