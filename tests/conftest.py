import itertools

from wcfold.model import Chain, Folding, score
from wcfold.walks import enumerate_walk_points


def all_gc_chains(length):
    for combo in itertools.product("GC", repeat=length):
        yield Chain("".join(combo))


def brute_force_matching_size(edges):
    """Maximum matching by exhaustive search over edge subsets."""
    best = 0
    n = len(edges)

    def recurse(idx, used, size):
        nonlocal best
        if size + (n - idx) <= best:
            return
        if idx == n:
            best = max(best, size)
            return
        i, j = edges[idx]
        if i not in used and j not in used:
            recurse(idx + 1, used | {i, j}, size + 1)
        recurse(idx + 1, used, size)

    recurse(0, frozenset(), 0)
    return best


def boustrophedon(length, height):
    """A folding that snakes up and down columns of `height` cells, with G
    and C by lattice colour, so every contact that is not a chain step can
    bond.  On a long, thin strip Kuhn's augmenting paths run hundreds of
    nodes deep."""
    points = []
    for k in range(length):
        x, r = divmod(k, height)
        points.append((x, r if x % 2 == 0 else height - 1 - r))
    return Chain("".join("GC"[(x + y) % 2] for x, y in points)), Folding(tuple(points))


def brute_force_optimum(chain):
    """Exact optimum and symmetry-class count via plain enumeration + score."""
    best = -1
    count = 0
    for pts in enumerate_walk_points(len(chain)):
        s = score(chain, Folding(pts))[0]
        if s > best:
            best, count = s, 1
        elif s == best:
            count += 1
    return best, count


# A zero-period flex segment between a fixed turn and a variable turn bent
# right: before periods were checked, assemble indexed a spacer's base.
ZERO_PERIOD_LAYOUT = """
spacing 200
variable x
segment flex 1
turn f fixed left
segment flex 0
turn u variable x true=right partner=v
segment flex 2
turn v variable x true=left partner=u
segment flex 2
"""
