"""Benchmark inputs, made from a seed.

Each workload's corpus has a fixed shape (how many inputs, of which
lengths and sizes) and the seed fills in the content, so that two seeds
cost the same to run and their timings can be compared.

* solve / solve_pool: the three ROADMAP chains plus a fixed draw of
  random G/C and AUGC chains (L = 14-18), all with pinned answers.  A
  random chain's solve time depends on its content (0.03-3.8 s at
  L = 14-18 for the draw below), so a fresh draw per seed would move the
  corpus time by more than any bound worth having.  The seed instead
  relabels every chain with a complement-preserving swap (G<->C, A<->U,
  both, or neither).  The swap keeps the alphabet, the optimum, the
  optimal count and the parity census, and the solver explores exactly
  the same tree for every labelling.
* approx: one fresh random G/C chain per length in APPROX_LENGTHS.
* reduce: the two bundled fixtures plus fresh layouts of 1, 2 and 3
  variable/clause blocks (LAYOUTS_PER_BLOCK_COUNT of each).  Segment
  lengths and turn sides are drawn, but every block spans BLOCK_PERIODS
  flex periods, so the molecule length (and with it the X tail, which
  costs (N/2)^2 bases) is fixed per block count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

# (sequence, optimal score, optimal count), as measured in ROADMAP.md.
ROADMAP_CHAINS = (
    ("GGGCGGGCCGCGGCCCGCGG", 7, 244),
    ("GAGGAACUACGGCUCGUCAG", 6, 189),
    ("G" * 10 + "C" * 10, 9, 1),
)

# The random chains were drawn once by draw_chains(); their answers come
# from exact_solve in count mode.  (length, alphabet, count mode, how many)
DRAW_SEED = 1812
DRAW_CLASSES = (
    (14, "GC", True, 3), (14, "GC", False, 2),
    (14, "AUGC", True, 3), (14, "AUGC", False, 2),
    (16, "GC", True, 1), (16, "GC", False, 1),
    (16, "AUGC", True, 1), (16, "AUGC", False, 1),
    (18, "GC", True, 1), (18, "AUGC", False, 1),
)
# (sequence, count mode in `solve`, optimal score, optimal count)
DRAWN_CHAINS = (
    ("CCCCCGCCGGGCCG", True, 5, 3),
    ("GGCGCCCCGCCGGG", True, 5, 4),
    ("GCGGGGGCGGCCCC", True, 5, 7),
    ("CGCCCCGGCGGGGG", False, 5, 2),
    ("GCGGCGCGGGGCGC", False, 5, 2),
    ("GAAUACAUCUCCGU", True, 4, 13),
    ("CCGCAGUUCACCUG", True, 4, 69),
    ("AUCUGCGUCGGCGA", True, 3, 244),
    ("CAUGCCGUUGCGAA", False, 4, 5),
    ("GCCUAGUCUCUGCG", False, 2, 1323),
    ("CGCCCCCCGGGGGGCC", True, 6, 24),
    ("GGGCCGGCGGCCCCGG", False, 6, 3),
    ("AUCUUUAACUUGAGGG", True, 5, 53),
    ("UGUGGCGCGCUUUGGA", False, 4, 218),
    ("CCCCCGCGCCGGCGGCGC", True, 6, 62),
    ("CUUAGCCAAUCCAGGAUC", False, 6, 6),
)
# The block family's uniqueness guarantee pins these; small enough for --smoke.
SMOKE_CHAINS = (("GGGGCCCC", True, 3, 1), ("GGGGGCCCCC", True, 4, 1))

POOL_MIN_LENGTH = 18
APPROX_LENGTHS = (1000, 1400, 2000, 2800, 4000)
SMOKE_APPROX_LENGTHS = (100, 200, 400)
FIXTURES = ("single_clause", "straight_zipper")
# Most layouts have 2 blocks, so the median call is one of them.
LAYOUTS_PER_BLOCK_COUNT = {1: 2, 2: 6, 3: 1}
BLOCK_PERIODS = 21  # flex periods per block: flex a + flex b + 2 * rigid r + flex c

_RELABELS = tuple(
    str.maketrans(a, b) for a, b in (("", ""), ("GC", "CG"), ("AU", "UA"), ("GCAU", "CGUA"))
)


@dataclass(frozen=True)
class ChainInput:
    """A chain to solve.  score/optimal_count are None when not pinned."""

    seq: str
    count: bool
    score: int | None = None
    optimal_count: int | None = None


@dataclass(frozen=True)
class ApproxInput:
    seq: str


@dataclass(frozen=True)
class LayoutInput:
    name: str
    text: str


def input_text(item: ChainInput | ApproxInput | LayoutInput) -> str:
    """The string wcfold receives for this input."""
    return item.text if isinstance(item, LayoutInput) else item.seq


def draw_chains(seed: int = DRAW_SEED) -> list[tuple[str, bool]]:
    """Re-draw the random chains of DRAWN_CHAINS: (sequence, count mode)."""
    rng = random.Random(seed)
    return [
        ("".join(rng.choice(alphabet) for _ in range(length)), count)
        for length, alphabet, count, n in DRAW_CLASSES
        for _ in range(n)
    ]


def relabel(seq: str, rng: random.Random) -> str:
    """Apply a random complement-preserving swap that keeps the alphabet."""
    return seq.translate(rng.choice(_RELABELS))


def _random_chain(rng: random.Random, alphabet: str, length: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(length))


def _solve_inputs(rng: random.Random, smoke: bool) -> list[ChainInput]:
    if smoke:
        return [ChainInput(s, c, sc, n) for s, c, sc, n in SMOKE_CHAINS] + [
            ChainInput(_random_chain(rng, "GC", 10), True),
            ChainInput(_random_chain(rng, "AUGC", 10), False),
        ]
    pinned = [ChainInput(s, True, sc, n) for s, sc, n in ROADMAP_CHAINS]
    drawn = [ChainInput(s, c, sc, n) for s, c, sc, n in DRAWN_CHAINS]
    return [
        ChainInput(relabel(item.seq, rng), item.count, item.score, item.optimal_count)
        for item in pinned + drawn
    ]


def _pool_inputs(rng: random.Random, smoke: bool) -> list[ChainInput]:
    if smoke:
        # Longer than the solver's partition threshold, so the pool is used.
        return [ChainInput(_random_chain(rng, "GC", 13), True)]
    return [
        ChainInput(item.seq, True, item.score, item.optimal_count)
        for item in _solve_inputs(rng, smoke)
        if len(item.seq) >= POOL_MIN_LENGTH
    ]


def block_layout(n_blocks: int, rng: random.Random) -> str:
    """A layout of chained variable/clause blocks x_i / c_i.

    Each block: flex a, variable turn (random true= side), flex b, rigid r
    coupled to c_i, flex c, partner turn; a + b + 2r + c = BLOCK_PERIODS.
    """
    t = 2 * n_blocks
    lines = [f"spacing {40 * t + 4}"]
    lines += [f"variable x{i}" for i in range(n_blocks)]
    lines += [f"clause c{i} literals x{i}" for i in range(n_blocks)]
    for i in range(n_blocks):
        while True:
            a, b, r = rng.randint(2, 4), rng.randint(2, 5), rng.randint(1, 3)
            c = BLOCK_PERIODS - a - b - 2 * r
            if 8 <= c <= 14:
                break
        side, other = rng.choice((("left", "right"), ("right", "left")))
        lines += [
            f"segment flex {a}",
            f"turn u{i} variable x{i} true={side} partner=v{i}",
            f"segment flex {b}",
            f"segment rigid {r} clause=c{i}",
            f"segment flex {c}",
            f"turn v{i} variable x{i} true={other} partner=u{i}",
        ]
    lines.append("segment flex 2")
    return "\n".join(lines) + "\n"


def _reduce_inputs(rng: random.Random, smoke: bool,
                   fixture_text: Callable[[str], str]) -> list[LayoutInput]:
    inputs = [LayoutInput(name, fixture_text(name)) for name in FIXTURES]
    for n_blocks, count in ({1: 1} if smoke else LAYOUTS_PER_BLOCK_COUNT).items():
        for j in range(count):
            inputs.append(LayoutInput(f"blocks{n_blocks}-{j}", block_layout(n_blocks, rng)))
    return inputs


def make_corpus(workload: str, seed: int, smoke: bool,
                fixture_text: Callable[[str], str]) -> tuple:
    """The workload's inputs for this seed, in call order."""
    rng = random.Random(seed)
    if workload == "solve":
        inputs = _solve_inputs(rng, smoke)
    elif workload == "solve_pool":
        inputs = _pool_inputs(rng, smoke)
    elif workload == "approx":
        lengths = SMOKE_APPROX_LENGTHS if smoke else APPROX_LENGTHS
        inputs = [ApproxInput(_random_chain(rng, "GC", n)) for n in lengths]
    elif workload == "reduce":
        inputs = _reduce_inputs(rng, smoke, fixture_text)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return tuple(inputs)
