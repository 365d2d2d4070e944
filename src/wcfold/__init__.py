"""2D orthogonal Watson-Crick lattice folding: exact search, bounds,
constructions, a constant-factor approximation, and SAT gadget compilation."""

from .bounds import (
    ParityCensus,
    bounding_box_bound,
    gc_block_chain,
    hairpin_folding,
    mixed_block_chain,
    parity_bound,
    parity_census,
)
from .model import (
    BondSet,
    Chain,
    ChainParseError,
    ContactEdge,
    Folding,
    FoldingValidationError,
    Point,
    complementary,
    contact_graph,
    parse_chain,
    score,
    validate_folding,
)
from .solver import (
    LengthLimitError,
    SolveReport,
    exact_solve,
    optimal_score,
)
from .walks import moves_to_points, points_to_moves

__all__ = [
    "BondSet",
    "Chain",
    "ChainParseError",
    "ContactEdge",
    "Folding",
    "FoldingValidationError",
    "LengthLimitError",
    "ParityCensus",
    "Point",
    "SolveReport",
    "bounding_box_bound",
    "complementary",
    "contact_graph",
    "exact_solve",
    "gc_block_chain",
    "hairpin_folding",
    "mixed_block_chain",
    "moves_to_points",
    "optimal_score",
    "parity_bound",
    "parity_census",
    "parse_chain",
    "points_to_moves",
    "score",
    "validate_folding",
]

__version__ = "0.1.0"
