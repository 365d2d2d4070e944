"""SAT-to-sequence gadget compiler: layouts, gadgets, assembly, verification."""

from importlib import resources

from .assemble import ReductionInstance, assemble, verify_instance
from .gadgets import flex_strands, hairpinned_gadget_chain, rigid_strands
from .layout import LayoutError, SatLayout, Segment, Turn, load_layout, parse_layout
from .verify import verify_straightness

__all__ = [
    "LayoutError",
    "ReductionInstance",
    "SatLayout",
    "Segment",
    "Turn",
    "assemble",
    "bundled_layout_text",
    "flex_strands",
    "hairpinned_gadget_chain",
    "load_layout",
    "parse_layout",
    "rigid_strands",
    "verify_instance",
    "verify_straightness",
]


def bundled_layout_text(name: str) -> str:
    """Text of a bundled fixture layout, e.g. 'single_clause'."""
    return (
        resources.files("wcfold.fixtures").joinpath(f"{name}.layout").read_text()
    )
