"""SAT-to-sequence gadget compiler: layouts, gadgets, assembly, verification."""

from importlib import resources

from .assemble import ReductionInstance, assemble, verify_instance
from .gadgets import hairpinned_gadget_chain, verify_straightness
from .layout import LayoutError, SatLayout, Segment, Turn, load_layout, parse_layout

__all__ = [
    "LayoutError",
    "ReductionInstance",
    "SatLayout",
    "Segment",
    "Turn",
    "assemble",
    "bundled_layout_text",
    "hairpinned_gadget_chain",
    "load_layout",
    "parse_layout",
    "verify_instance",
    "verify_straightness",
]


def bundled_layout_text(name: str) -> str:
    """Text of a bundled fixture layout, e.g. 'single_clause'."""
    return (
        resources.files("wcfold.fixtures").joinpath(f"{name}.layout").read_text()
    )
