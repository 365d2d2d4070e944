"""Routed layout descriptions for the SAT-to-folding compiler.

The compiler does not route CNF formulas itself; it consumes an explicit
rectilinear routing.  A layout file is line-oriented:

    # comment
    spacing 84
    variable x
    clause c1 literals x
    segment flex 2
    turn t1 variable x true=left partner=t2
    segment flex 4
    segment rigid 2 clause=c1
    segment flex 13
    turn t2 variable x true=right partner=t1
    segment flex 2

Elements trace one corridor (the doubled strand follows it out and back;
tails and the far-end turnaround are implicit).  Segments advance by whole
gadget periods (4 cells flex, 8 rigid), at least one each.  A turn bends
the corridor 90 degrees; fixed turns bake the direction in, variable turns
take it from a truth assignment (the declared true= direction for True,
its mirror for False).  Variable turns pair in route order: each opens
a pair or closes the open one, so pairs neither nest nor cross.  A pair's
two turns share a variable, name each other as partner= and bend opposite
ways, so the corridor heading and strand alignment are restored after the
pair for every assignment.  A rigid segment tagged clause=NAME is that
clause's coupling: it must sit inside a pair of one of the clause's
literals, where only the satisfying bend direction keeps its 8-cycle
pattern aligned.  Every clause needs a coupling and every variable a turn
pair.  Segment, Turn and SatLayout check themselves when built, the
layout in one pass in route order, so that of several faults the first
is named.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

from .gadgets import PERIODS


class LayoutError(ValueError):
    """Raised for unparsable or invalid layout descriptions."""


@dataclass(frozen=True)
class Segment:
    kind: str               # "flex" | "rigid"
    periods: int
    clause: str | None = None

    def __post_init__(self):
        if self.kind not in PERIODS:
            raise LayoutError(f"unknown segment kind {self.kind!r}")
        if self.periods < 1:
            raise LayoutError(f"segment needs at least 1 period, got {self.periods}")

    @property
    def cells(self) -> int:
        return self.periods * len(PERIODS[self.kind])


@dataclass(frozen=True)
class Turn:
    ident: str
    direction: str                 # "left" | "right"; a variable turn's bend when true
    variable: str | None = None    # set exactly on variable turns
    partner: str | None = None

    def __post_init__(self):
        if self.direction not in ("left", "right"):
            raise LayoutError(f"turn {self.ident} must bend left or right, got {self.direction!r}")


@dataclass(frozen=True)
class SatLayout:
    spacing: int
    variables: tuple[str, ...] = ()
    clauses: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    elements: tuple[Segment | Turn, ...] = ()

    def __post_init__(self):
        # A read-only copy, so the frozen layout cannot change behind its back.
        object.__setattr__(self, "clauses", MappingProxyType(dict(self.clauses)))
        _check(self)

    @property
    def turn_count(self) -> int:
        """t, the number of variable turns."""
        return sum(isinstance(e, Turn) and e.variable is not None for e in self.elements)


def _opposite(direction: str) -> str:
    return "right" if direction == "left" else "left"


def _options(tokens: list[str], keys: tuple[str, ...]) -> dict[str, str]:
    """The key=value tokens of a directive, each key one of `keys`, at most once."""
    options: dict[str, str] = {}
    for token in tokens:
        key, eq, value = token.partition("=")
        if not eq or key not in keys:
            raise LayoutError(f"unknown option {token!r}")
        if key in options:
            raise LayoutError(f"option {key}= given more than once")
        options[key] = value
    return options


def parse_layout(text: str) -> SatLayout:
    """Parse and validate a layout document."""
    spacing: int | None = None
    variables: list[str] = []
    clauses: dict[str, tuple[str, ...]] = {}
    elements: list[Segment | Turn] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        word = parts[0]
        try:
            if word == "spacing":
                if spacing is not None:
                    raise LayoutError("spacing declared more than once")
                spacing = int(parts[1])
                _options(parts[2:], ())
            elif word == "variable":
                # Names end up in fold file names and in --assign NAME=VALUE.
                if not re.fullmatch("[A-Za-z0-9_]+", parts[1]):
                    raise LayoutError(
                        f"variable name {parts[1]!r} must be letters, digits and underscores"
                    )
                if parts[1] in variables:
                    raise LayoutError(f"variable {parts[1]} declared more than once")
                variables.append(parts[1])
                _options(parts[2:], ())
            elif word == "clause":
                if len(parts) < 4 or parts[2] != "literals":
                    raise LayoutError("clause needs: clause NAME literals V[,V...]")
                if parts[1] in clauses:
                    raise LayoutError(f"clause {parts[1]} declared more than once")
                clauses[parts[1]] = tuple(" ".join(parts[3:]).replace(",", " ").split())
            elif word == "segment":
                clause = _options(parts[3:], ("clause",)).get("clause")
                elements.append(Segment(parts[1], int(parts[2]), clause))
            elif word == "turn":
                ident, kind = parts[1], parts[2]
                if kind == "fixed":
                    _options(parts[4:], ())
                    elements.append(Turn(ident, parts[3]))
                elif kind == "variable":
                    opts = _options(parts[4:], ("true", "partner"))
                    elements.append(Turn(ident, opts.get("true"), parts[3], opts.get("partner")))
                else:
                    raise LayoutError(f"unknown turn kind {kind!r}")
            else:
                raise LayoutError(f"unknown directive {word!r}")
        except (IndexError, ValueError) as exc:  # LayoutError is a ValueError
            reason = exc if isinstance(exc, LayoutError) else f"cannot parse {raw!r} ({exc})"
            raise LayoutError(f"line {lineno}: {reason}") from None

    if spacing is None:
        raise LayoutError("layout must declare spacing")
    return SatLayout(
        spacing=spacing, variables=tuple(variables), clauses=clauses, elements=tuple(elements)
    )


def load_layout(path) -> SatLayout:
    return parse_layout(Path(path).read_text())


def _check(layout: SatLayout) -> None:
    """Check the layout in one pass in route order, so that the first
    faulty element is the one named."""
    elements = layout.elements
    if not elements:
        raise LayoutError("layout has no route elements")
    if not isinstance(elements[0], Segment):
        raise LayoutError("the route must start with a segment")
    for name, literals in layout.clauses.items():
        for var in literals:
            if var not in layout.variables:
                raise LayoutError(f"clause {name} references undeclared variable {var}")

    idents: set[str] = set()
    turned: list[str] = []       # the variable of each variable turn
    coupled: set[str] = set()    # clauses with a coupling
    opened: Turn | None = None   # the variable turn of the open pair
    for i, elem in enumerate(elements):
        if isinstance(elem, Segment):
            if elem.clause is None:
                continue
            if elem.kind != "rigid":
                raise LayoutError(f"clause coupling for {elem.clause} must be rigid")
            if elem.clause not in layout.clauses:
                raise LayoutError(f"coupling references undeclared clause {elem.clause}")
            if opened is None or opened.variable not in layout.clauses[elem.clause]:
                raise LayoutError(
                    f"clause {elem.clause} coupling is not between the partnered "
                    "turns of any of its literals"
                )
            coupled.add(elem.clause)
            continue
        if elem.ident in idents:
            raise LayoutError("turn identifiers must be unique")
        idents.add(elem.ident)
        if elem.variable is None:
            continue
        if elem.variable not in layout.variables:
            raise LayoutError(f"turn {elem.ident} uses undeclared variable {elem.variable}")
        # A variable turn needs bendable (4-cycle) context on both sides.
        for nb in elements[i - 1], elements[i + 1] if i + 1 < len(elements) else None:
            if not (isinstance(nb, Segment) and nb.kind == "flex"):
                raise LayoutError(f"variable turn {elem.ident} must be flanked by flex segments")
        turned.append(elem.variable)
        if opened is None:
            opened = elem
            continue
        # Two open pairs' alignment shifts would cancel inside both, so a
        # coupling there would read the XNOR of their variables.
        if elem.variable != opened.variable:
            raise LayoutError(
                f"variable turn {elem.ident} is inside the pair that turn {opened.ident} opens"
            )
        if opened.partner != elem.ident or elem.partner != opened.ident:
            raise LayoutError(f"turns {opened.ident} and {elem.ident} are not a mutual pair")
        if elem.direction != _opposite(opened.direction):
            raise LayoutError(
                f"partner turns {opened.ident}/{elem.ident} must bend opposite ways"
            )
        opened = None
    if opened is not None:
        raise LayoutError(f"variable turn {opened.ident} has no partner turn")

    t = len(turned)
    if layout.spacing <= 40 * t:
        raise LayoutError(
            f"spacing {layout.spacing} violates the corridor rule: must exceed "
            f"40 * t = {40 * t} for t = {t} variable turns"
        )
    # A clause without a coupling is not encoded in the molecule, so no
    # assignment falsifies it; a variable without a turn pair changes nothing.
    for name in layout.clauses:
        if name not in coupled:
            raise LayoutError(f"clause {name} has no rigid coupling segment")
    for var in layout.variables:
        if var not in turned:
            raise LayoutError(f"variable {var} has no variable turn pair")
