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
its mirror for False).  Variable turns come in partner pairs with opposite
true directions, so the corridor heading and strand alignment are restored
after the pair for every assignment.  A rigid segment tagged clause=NAME is
that clause's coupling: it must sit between the partnered turns of one of
the clause's literals, where only the satisfying bend direction keeps its
8-cycle pattern aligned.  Every clause needs a coupling and every variable
a turn pair.
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

    @property
    def variable_turns(self) -> list[Turn]:
        return [e for e in self.elements if isinstance(e, Turn) and e.variable is not None]

    @property
    def turn_count(self) -> int:
        return len(self.variable_turns)


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
                kind = parts[1]
                if kind not in PERIODS:
                    raise LayoutError(f"unknown segment kind {kind!r}")
                periods = int(parts[2])
                if periods < 1:
                    raise LayoutError(f"segment needs at least 1 period, got {periods}")
                clause = _options(parts[3:], ("clause",)).get("clause")
                elements.append(Segment(kind=kind, periods=periods, clause=clause))
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
    layout = SatLayout(
        spacing=spacing, variables=tuple(variables), clauses=clauses, elements=tuple(elements)
    )
    validate_layout(layout)
    return layout


def load_layout(path) -> SatLayout:
    return parse_layout(Path(path).read_text())


def validate_layout(layout: SatLayout) -> None:
    if not layout.elements:
        raise LayoutError("layout has no route elements")
    if not isinstance(layout.elements[0], Segment):
        raise LayoutError("the route must start with a segment")

    t = layout.turn_count
    if layout.spacing <= 40 * t:
        raise LayoutError(
            f"spacing {layout.spacing} violates the corridor rule: must exceed "
            f"40 * t = {40 * t} for t = {t} variable turns"
        )

    turns = {e.ident: e for e in layout.elements if isinstance(e, Turn)}
    if len(turns) != sum(isinstance(e, Turn) for e in layout.elements):
        raise LayoutError("turn identifiers must be unique")

    for turn in layout.variable_turns:
        if turn.variable not in layout.variables:
            raise LayoutError(f"turn {turn.ident} uses undeclared variable {turn.variable}")
        partner = turns.get(turn.partner or "")
        if partner is None or partner.variable is None:
            raise LayoutError(f"variable turn {turn.ident} has no partner turn")
        if partner.partner != turn.ident or partner.variable != turn.variable:
            raise LayoutError(
                f"turns {turn.ident} and {turn.partner} are not a mutual pair"
            )
        if partner.direction != _opposite(turn.direction):
            raise LayoutError(
                f"partner turns {turn.ident}/{partner.ident} must bend opposite ways"
            )

    for name, literals in layout.clauses.items():
        for var in literals:
            if var not in layout.variables:
                raise LayoutError(f"clause {name} references undeclared variable {var}")

    # Variable turns need bendable (4-cycle) context on both sides, and a
    # clause coupling must sit strictly between the partnered turns of one
    # of its literals.
    for i, elem in enumerate(layout.elements):
        if isinstance(elem, Turn) and elem.variable is not None:
            before = layout.elements[i - 1] if i else None
            after = layout.elements[i + 1] if i + 1 < len(layout.elements) else None
            for nb in (before, after):
                if not (isinstance(nb, Segment) and nb.kind == "flex"):
                    raise LayoutError(
                        f"variable turn {elem.ident} must be flanked by flex segments"
                    )

    open_pairs: dict[str, str] = {}  # variable -> opening turn ident
    for elem in layout.elements:
        if isinstance(elem, Turn) and elem.variable is not None:
            if elem.variable in open_pairs:
                del open_pairs[elem.variable]
            else:
                open_pairs[elem.variable] = elem.ident
        elif isinstance(elem, Segment) and elem.clause is not None:
            if elem.kind != "rigid":
                raise LayoutError(f"clause coupling for {elem.clause} must be rigid")
            if elem.clause not in layout.clauses:
                raise LayoutError(f"coupling references undeclared clause {elem.clause}")
            literals = layout.clauses[elem.clause]
            if not any(v in open_pairs for v in literals):
                raise LayoutError(
                    f"clause {elem.clause} coupling is not between the partnered "
                    "turns of any of its literals"
                )
    if open_pairs:
        raise LayoutError(f"unclosed variable turn pair for {sorted(open_pairs)}")

    # A clause without a coupling is not encoded in the molecule, so no
    # assignment falsifies it; a variable without a turn pair changes nothing.
    coupled = {e.clause for e in layout.elements if isinstance(e, Segment)}
    for name in layout.clauses:
        if name not in coupled:
            raise LayoutError(f"clause {name} has no rigid coupling segment")
    turned = {turn.variable for turn in layout.variable_turns}
    for var in layout.variables:
        if var not in turned:
            raise LayoutError(f"variable {var} has no variable turn pair")
