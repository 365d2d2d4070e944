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
gadget periods (4 cells flex, 8 rigid).  A turn bends the corridor 90
degrees; fixed turns bake the direction in, variable turns take it from a
truth assignment (the declared true= direction for True, its mirror for
False).  Variable turns come in partner pairs with opposite true
directions, so the corridor heading and strand alignment are restored after
the pair for every assignment.  A rigid segment tagged clause=NAME is that
clause's coupling: it must sit between the partnered turns of one of the
clause's literals, where only the satisfying bend direction keeps its
8-cycle pattern aligned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

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
    kind: str               # "fixed" | "variable"
    direction: str | None = None   # fixed turns: "left" | "right"
    variable: str | None = None    # variable turns
    true_direction: str | None = None
    partner: str | None = None


@dataclass
class SatLayout:
    spacing: int
    variables: list[str] = field(default_factory=list)
    clauses: dict[str, tuple[str, ...]] = field(default_factory=dict)
    elements: list[Segment | Turn] = field(default_factory=list)

    @property
    def variable_turns(self) -> list[Turn]:
        return [e for e in self.elements if isinstance(e, Turn) and e.kind == "variable"]

    @property
    def turn_count(self) -> int:
        return len(self.variable_turns)


def _opposite(direction: str) -> str:
    return "right" if direction == "left" else "left"


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
                spacing = int(parts[1])
            elif word == "variable":
                variables.append(parts[1])
            elif word == "clause":
                if len(parts) < 4 or parts[2] != "literals":
                    raise LayoutError("clause needs: clause NAME literals V[,V...]")
                clauses[parts[1]] = tuple(" ".join(parts[3:]).replace(",", " ").split())
            elif word == "segment":
                kind = parts[1]
                if kind not in PERIODS:
                    raise LayoutError(f"unknown segment kind {kind!r}")
                periods = int(parts[2])
                clause = None
                for opt in parts[3:]:
                    key, _, value = opt.partition("=")
                    if key == "clause":
                        clause = value
                    else:
                        raise LayoutError(f"unknown segment option {opt!r}")
                elements.append(Segment(kind=kind, periods=periods, clause=clause))
            elif word == "turn":
                ident = parts[1]
                kind = parts[2]
                if kind == "fixed":
                    elements.append(Turn(ident=ident, kind="fixed", direction=parts[3]))
                elif kind == "variable":
                    var = parts[3]
                    opts = dict(p.split("=", 1) for p in parts[4:])
                    elements.append(
                        Turn(
                            ident=ident,
                            kind="variable",
                            variable=var,
                            true_direction=opts.get("true"),
                            partner=opts.get("partner"),
                        )
                    )
                else:
                    raise LayoutError(f"unknown turn kind {kind!r}")
            else:
                raise LayoutError(f"unknown directive {word!r}")
        except LayoutError:
            raise
        except (IndexError, ValueError) as exc:
            raise LayoutError(f"line {lineno}: cannot parse {raw!r} ({exc})") from None

    if spacing is None:
        raise LayoutError("layout must declare spacing")
    layout = SatLayout(
        spacing=spacing, variables=variables, clauses=clauses, elements=elements
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
        if turn.true_direction not in ("left", "right"):
            raise LayoutError(f"turn {turn.ident} needs true=left or true=right")
        partner = turns.get(turn.partner or "")
        if partner is None or partner.kind != "variable":
            raise LayoutError(f"variable turn {turn.ident} has no partner turn")
        if partner.partner != turn.ident or partner.variable != turn.variable:
            raise LayoutError(
                f"turns {turn.ident} and {turn.partner} are not a mutual pair"
            )
        if partner.true_direction != _opposite(turn.true_direction):
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
        if isinstance(elem, Turn) and elem.kind == "variable":
            before = layout.elements[i - 1] if i else None
            after = layout.elements[i + 1] if i + 1 < len(layout.elements) else None
            for nb in (before, after):
                if not (isinstance(nb, Segment) and nb.kind == "flex"):
                    raise LayoutError(
                        f"variable turn {elem.ident} must be flanked by flex segments"
                    )

    open_pairs: dict[str, str] = {}  # variable -> opening turn ident
    for elem in layout.elements:
        if isinstance(elem, Turn) and elem.kind == "variable":
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
