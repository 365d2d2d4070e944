"""File formats and structured result documents.

Folding files hold one "x y" integer pair per line in chain-index order;
blank lines and '#' comments are ignored.  A move string over {R, L, U, D}
on a line of its own is the compact alternative, with the first node
implicit at the origin; a file holds one format, never both.

A ResultDocument is the CLI's output unit: command echo, input digest,
outputs, and diagnostics, emitted either as line-oriented "key: value" text
with a stable field order or as JSON.  A document holds no wall-clock
timing (the CLI prints it to stderr) so that identical inputs and flags
always produce identical documents.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from .model import Folding
from .walks import moves_to_points


def write_folding_file(path, folding: Folding, comment: str | None = None) -> None:
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"# {part}")
    lines.extend(f"{x} {y}" for x, y in folding.points)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_folding_points(path) -> tuple[tuple[int, int], ...]:
    """Read a folding file into points: "x y" lines only, or one move-string
    line alone.  Raises ValueError for anything else, mixtures included."""
    with open(path) as fh:
        lines = [(raw, raw.split("#", 1)[0].split()) for raw in fh]
    lines = [(raw, parts) for raw, parts in lines if parts]
    if len(lines) == 1 and len(lines[0][1]) == 1 and not _is_int(lines[0][1][0]):
        return moves_to_points(lines[0][1][0])
    points: list[tuple[int, int]] = []
    for raw, parts in lines:
        if len(parts) != 2 or not (_is_int(parts[0]) and _is_int(parts[1])):
            raise ValueError(f"bad folding line: {raw.rstrip()!r}")
        points.append((int(parts[0]), int(parts[1])))
    return tuple(points)


def _is_int(token: str) -> bool:
    try:
        int(token)
        return True
    except ValueError:
        return False


def sequence_digest(seq: str) -> str:
    return hashlib.sha256(seq.encode()).hexdigest()[:12]


@dataclass
class ResultDocument:
    """Structured result of one CLI invocation."""

    command: str
    inputs: dict[str, Any] = field(default_factory=dict)
    outputs: dict[str, Any] = field(default_factory=dict)
    diagnostics: dict[str, Any] = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for section, data in (
            ("input", self.inputs),
            ("output", self.outputs),
            ("diag", self.diagnostics),
        ):
            for key, value in data.items():
                lines.append(f"{section}.{key}: {_fmt(value)}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        obj = {
            "command": self.command,
            "input": self.inputs,
            "output": self.outputs,
            "diag": self.diagnostics,
        }
        return json.dumps(obj, indent=2) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "text":
            return self.to_text()
        if fmt == "structured":
            return self.to_json()
        raise ValueError(f"unknown format {fmt!r}")


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return " ".join(_fmt(v) for v in value)
    return str(value)
