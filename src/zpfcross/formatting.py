"""Text of computed values and the table/CSV layout of text rows.

Shared by the CLI's point queries and by ``report``'s sweep render, so a
point query formats its answer without loading the sweep machinery."""

from __future__ import annotations

from itertools import repeat
from typing import Optional, Sequence

from .errors import ValidationError


def _compact(text: str) -> str:
    """'%g' text with compact exponents: 5.17e+03 -> 5.17e3, 1e-05 -> 1e-5."""
    return text.replace("e+0", "e").replace("e+", "e").replace("e-0", "e-")


def format_sig(value: Optional[float], sigfigs: int = 3) -> str:
    """Format to significant figures with compact exponents (5.17e3)."""
    if value is None:
        return ""
    text = "%.*g" % (sigfigs, value)
    return _compact(text) if "e" in text else text


def format_rows(rows: Sequence[Sequence[str]], format: str) -> str:
    """Lay out rows of text cells: ``table`` pads each column to its widest
    cell, two spaces apart, trailing space stripped; ``csv`` joins cells
    with commas and quotes a cell that holds a comma."""
    if format == "csv":
        return "".join(",".join(f'"{cell}"' if "," in cell else cell for cell in row) + "\n"
                       for row in rows)
    if format != "table":
        raise ValidationError(f"unknown format {format!r}")
    # a column at a time, as many as the shortest row has
    padded = [map(str.ljust, column, repeat(max(map(len, column)))) for column in zip(*rows)]
    lines = map("  ".join, zip(*padded)) if padded else repeat("", len(rows))
    return "".join([line.rstrip() + "\n" for line in lines])
